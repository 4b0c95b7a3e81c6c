"""Metric extraction and correctness checks over the program's reports.

Everything here reads public report fields or served records; nothing
is taken from private program state.  One :class:`Outcome` summarizes
one served round; :func:`pool` folds a run's rounds into the simulated
end-to-end metrics.

``slo_attainment`` is computed here from served records over *offered*
requests.  ``FleetReport.deadline_hit_rate`` is not used: its
denominator counts device-level unserved requests but leaves gateway
sheds out, despite its docstring, so a run that sheds at the gateway
reads better than it is (on a 192-job tiered run it reads 0.753 while
0.389 of offered requests met their deadline).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class CheckFailed(RuntimeError):
    """A correctness check on the program's output did not hold."""


@dataclass
class Outcome:
    """What one served round produced, reduced to what the metrics need."""

    offered: int
    completed: int
    shed: int
    failed: int
    #: Served-request latencies, counted from the scheduled arrival.
    latency_s: np.ndarray
    #: Served requests that met their deadline (or carried none).
    on_time: int
    queue_wait_s: np.ndarray
    #: Queue wait plus own prefill; empty where the report does not
    #: carry prefill durations (the column-native trace report).
    ttft_s: np.ndarray
    energy_j: float
    #: Summed request service spans and summed device clocks.
    busy_s: float
    device_s: float
    device_offered: tuple[int, ...]
    prefix_hits: int
    prefix_misses: int
    rerouted: int
    breaker_opens: int
    device_crashes: int
    #: The tiering section of a tiered report, else None.
    tiering: object | None
    #: sha256 of the report's canonical JSON.
    digest: str

    @property
    def lost(self) -> int:
        return self.offered - self.completed - self.shed - self.failed


def report_digest(report) -> str:
    """sha256 of a report's canonical JSON rendering."""
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def check_conservation(outcome: Outcome) -> None:
    """``offered == completed + shed + failed``, exactly.

    For a tiered run ``offered`` counts DAG children, and the tiering
    section must agree with it.
    """
    if outcome.lost != 0:
        raise CheckFailed(
            f"conservation: offered {outcome.offered} != completed "
            f"{outcome.completed} + shed {outcome.shed} + failed "
            f"{outcome.failed}")
    tiering = outcome.tiering
    if tiering is not None and tiering.children_offered != outcome.offered:
        raise CheckFailed(
            f"conservation: tiering counts {tiering.children_offered} DAG "
            f"children but the fleet was offered {outcome.offered}")


def from_fleet_report(report) -> Outcome:
    """Reduce a ``FleetReport`` (the ``run`` result)."""
    served = report.served
    arrival = np.array([r.arrival_s for r in served], dtype=np.float64)
    start = np.array([r.start_s for r in served], dtype=np.float64)
    finish = np.array([r.finish_s for r in served], dtype=np.float64)
    prefill = np.array([r.prefill_s for r in served], dtype=np.float64)
    on_time = sum(1 for r in served if r.met_deadline is not False)
    return Outcome(
        offered=report.offered,
        completed=report.completed,
        shed=report.shed,
        failed=report.failed,
        latency_s=finish - arrival,
        on_time=on_time,
        queue_wait_s=start - arrival,
        ttft_s=start - arrival + prefill,
        energy_j=report.energy_joules,
        busy_s=float(np.sum(finish - start)),
        device_s=report.device_seconds,
        device_offered=tuple(d.report.offered for d in report.devices),
        prefix_hits=sum(d.prefix_hits for d in report.devices),
        prefix_misses=sum(d.prefix_misses for d in report.devices),
        rerouted=report.rerouted,
        breaker_opens=report.breaker_opens,
        device_crashes=report.device_crashes,
        tiering=report.tiering,
        digest=report_digest(report),
    )


def from_trace_report(report, rows) -> Outcome:
    """Reduce a ``FleetTraceReport`` plus its per-device outcome rows.

    ``rows`` are the ``TraceDeviceData`` columns the report was
    assembled from (see ``PopulationAffinity.capture``); they must
    account for every completed request of the report.
    """
    if sum(row.request_id.shape[0] for row in rows) != report.completed:
        raise CheckFailed(
            "captured trace rows do not cover the report's "
            f"{report.completed} completed requests")
    latency = [row.finish_s - row.arrival_s for row in rows]
    wait = [row.start_s - row.arrival_s for row in rows]
    on_time = 0
    for row, lat in zip(rows, latency):
        mask = row.deadline_mask
        on_time += int(np.count_nonzero(~mask))
        on_time += int(np.count_nonzero(lat[mask] <= row.deadline_s[mask]))
    return Outcome(
        offered=report.offered,
        completed=report.completed,
        shed=report.shed,
        failed=report.failed,
        latency_s=np.concatenate(latency) if rows else np.empty(0),
        on_time=on_time,
        queue_wait_s=np.concatenate(wait) if rows else np.empty(0),
        ttft_s=np.empty(0),
        energy_j=report.energy_joules,
        busy_s=float(sum(np.sum(row.finish_s - row.start_s)
                         for row in rows)),
        device_s=report.device_seconds,
        device_offered=tuple(d.offered for d in report.devices),
        prefix_hits=sum(d.prefix_hits for d in report.devices),
        prefix_misses=sum(d.prefix_misses for d in report.devices),
        rerouted=0,
        breaker_opens=0,
        device_crashes=0,
        tiering=None,
        digest=report_digest(report),
    )


def percentile(values: np.ndarray, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if values.size else 0.0


def pool(outcomes: list[Outcome]) -> dict[str, float]:
    """The simulated end-to-end metrics over a run's rounds."""
    offered = sum(o.offered for o in outcomes)
    completed = sum(o.completed for o in outcomes)
    latency = np.concatenate([o.latency_s for o in outcomes])
    return {
        "p50_latency_s": percentile(latency, 50),
        "p99_latency_s": percentile(latency, 99),
        "slo_attainment": sum(o.on_time for o in outcomes) / offered,
        "energy_per_request_j": (sum(o.energy_j for o in outcomes)
                                 / completed),
        "served_share": completed / offered,
    }


def layer_counts(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics read from reports, pooled over rounds."""
    hits = sum(o.prefix_hits for o in outcomes)
    lookups = hits + sum(o.prefix_misses for o in outcomes)
    tiered = [o.tiering for o in outcomes if o.tiering is not None]
    jobs_completed = sum(t.jobs_completed for t in tiered)

    def tier_sum(field: str) -> int:
        return int(sum(getattr(t, field) for t in tiered))

    return {
        "prefix_cache.hit_rate": hits / lookups if lookups else 0.0,
        "gateway.offered_imbalance": float(np.mean(
            [max(o.device_offered) / np.mean(o.device_offered)
             for o in outcomes])),
        "engine.batch_occupancy": (sum(o.busy_s for o in outcomes)
                                   / sum(o.device_s for o in outcomes)),
        "device.queue_wait_p99_s": percentile(
            np.concatenate([o.queue_wait_s for o in outcomes]), 99),
        "device.ttft_p99_s": percentile(
            np.concatenate([o.ttft_s for o in outcomes]), 99),
        "tiering.fast_stages": tier_sum("fast_stages"),
        "tiering.deep_stages": tier_sum("deep_stages"),
        "tiering.verify_stages": tier_sum("verify_stages"),
        "tiering.load_downgrades": tier_sum("load_downgrades"),
        "tiering.budget_downgrades": tier_sum("budget_downgrades"),
        "tiering.budget_shed_jobs": tier_sum("budget_shed_jobs"),
        "tiering.verify_rescues": tier_sum("verify_rescues"),
        "tiering.mean_branches": (float(np.mean(
            [t.mean_branches for t in tiered])) if tiered else 0.0),
        "tiering.answer_accuracy": (
            sum(t.answer_accuracy * t.jobs_completed for t in tiered)
            / jobs_completed if jobs_completed else 0.0),
        "health.breaker_opens": sum(o.breaker_opens for o in outcomes),
        "gateway.rerouted": sum(o.rerouted for o in outcomes),
        "faults.device_crashes": sum(o.device_crashes for o in outcomes),
    }

