"""Fleet-level aggregation of per-device serving reports.

A :class:`FleetReport` merges each device's
:class:`~repro.engine.server.ResilienceReport` into fleet SLO
attainment, energy, throughput, and cost-per-Mtok, plus the gateway's
crash/re-route accounting.  :meth:`FleetReport.to_json` renders a
canonical byte-stable JSON document — the artifact the chaos and
determinism gates compare byte-for-byte across reruns, device
construction orders, and pipeline executors.

One dedup rule, one fold: :attr:`FleetReport.winners` keeps each
request's earliest finish across the fleet (a hedge loser's copy is not
an outcome), and every fleet aggregate is read, on first use, from
:func:`~repro.fleet.trace._fold` over the winners' per-device columns —
the reduction :func:`~repro.fleet.trace.assemble_trace_report` wraps
for the column-native trace report.

Conservation note: a request evacuated from a crashed device appears in
*two* devices' ``offered`` counts (each run saw it), but terminal
outcomes — served, shed, failed — happen exactly once, so
``lost = offered - completed - shed - failed`` is well-defined at the
fleet level and the chaos gate pins it at zero.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.cost import CostModel
from repro.core.stats import json_number, nan_percentile
from repro.engine.server import ResilienceReport, ServedRequest
from repro.fleet.autoscale import AutoscaleReport
from repro.fleet.trace import FleetTraceReport, TraceDeviceData, _fold

#: The outcome columns of one device's winners, as
#: :class:`~repro.fleet.trace.TraceDeviceData` names them.
_WINNER_DTYPE = np.dtype([
    ("request_id", np.int64), ("arrival_s", np.float64),
    ("start_s", np.float64), ("finish_s", np.float64),
    ("prompt_tokens", np.int64), ("output_tokens", np.int64),
    ("deadline_s", np.float64), ("deadline_mask", bool)])


@dataclass(frozen=True)
class DeviceOutcome:
    """One device's contribution to a fleet run."""

    name: str
    model: str
    power_mode: str
    report: ResilienceReport
    crashes: int
    evacuated: int
    prefix_hits: int
    prefix_misses: int


def _winner_columns(outcome: DeviceOutcome, rows) -> TraceDeviceData:
    """One device's winning records as fold input, in one pass."""
    table = np.array([
        (r.request_id, r.arrival_s, r.start_s, r.finish_s, r.prompt_tokens,
         r.output_tokens, np.nan if r.deadline_s is None else r.deadline_s,
         r.deadline_s is not None)
        for r in rows], dtype=_WINNER_DTYPE)
    return TraceDeviceData(
        outcome.name, outcome.model, outcome.power_mode,
        offered=outcome.report.offered,
        wallclock_s=outcome.report.wallclock_s,
        energy_joules=outcome.report.energy_joules,
        prefix_hits=outcome.prefix_hits,
        prefix_misses=outcome.prefix_misses,
        unserved_with_deadline=outcome.report.unserved_with_deadline,
        **{name: table[name] for name in _WINNER_DTYPE.names})


class _Folded:
    """A :class:`FleetReport` aggregate: the same-named field of the
    report's one fold over its winner columns."""

    def __init__(self, doc: str):
        self.__doc__ = doc

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return self
        return getattr(report._folded[0], self.name)


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one fleet run."""

    policy: str
    #: Requests offered to the gateway (the stream length).
    offered: int
    #: Re-route injections after device crashes.
    rerouted: int
    devices: tuple[DeviceOutcome, ...]
    #: Requests the gateway refused admission (brownout tier 3 or a
    #: permanent whole-fleet outage) — never injected anywhere.
    gateway_shed: int = 0
    #: Requests whose re-route retry budget was exhausted.
    gateway_failed: int = 0
    #: Hedge copies injected / hedge copies that won the race.
    hedged: int = 0
    hedge_wins: int = 0
    #: Circuit-breaker trips across the fleet.
    breaker_opens: int = 0
    #: Deepest brownout tier the admission controller engaged.
    max_brownout_tier: int = 0
    #: Requests admitted with a trimmed token budget.
    budget_trims: int = 0
    #: Time the controller last returned to tier 0 (None: never
    #: degraded, or still degraded at end of run).
    recovered_s: float | None = None
    #: Lifecycle counters and energy ledger when the run was
    #: autoscaled (None keeps legacy reports byte-identical).
    autoscale: AutoscaleReport | None = None
    #: Tier/budget/accuracy accounting when the run served a DAG
    #: workload under a tier policy (a
    #: :class:`~repro.tiering.report.TieringReport`; None keeps
    #: untiered reports byte-identical).
    tiering: object | None = None

    # -- fleet-level aggregates ----------------------------------------
    @cached_property
    def winners(self) -> tuple[tuple[ServedRequest, ...], ...]:
        """Each device's winning served records, in device order.

        The fleet's one dedup rule: a request's outcome is its earliest
        finish across the fleet (the earlier device on a tie).  With
        hedging, both copies of a request can complete inside the same
        advance window before the loser is cancelled, and only the
        winner is the request's outcome (the loser's decode work stays
        priced in its device's clock and energy).
        """
        merged: dict[int, ServedRequest] = {}
        for d in self.devices:
            for r in d.report.served:
                prev = merged.get(r.request_id)
                if prev is None or r.finish_s < prev.finish_s:
                    merged[r.request_id] = r
        return tuple(
            tuple(r for r in d.report.served if merged[r.request_id] is r)
            for d in self.devices)

    @cached_property
    def served(self) -> tuple[ServedRequest, ...]:
        """Every completed request across the fleet (the winners), by
        request id."""
        return tuple(sorted(itertools.chain.from_iterable(self.winners),
                            key=lambda r: r.request_id))

    @cached_property
    def winner_columns(self) -> tuple[TraceDeviceData, ...]:
        """The winners as per-device outcome columns: the input of the
        fold both fleet reports share."""
        return tuple(_winner_columns(d, rows)
                     for d, rows in zip(self.devices, self.winners))

    @cached_property
    def _folded(self) -> tuple[FleetTraceReport, np.ndarray]:
        """The :func:`~repro.fleet.trace._fold` of :attr:`winner_columns`,
        run on the first read of any aggregate below."""
        return _fold(self.policy, self.offered, self.shed, self.failed,
                     self.winner_columns)

    completed = _Folded("Requests fully served somewhere in the fleet.")
    wallclock_s = _Folded("Fleet makespan: the last device clock.")
    device_seconds = _Folded(
        "Summed per-device occupancy (the hardware-amortization base).")
    energy_joules = _Folded("Total energy across the fleet.")
    total_tokens = _Folded(
        "Prompt + generated tokens across all served requests.")
    total_output_tokens = _Folded(
        "Generated tokens across all served requests.")
    tokens_per_second = _Folded(
        "Aggregate decode throughput over the fleet makespan.")
    achieved_qps = _Folded("Completed requests per second of fleet makespan.")
    energy_per_request_j = _Folded(
        "Mean energy per completed request (nan when none completed).")
    deadline_hit_rate = _Folded(
        "Fleet SLO attainment: on-time completions over the "
        "deadline-carrying completions plus the requests devices left "
        "unserved (shed, failed or expired on a device).  Gateway sheds "
        "and retry-exhausted failures are not in the denominator, so "
        "this can read above the share of offered deadline-carrying "
        "requests that met their deadline.")

    def latency_percentile(self, q: float) -> float:
        """Fleet end-to-end latency percentile (nan when none served)."""
        return nan_percentile(self._folded[1], q)

    @property
    def shed(self) -> int:
        """Requests refused: device admission plus gateway brownouts."""
        return sum(d.report.shed for d in self.devices) + self.gateway_shed

    @property
    def failed(self) -> int:
        """Requests permanently failed on a device or retry-exhausted."""
        return (sum(d.report.failed for d in self.devices)
                + self.gateway_failed)

    @property
    def lost(self) -> int:
        """Requests with no terminal outcome anywhere (must be zero)."""
        return self.offered - self.completed - self.shed - self.failed

    @property
    def device_crashes(self) -> int:
        """Crash events delivered across the fleet."""
        return sum(d.crashes for d in self.devices)

    @property
    def evacuated(self) -> int:
        """In-flight/queued requests orphaned by crashes."""
        return sum(d.evacuated for d in self.devices)

    def cost_per_mtok(self, cost_model: CostModel | None = None) -> float:
        """Fleet $/1M tokens: energy plus per-device amortized hardware.

        No ``serving_batch`` discount — the fleet simulation's actual
        concurrency already amortizes the device-seconds.
        """
        cost_model = cost_model or CostModel.single_stream()
        if self.total_tokens <= 0:
            return float("nan")
        return cost_model.fleet_cost_per_million_tokens(
            self.energy_joules, self.device_seconds, self.total_tokens)

    # -- canonical serialization ---------------------------------------
    def to_dict(self) -> dict:
        """A plain-data rendering with a stable field order."""
        payload = {
            "policy": self.policy,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "lost": self.lost,
            "rerouted": self.rerouted,
            "gateway_shed": self.gateway_shed,
            "gateway_failed": self.gateway_failed,
            "hedged": self.hedged,
            "hedge_wins": self.hedge_wins,
            "breaker_opens": self.breaker_opens,
            "max_brownout_tier": self.max_brownout_tier,
            "budget_trims": self.budget_trims,
            "recovered_s": self.recovered_s,
            "device_crashes": self.device_crashes,
            "evacuated": self.evacuated,
            "wallclock_s": self.wallclock_s,
            "energy_joules": self.energy_joules,
            "total_tokens": self.total_tokens,
            "deadline_hit_rate": json_number(self.deadline_hit_rate),
            "p50_latency_s": json_number(self.latency_percentile(50)),
            "p95_latency_s": json_number(self.latency_percentile(95)),
            "devices": [
                {
                    "name": d.name,
                    "model": d.model,
                    "power_mode": d.power_mode,
                    "completed": d.report.completed,
                    "offered": d.report.offered,
                    "shed": d.report.shed,
                    "failed": d.report.failed,
                    "crashes": d.crashes,
                    "evacuated": d.evacuated,
                    "prefix_hits": d.prefix_hits,
                    "prefix_misses": d.prefix_misses,
                    "wallclock_s": d.report.wallclock_s,
                    "energy_joules": d.report.energy_joules,
                }
                for d in self.devices
            ],
            "served": [
                {
                    "request_id": r.request_id,
                    "arrival_s": r.arrival_s,
                    "start_s": r.start_s,
                    "finish_s": r.finish_s,
                    "output_tokens": r.output_tokens,
                    "attempts": r.attempts,
                }
                for r in self.served
            ],
        }
        if self.autoscale is not None:
            payload["autoscale"] = self.autoscale.to_dict()
        if self.tiering is not None:
            payload["tiering"] = self.tiering.to_dict()
        return payload

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical runs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
