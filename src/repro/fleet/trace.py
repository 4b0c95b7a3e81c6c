"""Population-scale trace reports: column-native fleet outcomes.

A 1M-request fleet run cannot afford the :class:`~repro.fleet.report.
FleetReport` contract: its canonical JSON embeds one object per served
request, so the determinism artifact alone would be hundreds of MB and
its assembly would materialize the per-request objects the streaming
driver exists to avoid.  :class:`FleetTraceReport` is the
population-scale counterpart — the same fleet aggregates (makespan,
device-seconds, energy, SLO attainment, latency percentiles) plus one
sha256 *digest* per device over its served-outcome columns, so two runs
are byte-comparable without serializing a million rows.

One fold, one dedup rule: every fleet aggregate of either report type
comes from :func:`_fold` over per-device *winner* columns.  The vector
trace driver (:meth:`~repro.fleet.gateway.FleetGateway.run_trace`)
hands it the drain's columns through :func:`assemble_trace_report`;
the scalar oracle hands it a :class:`~repro.fleet.report.FleetReport`'s
winner columns through :func:`trace_report_from_fleet`; and a
``FleetReport`` reads its own aggregates from the same fold.  The
winners are the report's earliest finish per request id, so
``run_trace`` on a hedged gateway counts each request once, exactly as
``run`` does.  Every float reduction happens once, in one place, in
device-name order — chunked vs unchunked streams, thread vs process
executors, and vector vs scalar cores all render byte-identical
:meth:`FleetTraceReport.to_json` documents.  Deliberately, the report
does *not* record which core produced it: a "mode" field would break
exactly the cross-core comparison the digests exist for.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.stats import json_number, nan_percentile, slo_attainment

if TYPE_CHECKING:
    from repro.fleet.report import FleetReport


@dataclass(frozen=True)
class TraceDeviceSummary:
    """One device's contribution to a population-scale run."""

    name: str
    model: str
    power_mode: str
    #: Requests partitioned to this device.
    offered: int
    completed: int
    wallclock_s: float
    energy_joules: float
    prefix_hits: int
    prefix_misses: int
    #: sha256 over the device's served-outcome columns (sorted by
    #: request id): request_id, arrival_s, start_s, finish_s,
    #: prompt_tokens, output_tokens.
    served_digest: str


@dataclass(frozen=True)
class FleetTraceReport:
    """Aggregate outcome of one population-scale fleet run."""

    policy: str
    offered: int
    completed: int
    shed: int
    failed: int
    wallclock_s: float
    device_seconds: float
    energy_joules: float
    total_tokens: int
    total_output_tokens: int
    achieved_qps: float
    tokens_per_second: float
    energy_per_request_j: float
    deadline_hit_rate: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    devices: tuple[TraceDeviceSummary, ...]

    @property
    def lost(self) -> int:
        """Requests with no terminal outcome anywhere (must be zero)."""
        return self.offered - self.completed - self.shed - self.failed

    # -- canonical serialization ---------------------------------------
    def to_dict(self) -> dict:
        """A plain-data rendering: every field in declaration order
        (device summaries as dicts), then ``lost``."""
        payload = {key: json_number(value)
                   for key, value in dataclasses.asdict(self).items()}
        payload["lost"] = self.lost
        return payload

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical runs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


class TraceDeviceData:
    """Assembler input: one device's outcome columns plus scalars.

    Columns cover the device's *served* requests only (the trace fast
    path serves everything; a scalar fallback may shed on-device and
    those rows simply do not appear here).  ``deadline_s`` is nan where
    ``deadline_mask`` is False.
    """

    __slots__ = ("name", "model", "power_mode", "offered",
                 "wallclock_s", "energy_joules", "prefix_hits",
                 "prefix_misses", "unserved_with_deadline", "request_id",
                 "arrival_s", "start_s", "finish_s", "prompt_tokens",
                 "output_tokens", "deadline_s", "deadline_mask")

    def __init__(self, name: str, model: str, power_mode: str, *,
                 offered: int, wallclock_s: float, energy_joules: float,
                 prefix_hits: int, prefix_misses: int,
                 unserved_with_deadline: int,
                 request_id: np.ndarray, arrival_s: np.ndarray,
                 start_s: np.ndarray, finish_s: np.ndarray,
                 prompt_tokens: np.ndarray, output_tokens: np.ndarray,
                 deadline_s: np.ndarray, deadline_mask: np.ndarray):
        self.name = name
        self.model = model
        self.power_mode = power_mode
        self.offered = offered
        self.wallclock_s = wallclock_s
        self.energy_joules = energy_joules
        self.prefix_hits = prefix_hits
        self.prefix_misses = prefix_misses
        self.unserved_with_deadline = unserved_with_deadline
        self.request_id = np.asarray(request_id, dtype=np.int64)
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64)
        self.start_s = np.asarray(start_s, dtype=np.float64)
        self.finish_s = np.asarray(finish_s, dtype=np.float64)
        self.prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        self.output_tokens = np.asarray(output_tokens, dtype=np.int64)
        self.deadline_s = np.asarray(deadline_s, dtype=np.float64)
        self.deadline_mask = np.asarray(deadline_mask, dtype=bool)


def served_columns_digest(data: TraceDeviceData) -> str:
    """Canonical sha256 over one device's served-outcome columns.

    Rows are sorted by request id before hashing so the digest depends
    only on the outcome *set*, never on completion order; columns hash
    at fixed dtypes (int64/float64, native little-endian byte order),
    so bit-identical outcomes — the vector/scalar equivalence
    guarantee — digest identically without serializing any rows.
    """
    order = np.argsort(data.request_id, kind="stable")
    h = hashlib.sha256()
    for column in (data.request_id, data.arrival_s, data.start_s,
                   data.finish_s, data.prompt_tokens, data.output_tokens):
        h.update(np.ascontiguousarray(column[order]).tobytes())
    return h.hexdigest()


def _fold(policy: str, offered: int, shed: int, failed: int,
          devices: Sequence[TraceDeviceData]
          ) -> tuple[FleetTraceReport, np.ndarray]:
    """The fleet's one outcome reduction: winner columns to aggregates.

    Both fleet reports read their aggregates from it:
    :func:`assemble_trace_report` wraps it, and
    :class:`~repro.fleet.report.FleetReport` folds its own winner
    columns through it on first read.  Sums walk the devices in the
    given (name-sorted) order left to right, latencies concatenate in
    that same order, and percentiles run on the combined sample — so
    inputs with bit-identical columns produce bit-identical aggregates.

    SLO attainment counts on-time winners over the deadline-carrying
    winners plus each device's ``unserved_with_deadline`` (requests
    shed, failed or expired on a device).  Gateway sheds and
    retry-exhausted failures stay outside the denominator.

    Returns the report without per-device summaries, and the latency
    column it folded.
    """
    completed = sum(d.request_id.shape[0] for d in devices)
    wallclock = max((d.wallclock_s for d in devices), default=0.0)
    device_seconds = sum(d.wallclock_s for d in devices)
    energy = sum(d.energy_joules for d in devices)
    total_tokens = sum(int(d.prompt_tokens.sum()) + int(d.output_tokens.sum())
                       for d in devices)
    total_output = sum(int(d.output_tokens.sum()) for d in devices)
    latency = (np.concatenate([d.finish_s - d.arrival_s for d in devices])
               if completed else np.empty(0))

    hits = 0
    with_deadline = 0
    cursor = 0
    unserved = 0
    for d in devices:
        n_d = d.request_id.shape[0]
        mask = d.deadline_mask
        if mask.any():
            lat = latency[cursor:cursor + n_d][mask]
            hits += int(np.count_nonzero(lat <= d.deadline_s[mask]))
            with_deadline += int(np.count_nonzero(mask))
        cursor += n_d
        unserved += d.unserved_with_deadline

    report = FleetTraceReport(
        policy=policy,
        offered=offered,
        completed=completed,
        shed=shed,
        failed=failed,
        wallclock_s=wallclock,
        device_seconds=device_seconds,
        energy_joules=energy,
        total_tokens=total_tokens,
        total_output_tokens=total_output,
        achieved_qps=(completed / wallclock if wallclock > 0 else 0.0),
        tokens_per_second=(total_output / wallclock
                           if wallclock > 0 else 0.0),
        energy_per_request_j=(energy / completed
                              if completed else float("nan")),
        deadline_hit_rate=slo_attainment(hits, with_deadline, unserved,
                                         completed),
        p50_latency_s=nan_percentile(latency, 50),
        p95_latency_s=nan_percentile(latency, 95),
        p99_latency_s=nan_percentile(latency, 99),
        devices=(),
    )
    return report, latency


def assemble_trace_report(policy: str, offered: int, shed: int,
                          failed: int,
                          devices: Sequence[TraceDeviceData]
                          ) -> FleetTraceReport:
    """Fold per-device outcome columns into one trace report.

    Every aggregate comes from :func:`_fold`; this adds one summary
    per device, its served digest included.
    """
    report, _ = _fold(policy, offered, shed, failed, devices)
    return dataclasses.replace(report, devices=tuple(
        TraceDeviceSummary(
            name=d.name,
            model=d.model,
            power_mode=d.power_mode,
            offered=d.offered,
            completed=d.request_id.shape[0],
            wallclock_s=d.wallclock_s,
            energy_joules=d.energy_joules,
            prefix_hits=d.prefix_hits,
            prefix_misses=d.prefix_misses,
            served_digest=served_columns_digest(d),
        )
        for d in devices
    ))


def trace_report_from_fleet(report: FleetReport) -> FleetTraceReport:
    """Render a :class:`~repro.fleet.report.FleetReport` as a trace report.

    The equivalence bridge: a small-scale scalar run converted here must
    byte-match the vector trace driver's report for the same stream.
    The report's :attr:`~repro.fleet.report.FleetReport.winner_columns`
    — each device's winning served rows, hedge losers dropped — flow
    through :func:`assemble_trace_report`, so a device's summary covers
    the requests whose outcome it supplied.
    """
    return assemble_trace_report(report.policy, report.offered,
                                 report.shed, report.failed,
                                 report.winner_columns)
