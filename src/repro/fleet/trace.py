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

Byte-identity contract: the vector trace driver
(:meth:`~repro.fleet.gateway.FleetGateway.run_trace`) and the scalar
oracle (via :func:`trace_report_from_fleet`) both feed
:func:`assemble_trace_report` with per-device columns, so every float
reduction happens once, in one place, in device-name order — chunked
vs unchunked streams, thread vs process executors, and vector vs scalar
cores all render byte-identical :meth:`FleetTraceReport.to_json`
documents.  Deliberately, the report does *not* record which core
produced it: a "mode" field would break exactly the cross-core
comparison the digests exist for.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from repro.core.stats import nan_percentile, slo_attainment
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
        """A plain-data rendering with a stable field order."""

        def num(value: float) -> float | str:
            return "nan" if isinstance(value, float) and math.isnan(
                value) else value

        return {
            "policy": self.policy,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "lost": self.lost,
            "wallclock_s": self.wallclock_s,
            "device_seconds": self.device_seconds,
            "energy_joules": self.energy_joules,
            "total_tokens": self.total_tokens,
            "total_output_tokens": self.total_output_tokens,
            "achieved_qps": self.achieved_qps,
            "tokens_per_second": self.tokens_per_second,
            "energy_per_request_j": num(self.energy_per_request_j),
            "deadline_hit_rate": num(self.deadline_hit_rate),
            "p50_latency_s": num(self.p50_latency_s),
            "p95_latency_s": num(self.p95_latency_s),
            "p99_latency_s": num(self.p99_latency_s),
            "devices": [
                {
                    "name": d.name,
                    "model": d.model,
                    "power_mode": d.power_mode,
                    "offered": d.offered,
                    "completed": d.completed,
                    "wallclock_s": d.wallclock_s,
                    "energy_joules": d.energy_joules,
                    "prefix_hits": d.prefix_hits,
                    "prefix_misses": d.prefix_misses,
                    "served_digest": d.served_digest,
                }
                for d in self.devices
            ],
        }

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


def assemble_trace_report(policy: str, offered: int, shed: int,
                          failed: int,
                          devices: "list[TraceDeviceData]"
                          ) -> FleetTraceReport:
    """Fold per-device outcome columns into one trace report.

    The single reduction site both cores share: sums walk the devices
    in the given (name-sorted) order left to right, latencies
    concatenate in that same order, and percentiles run on the combined
    sample — so vector and scalar inputs with bit-identical columns
    produce bit-identical aggregates.
    """
    completed = sum(d.request_id.shape[0] for d in devices)
    wallclock = max((d.wallclock_s for d in devices), default=0.0)
    device_seconds = sum(d.wallclock_s for d in devices)
    energy = sum(d.energy_joules for d in devices)
    total_tokens = sum(int(d.prompt_tokens.sum()) + int(d.output_tokens.sum())
                       for d in devices)
    total_output = sum(int(d.output_tokens.sum()) for d in devices)

    if completed:
        latency = np.concatenate(
            [d.finish_s - d.arrival_s for d in devices])
        p50 = nan_percentile(latency, 50)
        p95 = nan_percentile(latency, 95)
        p99 = nan_percentile(latency, 99)
    else:
        latency = np.empty(0)
        p50 = p95 = p99 = float("nan")

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
    hit_rate = slo_attainment(hits, with_deadline, unserved, completed)

    summaries = tuple(
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
    )
    return FleetTraceReport(
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
        deadline_hit_rate=hit_rate,
        p50_latency_s=p50,
        p95_latency_s=p95,
        p99_latency_s=p99,
        devices=summaries,
    )


def trace_report_from_fleet(report: FleetReport) -> FleetTraceReport:
    """Render a scalar-oracle :class:`FleetReport` as a trace report.

    The equivalence bridge: a small-scale scalar run converted here must
    byte-match the vector trace driver's report for the same stream —
    per-device served rows become the same canonical columns (sorted by
    request id inside the digest), and every aggregate flows through
    :func:`assemble_trace_report`.
    """
    rows = []
    for d in report.devices:
        served = d.report.served
        n = len(served)
        rows.append(TraceDeviceData(
            d.name, d.model, d.power_mode,
            offered=d.report.offered,
            wallclock_s=d.report.wallclock_s,
            energy_joules=d.report.energy_joules,
            prefix_hits=d.prefix_hits,
            prefix_misses=d.prefix_misses,
            unserved_with_deadline=d.report.unserved_with_deadline,
            request_id=np.fromiter((r.request_id for r in served),
                                   np.int64, n),
            arrival_s=np.fromiter((r.arrival_s for r in served),
                                  np.float64, n),
            start_s=np.fromiter((r.start_s for r in served),
                                np.float64, n),
            finish_s=np.fromiter((r.finish_s for r in served),
                                 np.float64, n),
            prompt_tokens=np.fromiter((r.prompt_tokens for r in served),
                                      np.int64, n),
            output_tokens=np.fromiter((r.output_tokens for r in served),
                                      np.int64, n),
            deadline_s=np.fromiter(
                (r.deadline_s if r.deadline_s is not None else np.nan
                 for r in served), np.float64, n),
            deadline_mask=np.fromiter(
                (r.deadline_s is not None for r in served), bool, n),
        ))
    return assemble_trace_report(report.policy, report.offered,
                                 report.shed, report.failed, rows)
