"""Fleet-level aggregation of per-device serving reports.

A :class:`FleetReport` merges each device's
:class:`~repro.engine.server.ResilienceReport` into fleet SLO
attainment, energy, throughput, and cost-per-Mtok, plus the gateway's
crash/re-route accounting.  :meth:`FleetReport.to_json` renders a
canonical byte-stable JSON document — the artifact the chaos and
determinism gates compare byte-for-byte across reruns, device
construction orders, and pipeline executors.

Conservation note: a request evacuated from a crashed device appears in
*two* devices' ``offered`` counts (each run saw it), but terminal
outcomes — served, shed, failed — happen exactly once, so
``lost = offered - completed - shed - failed`` is well-defined at the
fleet level and the chaos gate pins it at zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from repro.core.cost import CostModel
from repro.core.stats import nan_percentile, slo_attainment
from repro.engine.server import ResilienceReport, ServedRequest
from repro.fleet.autoscale import AutoscaleReport


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
    def served(self) -> tuple[ServedRequest, ...]:
        """Every completed request across the fleet, by request id.

        Deduplicated on request id keeping the earliest finish: with
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
        return tuple(sorted(merged.values(), key=lambda r: r.request_id))

    @property
    def completed(self) -> int:
        """Requests fully served somewhere in the fleet."""
        return len(self.served)

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

    @property
    def wallclock_s(self) -> float:
        """Fleet makespan: the last device clock."""
        return max((d.report.wallclock_s for d in self.devices), default=0.0)

    @property
    def device_seconds(self) -> float:
        """Summed per-device occupancy (the hardware-amortization base)."""
        return sum(d.report.wallclock_s for d in self.devices)

    @property
    def energy_joules(self) -> float:
        """Total energy across the fleet."""
        return sum(d.report.energy_joules for d in self.devices)

    @property
    def total_tokens(self) -> int:
        """Prompt + generated tokens across all served requests."""
        return sum(r.prompt_tokens + r.output_tokens for r in self.served)

    @property
    def total_output_tokens(self) -> int:
        """Generated tokens across all served requests."""
        return sum(r.output_tokens for r in self.served)

    @property
    def tokens_per_second(self) -> float:
        """Aggregate decode throughput over the fleet makespan."""
        if self.wallclock_s <= 0:
            return 0.0
        return self.total_output_tokens / self.wallclock_s

    @property
    def achieved_qps(self) -> float:
        """Completed requests per second of fleet makespan."""
        if self.wallclock_s <= 0:
            return 0.0
        return self.completed / self.wallclock_s

    @property
    def energy_per_request_j(self) -> float:
        """Mean energy per completed request (nan when none completed)."""
        if not self.completed:
            return float("nan")
        return self.energy_joules / self.completed

    def latency_percentile(self, q: float) -> float:
        """Fleet end-to-end latency percentile (nan when none served)."""
        return nan_percentile([r.latency_s for r in self.served], q)

    @property
    def deadline_hit_rate(self) -> float:
        """Fleet SLO attainment over the offered deadline population.

        Counts on-time completions over every deadline-carrying request
        that reached a terminal outcome — served late, shed, or failed
        all count against the fleet, mirroring
        :attr:`ResilienceReport.deadline_hit_rate`'s honesty rule.
        """
        with_deadlines = [r for r in self.served if r.deadline_s is not None]
        return slo_attainment(
            sum(bool(r.met_deadline) for r in with_deadlines),
            len(with_deadlines),
            sum(d.report.unserved_with_deadline for d in self.devices),
            len(self.served))

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

        def num(value: float) -> float | str:
            return "nan" if isinstance(value, float) and math.isnan(
                value) else value

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
            "deadline_hit_rate": num(self.deadline_hit_rate),
            "p50_latency_s": num(self.latency_percentile(50)),
            "p95_latency_s": num(self.latency_percentile(95)),
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
