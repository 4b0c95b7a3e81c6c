"""One simulated edge box behind the fleet gateway.

A :class:`FleetDevice` wraps a per-device
:class:`~repro.engine.server.ServingSimulator` — heterogeneous in model,
quantization (via the model zoo's quantized variants), power mode
(:meth:`SocSpec.at_mode`), thermal profile, and prefix-cache size — and
drives it through the incremental seam (:meth:`inject` /
:meth:`advance_to` / :meth:`crash` / :meth:`drain`) so the gateway can
co-simulate many devices against one global event timeline.

The device also answers the routing policies' questions: queue depth
and outstanding decode tokens for least-outstanding-work, a closed-form
completion estimate (built on
:meth:`~repro.hardware.kernels.KernelEngine.decode_span_seconds`) for
predicted-latency routing, and a coarse per-request energy estimate for
energy-aware routing.  Estimates price the device's *actual* scaled SoC,
so a 15W box is honestly slower and honestly cheaper per joule.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.engine import InferenceEngine
from repro.engine.prefix_cache import PrefixCache
from repro.engine.request import GenerationRequest
from repro.engine.server import (
    ResilienceReport,
    ServingSimulator,
    _ServingRun,
)
from repro.hardware.soc import PowerMode, jetson_orin_agx_64gb
from repro.models.registry import get_model

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.hardware.thermal import ThermalConfig


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one fleet device."""

    name: str
    model: str = "dsr1-qwen-1.5b"
    #: A :class:`~repro.hardware.soc.PowerMode` value ("15W", "30W",
    #: "50W", "MAXN").
    power_mode: str = "MAXN"
    max_batch_size: int = 8
    #: Per-device admission policy ("fcfs" or "edf").
    policy: str = "fcfs"
    #: Prefix-cache KV budget in MB; 0 disables prefix caching.
    prefix_cache_mb: float = 0.0
    thermal: "ThermalConfig | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name must be non-empty")
        PowerMode(self.power_mode)  # raises ValueError on unknown modes
        if self.prefix_cache_mb < 0:
            raise ValueError("prefix_cache_mb must be non-negative")

    @property
    def label(self) -> str:
        """Compact display label, e.g. ``dsr1-qwen-1.5b@30W``."""
        return f"{self.model}@{self.power_mode}"


class _DeviceRun(_ServingRun):
    """A device's incremental serving run with prefix-aware prefill.

    Sticky sessions routed here repeatedly hit this device's
    :class:`~repro.engine.prefix_cache.PrefixCache`: a warm prefix
    prefills only the unshared suffix (the prefix's KV residency is
    accounted by the cache's byte budget, separately from the paged
    decode KV pool).
    """

    def __init__(self, sim: ServingSimulator,
                 prefix_cache: PrefixCache | None = None):
        super().__init__(sim)
        self._prefix_cache = prefix_cache
        self._prefix_info: dict[int, tuple[str, int]] = {}
        self.prefix_hits = 0
        self.prefix_misses = 0

    def note_session(self, request: GenerationRequest,
                     session: str | None, prefix_tokens: int) -> None:
        """Record a request's session identity for prefix lookup."""
        if session is not None and prefix_tokens > 0:
            self._prefix_info[request.request_id] = (session, prefix_tokens)

    def _prefill_cost(self, request: GenerationRequest) -> tuple[float, float]:
        if self._prefix_cache is None:
            return super()._prefill_cost(request)
        info = self._prefix_info.get(request.request_id)
        if info is None:
            return super()._prefill_cost(request)
        session, prefix_tokens = info
        prefix = min(prefix_tokens, request.prompt_tokens - 1)
        if prefix <= 0:
            return super()._prefill_cost(request)
        if self._prefix_cache.reuse(session, prefix):
            self.prefix_hits += 1
            return self.sim.pricing.prefill(request.prompt_tokens, prefix)
        self.prefix_misses += 1
        return super()._prefill_cost(request)


class FleetDevice:
    """One edge box: an engine-backed simulator plus gateway hooks."""

    def __init__(self, spec: DeviceSpec, *,
                 faults: "FaultInjector | None" = None):
        self.spec = spec
        self.name = spec.name
        self._faults = faults
        self._build(spec.power_mode, "auto")
        prefix_cache = None
        if spec.prefix_cache_mb > 0:
            prefix_cache = PrefixCache(
                capacity_bytes=spec.prefix_cache_mb * 1e6,
                kv_bytes_per_token=self.engine.model.kv_bytes_per_token)
        self.run = _DeviceRun(self.simulator, prefix_cache=prefix_cache)
        self.crashes = 0
        self.evacuated = 0
        self.dvfs_switches = 0
        self._down_until: float | None = None

    def _build(self, power_mode: str, serving_mode: str) -> None:
        """(Re)build the engine and simulator at ``power_mode``."""
        mode = PowerMode(power_mode)  # raises ValueError on unknown modes
        soc = jetson_orin_agx_64gb()
        if mode is not PowerMode.MAXN:
            soc = soc.at_mode(mode)
        self.engine = InferenceEngine(get_model(self.spec.model), soc=soc)
        self.simulator = ServingSimulator(
            self.engine, max_batch_size=self.spec.max_batch_size,
            policy=self.spec.policy, faults=self._faults,
            thermal=self.spec.thermal, mode=serving_mode)

    def set_power_mode(self, power_mode: str) -> None:
        """DVFS: rebuild the engine at ``power_mode`` on an idle device.

        Mid-batch frequency switching would corrupt span pricing, so
        the switch is only legal with zero outstanding work — the
        autoscale controller honors that by only emitting switches
        (downshift or upshift) for idle actives.  Served history,
        the device clock, energy, and the prefix cache all survive the
        swap; only the pricing changes, to the new mode's process-wide
        shared memo (:meth:`~repro.engine.pricing.Pricing.shared`), so
        a switch back finds the old mode's prices still memoized.
        """
        if self.outstanding_requests:
            raise RuntimeError(
                f"device {self.name!r} holds outstanding work; "
                "a DVFS switch requires an idle device")
        if power_mode == self.spec.power_mode:
            return
        self._build(power_mode, self.simulator.mode)
        run = self.run
        run.sim = self.simulator
        run.engine = self.engine
        run.kv = self.simulator.kv_cache
        self.spec = dataclasses.replace(self.spec, power_mode=power_mode)
        self.dvfs_switches += 1

    @property
    def vector_eligible(self) -> bool:
        """Whether this device can run on the vector fast path.

        Requires an eligible simulator configuration (no faults,
        thermal model, degradation policy, or power noise) and a fresh
        run (nothing injected or executed yet through the incremental
        seam).  A prefix cache is allowed: the vector core replicates
        prefix-aware admission against a clone of the device's cache.
        """
        return (self.simulator.vector_eligible()
                and self.run._next_index == 0
                and self.run.now == 0.0)

    # -- availability ---------------------------------------------------
    def is_down(self, t: float) -> bool:
        """Whether the device is crashed at time ``t``."""
        return self._down_until is not None and t < self._down_until

    def down_until(self) -> float:
        """Recovery time of the current/last crash (0.0 if never down)."""
        return self._down_until if self._down_until is not None else 0.0

    # -- gateway driving ------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Run this device's simulator up to global time ``t``."""
        if self.is_down(t):
            return  # dead: evacuated on crash, nothing to run
        self.run.run_until(t)

    def inject(self, request: GenerationRequest, arrival_s: float,
               deadline_s: float | None = None,
               ready_s: float | None = None,
               session: str | None = None,
               prefix_tokens: int = 0) -> None:
        """Route one request to this device."""
        self.run.note_session(request, session, prefix_tokens)
        self.run.inject(request, arrival_s, deadline_s=deadline_s,
                        ready_s=ready_s)

    def crash(self, t: float, until: float
              ) -> list[tuple[GenerationRequest, object]]:
        """Take the device down from ``t`` until ``until``.

        Returns the orphaned (request, state) pairs for the gateway to
        re-route; the device clock jumps to the recovery time (no energy
        accrues while dead).  A crash landing on an already-down device
        just extends the outage.
        """
        self.crashes += 1
        if self.is_down(t):
            self._down_until = max(self.down_until(), until)
            if (math.isfinite(self._down_until)
                    and self.run.now < self._down_until):
                self.run.now = self._down_until
            return []
        orphans = self.run.evacuate()
        self.evacuated += len(orphans)
        self._down_until = until
        # A permanent outage (until=inf) must not poison the device
        # clock; the device simply stays down forever.
        if math.isfinite(until) and self.run.now < until:
            self.run.now = until
        return orphans

    def cancel(self, request_id: int) -> bool:
        """Withdraw an unfinished hedge copy of ``request_id``.

        Delegates to the serving run's cancellation seam: live decode
        state is released, queued copies are removed, and no terminal
        counter moves — the other copy's completion is the request's
        one outcome.  Decode tokens already produced here stay priced
        in this device's clock and energy (hedging's honest cost).
        """
        return self.run.cancel(request_id)

    def drain(self) -> None:
        """Run every remaining injected request to completion."""
        self.run.drain()

    def release(self) -> None:
        """Return KV resources after the fleet run finishes."""
        self.run.release()

    def report(self) -> ResilienceReport:
        """This device's serving report."""
        return self.run.report()

    # -- routing-policy signals -----------------------------------------
    @property
    def outstanding_requests(self) -> int:
        """Requests on this device not yet finished (live + queued)."""
        run = self.run
        return len(run.live) + len(run.ready) + len(run.pending)

    def outstanding_decode_tokens(self) -> int:
        """Decode tokens this device still owes its current work: the
        ``remaining`` of each live sequence plus the stop length of each
        queued request, read in O(1) from the run's backlog counter."""
        return self.run.decode_backlog

    def predicted_completion_s(self, request: GenerationRequest,
                               t: float) -> float:
        """Closed-form ETA (seconds after ``t``) if routed here now.

        Coarse by design: backlog decode is priced as one
        :meth:`decode_span_seconds` call at the predicted concurrency,
        then the request's own prefill + decode span on top.  Power-mode
        derating is inherent — the device's kernels price its scaled SoC.
        """
        run = self.run
        profile = self.engine.profile
        kernels = self.engine.kernels
        queue = self.outstanding_requests
        batch = float(min(self.spec.max_batch_size, queue + 1))
        eta = max(run.now - t, 0.0)
        if self.is_down(t):
            eta = max(eta, self.down_until() - t)
        backlog = self.outstanding_decode_tokens()
        if backlog > 0:
            per_seq = max(int(math.ceil(backlog / batch)), 1)
            eta += kernels.decode_span_seconds(
                profile, request.prompt_tokens, per_seq, batch=batch)
        stop = max(request.stop_lengths())
        eta += kernels.prefill(profile, request.prompt_tokens).seconds
        eta += kernels.decode_span_seconds(
            profile, request.prompt_tokens, stop, batch=batch)
        return eta

    def predicted_energy_j(self, request: GenerationRequest,
                           t: float) -> float:
        """Coarse per-request service energy if routed here now.

        Service seconds times this request's *share* of decode power at
        the predicted concurrency — low-power modes win when their
        longer spans are outweighed by lower watts, which is exactly the
        energy/latency tension the policy should express.
        """
        profile = self.engine.profile
        kernels = self.engine.kernels
        queue = self.outstanding_requests
        batch = float(min(self.spec.max_batch_size, queue + 1))
        stop = max(request.stop_lengths())
        span = kernels.decode_span_seconds(
            profile, request.prompt_tokens, stop, batch=batch)
        watts_share = float(self.engine.power.decode_power(
            max(stop / 2.0, 1.0), batch)) / batch
        prefill = kernels.prefill(profile, request.prompt_tokens)
        prefill_w = self.engine.power.prefill_power(request.prompt_tokens)
        return prefill.seconds * prefill_w + span * watts_share
