"""The fleet gateway: global event loop plus pluggable routing.

The gateway co-simulates N :class:`~repro.fleet.device.FleetDevice`
instances against one merged event timeline.  Global events — request
arrivals and scheduled device outages (crashes and flap cycles) — are
processed in time order; before each event every device is advanced to
the event time through the incremental serving seam (``run_until``),
then the event either routes a request or downs a device (evacuating
its in-flight work for immediate re-routing, with the original arrival
time and deadline preserved and a small re-dispatch backoff added).
After the last event, every device drains to completion.

Self-healing (this layer's additions over plain routing):

* **Health model** — a :class:`~repro.fleet.health.DeviceHealth` per
  device folds heartbeats, completion-latency EWMAs, and failures into
  a per-device circuit breaker; routing skips devices whose breaker is
  open.  Breakers *shift* load — if every breaker rejects, routing
  falls back to all up devices rather than manufacturing an outage.
* **Brownout admission** — when constructed with a
  :class:`~repro.fleet.brownout.BrownoutConfig`, arrivals pass the
  tier ladder: token-budget trims, preference for quantized downgrade
  models, then explicit gateway shed.
* **Hedging** — with a :class:`HedgeConfig`, in-flight requests older
  than a multiple of the fleet latency EWMA are duplicated onto the
  healthiest other replica; the first copy to finish wins and the
  others are cancelled through the serving run's cancellation seam.
  Decode tokens burned by losing copies stay in the device energy
  totals, so hedging is priced honestly.
* **Bounded retries** — each request survives at most ``max_reroutes``
  crash evacuations; past the cap it is recorded as ``failed`` rather
  than retried forever.
* **Autoscaling** — with an
  :class:`~repro.fleet.autoscale.AutoscaleConfig`, a lifecycle
  controller evaluates on synthetic tick events merged into the
  timeline: it drains and sleeps idle devices (cordoned devices accept
  no new routes; leftovers past the drain grace are evacuated and
  re-routed), cold-wakes sleepers before the brownout ladder engages,
  and DVFS-switches idle actives — pricing the idle/sleep/wake floor
  against the always-on fleet in ``FleetReport.autoscale``.

Accounting: the gateway assigns every offered request exactly one
terminal *disposition* — served, shed, or failed — so the conservation
invariant ``offered == completed + shed + failed`` holds even with
hedged duplicates in flight (duplicate completions are deduplicated by
request id in :class:`~repro.fleet.report.FleetReport`).  A permanent
whole-fleet outage (every device down with no finite recovery) sheds
instead of parking, so kill-all schedules terminate cleanly.

Determinism: devices are iterated in sorted-name order everywhere, every
policy breaks ties on the device name, prefix affinity uses rendezvous
hashing over ``sha256(session:name)``, breaker probe jitter comes from
per-device seeded RNGs, and nothing reads a wall clock or unseeded RNG —
so the same stream, fleet, and fault schedule reproduce a byte-identical
:class:`~repro.fleet.report.FleetReport` regardless of device
construction order or process boundaries.

Epoch granularity: a device decoding an atomic multi-token epoch may
overshoot an event time slightly; an outage or cancellation then takes
effect at that epoch boundary.  This is deterministic and mirrors real
engines, which cannot abort mid-kernel.

Hot path: the scalar event loop memoizes everything that only changes
on *topology events* — the up/routable device views and the
prefix-affinity session winners are cached behind a monotone topology
version (bumped on crashes, breaker transitions, and probe-slot
consumption, with a time-based expiry for outage recoveries and breaker
cool-downs), rendezvous digests are cached per (session, device), a
gateway-maintained outstanding counter replaces the full-fleet pressure
scan, and the per-event advance/poll sweep skips idle devices (exact:
``run_until`` is a no-op without work, and new outcome records require
the device to have run).  It is the gateway's only per-event loop:
plain streams and tiered DAG runs pop the same event heap, a tiered
run adding its job-admission arrival handler, a settle step that
releases unblocked DAG stages after each event, and its tick source.
Population-scale streams bypass the per-event loop entirely:
:meth:`FleetGateway.run_trace` partitions a chunked column trace
(round-robin or prefix-affinity) and drains each share on the
array-backed vector core, reporting through the column-native
:class:`~repro.fleet.trace.FleetTraceReport`.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.engine.request import GenerationRequest
from repro.engine.server import SERVING_MODES
from repro.engine.state import RequestArrays
from repro.engine.vector_run import VectorFallback, VectorServingRun
from repro.faults.injector import FleetFaultSchedule
from repro.fleet.autoscale import (
    AutoscaleConfig,
    AutoscaleController,
    LifecycleState,
)
from repro.fleet.brownout import BrownoutConfig, BrownoutController
from repro.fleet.device import FleetDevice
from repro.fleet.health import BreakerState, DeviceHealth, HealthConfig
from repro.fleet.report import DeviceOutcome, FleetReport
from repro.fleet.trace import (
    FleetTraceReport,
    TraceDeviceData,
    assemble_trace_report,
    trace_report_from_fleet,
)

#: The pluggable routing policies.
ROUTING_POLICIES = ("round-robin", "least-outstanding", "latency-aware",
                    "energy-aware", "prefix-affinity")


@dataclass(frozen=True)
class FleetRequest:
    """One request offered to the gateway."""

    request: GenerationRequest
    arrival_s: float
    deadline_s: float | None = None
    #: Sticky-session key for prefix affinity (None = stateless).
    session: str | None = None
    #: Tokens of the session's shared prompt prefix.
    prefix_tokens: int = 0


@dataclass(frozen=True)
class HedgeConfig:
    """Knobs for tail-latency request hedging."""

    #: Minimum in-flight age before a request may be hedged (s).
    min_age_s: float = 8.0
    #: Hedge when age exceeds this multiple of the latency EWMA.
    age_factor: float = 3.0
    #: Duplicates allowed per request.
    max_hedges: int = 1
    #: EWMA smoothing for the gateway's fleet latency estimate.
    ewma_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.min_age_s <= 0:
            raise ValueError("min_age_s must be positive")
        if self.age_factor < 1.0:
            raise ValueError("age_factor must be at least 1")
        if self.max_hedges < 1:
            raise ValueError("max_hedges must be at least 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")


class FleetGateway:
    """Routes a request stream across a fleet of edge devices."""

    def __init__(self, devices: "list[FleetDevice] | tuple[FleetDevice, ...]",
                 policy: str = "round-robin", *,
                 faults: FleetFaultSchedule | None = None,
                 reroute_backoff_s: float = 0.05,
                 max_reroutes: int = 3,
                 health: HealthConfig | None = None,
                 brownout: BrownoutConfig | None = None,
                 hedge: HedgeConfig | None = None,
                 autoscale: AutoscaleConfig | None = None,
                 drain_tick_s: float = 0.5,
                 drain_limit_s: float = 600.0,
                 seed: int = 0,
                 mode: str = "auto"):
        if not devices:
            raise ValueError("a fleet needs at least one device")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {ROUTING_POLICIES}")
        if mode not in SERVING_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {SERVING_MODES}")
        if reroute_backoff_s < 0:
            raise ValueError("reroute_backoff_s must be non-negative")
        if max_reroutes < 0:
            raise ValueError("max_reroutes must be non-negative")
        if drain_tick_s <= 0:
            raise ValueError("drain_tick_s must be positive")
        if drain_limit_s <= 0:
            raise ValueError("drain_limit_s must be positive")
        self.devices = tuple(sorted(devices, key=lambda d: d.name))
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ValueError("device names must be unique")
        self._by_name = {d.name: d for d in self.devices}
        self.policy = policy
        self.faults = faults
        self.reroute_backoff_s = reroute_backoff_s
        self.max_reroutes = max_reroutes
        self.hedge = hedge
        self.mode = mode
        #: Core that executed the most recent :meth:`run` ("scalar" or
        #: "vector"); None before the first run.
        self.last_mode: str | None = None
        self._health_config = health
        self.drain_tick_s = drain_tick_s
        self.drain_limit_s = drain_limit_s
        self.health = {d.name: DeviceHealth(d.name, health, seed=seed)
                       for d in self.devices}
        self.brownout = (BrownoutController(brownout)
                         if brownout is not None else None)
        #: The lifecycle controller (None keeps every legacy code path
        #: untouched — reports stay byte-identical without it).
        self.autoscale = (AutoscaleController(
            names, autoscale,
            idle_power_w={d.name: float(d.engine.power.idle_power())
                          for d in self.devices},
            power_modes={d.name: d.spec.power_mode for d in self.devices},
            capacity={d.name: float(d.spec.max_batch_size)
                      for d in self.devices})
            if autoscale is not None else None)
        self.rerouted = 0
        self.gateway_shed = 0
        self.gateway_failed = 0
        self.hedged = 0
        self.hedge_wins = 0
        self._rr_next = 0
        self._session_of: dict[int, tuple[str | None, int]] = {}
        #: request id -> terminal disposition ("served"/"shed"/"failed").
        self._disposition: dict[int, str] = {}
        #: request id -> device names currently holding a live copy.
        self._copies: dict[int, set[str]] = {}
        self._hedge_count: dict[int, int] = {}
        self._hedge_target: dict[int, str] = {}
        self._attempts: dict[int, int] = {}
        self._arrival: dict[int, float] = {}
        self._deadline: dict[int, float | None] = {}
        self._request_of: dict[int, GenerationRequest] = {}
        self._latency_ewma: float | None = None
        self._served_cursor = {name: 0 for name in names}
        self._dropped_cursor = {name: 0 for name in names}
        # Monotone topology stamp: any availability, breaker, or
        # probe-budget change bumps it, invalidating the cached
        # up/routable views.  Time-driven flips (outage recovery,
        # breaker cool-down expiry) are handled by each cache's expiry.
        self._topo_version = 0
        self._up_cache: tuple[int, float, list[FleetDevice]] | None = None
        self._pool_cache: tuple[int, float, list[FleetDevice]] | None = None
        #: sha256 rendezvous digests per (session, device name).
        self._rdv_cache: dict[tuple[str, str], int] = {}
        #: Per-session rendezvous winners over the *current* routable
        #: pool; cleared whenever the pool's membership changes.
        self._affinity_winner: dict[str, FleetDevice] = {}
        self._affinity_pool: tuple[str, ...] | None = None
        # Gateway-maintained outstanding-work counters (inject/terminal
        # record/cancel/evacuate deltas) replacing the full-fleet
        # pressure scan; ``_maybe_down`` tracks devices that were handed
        # work while down (parked arrivals), whose holdings must not
        # count toward up-capacity pressure.
        self._outstanding = {name: 0 for name in names}
        self._outstanding_total = 0
        self._maybe_down: set[str] = set()
        self._full_capacity = sum(d.spec.max_batch_size
                                  for d in self.devices)
        self._name_bytes = tuple(d.name.encode() for d in self.devices)
        # Tiered-DAG state: None/empty on every untiered run, so the
        # hot paths below stay byte-identical to the pre-tiering
        # gateway.  ``_dag`` is the run's DAG coordinator;
        # ``_tier_pref`` maps a child request id to its stage's
        # preferred model pool; ``_tier_out_tokens`` feeds budget
        # refunds.
        self._dag = None
        self._tier_pref: dict[int, tuple[str, ...]] = {}
        self._tier_out_tokens: dict[int, int] = {}

    # -- routing --------------------------------------------------------
    def _topo_bump(self) -> None:
        """Invalidate the cached topology views (membership changed)."""
        self._topo_version += 1

    def _up(self, t: float) -> list[FleetDevice]:
        cache = self._up_cache
        if (cache is not None and cache[0] == self._topo_version
                and t < cache[1]):
            return cache[2]
        up = [d for d in self.devices if not d.is_down(t)]
        expiry = math.inf
        if len(up) != len(self.devices):
            # A down device rejoins at its recovery time; the cached
            # view must expire there (is_down is strict: up at
            # t == down_until, hence the strict t < expiry validity).
            for d in self.devices:
                if d.is_down(t):
                    until = d.down_until()
                    if math.isfinite(until):
                        expiry = min(expiry, until)
        self._up_cache = (self._topo_version, expiry, up)
        return up

    def _routable_scan(self, t: float, up: "list[FleetDevice]"
                       ) -> list[FleetDevice]:
        """One uncached routable computation (what the cache must equal)."""
        if self.autoscale is not None:
            # Lifecycle filter: cordoned/draining/asleep/waking devices
            # accept no new routes (the emergency paths in _pick wake
            # or reactivate capacity when this empties the pool).
            up = [d for d in up if self.autoscale.accepts_routes(d.name)]
        fit = [d for d in up if self.health[d.name].routable(t)]
        pool = fit or up
        if self.brownout is not None and self.brownout.prefers_downgrade():
            downgrade = [d for d in pool if d.spec.model
                         in self.brownout.config.downgrade_models]
            if downgrade:
                return downgrade
        return pool

    def _routable(self, t: float) -> list[FleetDevice]:
        """Up devices the breakers admit, with brownout steering.

        Breakers shift load, never black out the fleet: when every up
        device's breaker rejects, routing falls back to all up devices.

        The pool is cached behind the topology version: breaker
        admission only changes on transitions or probe-slot consumption
        (both bump the version) or when an OPEN cool-down expires (a
        time expiry).  Brownout steering and the autoscale lifecycle
        filter read controller state that moves without topology
        events, so those configurations keep the per-call scan.
        """
        if self.brownout is not None or self.autoscale is not None:
            return self._routable_scan(t, self._up(t))
        cache = self._pool_cache
        if (cache is not None and cache[0] == self._topo_version
                and t < cache[1]):
            return cache[2]
        up = self._up(t)
        expiry = self._up_cache[1]
        fit = []
        for d in up:
            breaker = self.health[d.name].breaker
            if breaker.admits(t):
                fit.append(d)
            elif breaker.state is BreakerState.OPEN:
                # The cool-down's expiry re-admits this device; the
                # rebuild at that first post-expiry event performs the
                # OPEN -> HALF_OPEN transition exactly where the
                # uncached scan would have.
                expiry = min(expiry, breaker._probe_until)
        pool = fit or up
        names = tuple(d.name for d in pool)
        if names != self._affinity_pool:
            self._affinity_pool = names
            self._affinity_winner.clear()
        self._pool_cache = (self._topo_version, expiry, pool)
        return pool

    @staticmethod
    def _rendezvous_digest(session: str, name: str) -> int:
        digest = hashlib.sha256(f"{session}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def _rendezvous_weight(self, session: str, name: str) -> int:
        """Rendezvous weight with per-(session, device) digest caching.

        A sticky session re-presents the same (session, name) pairs on
        every turn; the digest is a pure function of the pair, so
        repeat turns cost a dict hit instead of a sha256.
        """
        key = (session, name)
        weight = self._rdv_cache.get(key)
        if weight is None:
            weight = self._rendezvous_digest(session, name)
            self._rdv_cache[key] = weight
        return weight

    def _pick(self, freq: FleetRequest, t: float) -> FleetDevice | None:
        """The policy's choice of device for one request at time ``t``.

        Returns None only when every device is down with no finite
        recovery time (a permanent whole-fleet outage): the caller must
        shed with an explicit disposition instead of parking forever.
        """
        if not self._up(t):
            return self._park_target()
        up = self._routable(t)
        if self.autoscale is not None and not up:
            return self._autoscale_emergency(t) or self._park_target()
        if self._tier_pref:
            # Tiered stage steering: Deep stages prefer the big-model
            # devices, Fast stages the quantized replicas.  A soft
            # preference — when no preferred device is routable the
            # whole pool serves, so availability beats affinity.
            pref = self._tier_pref.get(freq.request.request_id)
            if pref:
                preferred = [d for d in up if d.spec.model in pref]
                if preferred:
                    up = preferred
        if self.policy == "round-robin":
            device = up[self._rr_next % len(up)]
            self._rr_next += 1
            return device
        if self.policy == "least-outstanding":
            return min(up, key=lambda d: (d.outstanding_requests,
                                          d.outstanding_decode_tokens(),
                                          d.name))
        if self.policy == "latency-aware":
            return min(up, key=lambda d: (
                d.predicted_completion_s(freq.request, t), d.name))
        if self.policy == "energy-aware":
            return min(up, key=lambda d: (
                d.predicted_energy_j(freq.request, t), d.name))
        # prefix-affinity: rendezvous hash pins a session to one device
        # (stable under fleet changes); stateless requests balance.
        if freq.session is not None:
            if (self.brownout is not None or self.autoscale is not None
                    or self._dag is not None):
                return max(up, key=lambda d: (
                    self._rendezvous_weight(freq.session, d.name), d.name))
            # The winner over a given pool is a pure function of the
            # session; the memo is cleared whenever the cached pool's
            # membership changes, so hits are exact.
            device = self._affinity_winner.get(freq.session)
            if device is None:
                device = max(up, key=lambda d: (
                    self._rendezvous_weight(freq.session, d.name), d.name))
                self._affinity_winner[freq.session] = device
            return device
        return min(up, key=lambda d: (d.outstanding_requests, d.name))

    def _park_target(self) -> FleetDevice | None:
        """The earliest-recovering device, or None if none recovers."""
        recovering = [d for d in self.devices
                      if math.isfinite(d.down_until())]
        if not recovering:
            return None
        return min(recovering, key=lambda d: (d.down_until(), d.name))

    def _autoscale_emergency(self, t: float) -> FleetDevice | None:
        """Produce capacity when no ACTIVE device is up.

        The ladder is cheapest-first: reactivate a cordoned/draining
        device, queue on an already-waking one, then cold-wake a
        sleeper (bypassing the hysteresis holds — an outage is not a
        flap).  Returns None only when every non-asleep device is down
        and no healthy sleeper exists.
        """
        ctrl = self.autoscale
        down = frozenset(d.name for d in self.devices if d.is_down(t))
        name = ctrl.emergency_activate(t, down)
        if name is not None:
            return self._by_name[name]
        waking = [d for d in self.devices
                  if d.name not in down
                  and ctrl.state(d.name) is LifecycleState.WAKING]
        if waking:
            return min(waking, key=lambda d: (ctrl.wake_ready_s(d.name),
                                              d.name))
        name = ctrl.emergency_wake(t, down)
        if name is not None:
            return self._by_name[name]
        return None

    def _route(self, freq: FleetRequest, t: float,
               ready_s: float | None = None) -> FleetDevice | None:
        device = self._pick(freq, t)
        rid = freq.request.request_id
        if device is None:
            self._finish(rid, "shed")
            return None
        self._consume_probe(device.name, t)
        ready = ready_s
        if device.is_down(t):
            # Queued behind the outage; admission starts at recovery.
            # The parked work must not count toward up-capacity
            # pressure while the device stays down.
            self._maybe_down.add(device.name)
            ready = max(ready if ready is not None else t, device.down_until())
        if (self.autoscale is not None
                and self.autoscale.state(device.name)
                is LifecycleState.WAKING):
            # Queued behind the cold start; admission at wake-ready.
            ready = max(ready if ready is not None else t,
                        self.autoscale.wake_ready_s(device.name))
        device.inject(freq.request, freq.arrival_s,
                      deadline_s=freq.deadline_s, ready_s=ready,
                      session=freq.session, prefix_tokens=freq.prefix_tokens)
        self._count(device.name, 1)
        self._arrival.setdefault(rid, freq.arrival_s)
        self._deadline.setdefault(rid, freq.deadline_s)
        self._request_of[rid] = freq.request
        self._copies.setdefault(rid, set()).add(device.name)
        return device

    def _consume_probe(self, name: str, t: float) -> None:
        """Admit one routed copy through the device's breaker."""
        breaker = self.health[name].breaker
        before = breaker.state
        breaker.allow(t)
        if before is not BreakerState.CLOSED or breaker.state is not before:
            # A probe slot was consumed or the breaker transitioned:
            # the cached routable pool may no longer admit this device.
            self._topo_bump()

    # -- disposition accounting -----------------------------------------
    def _count(self, name: str, delta: int) -> None:
        """Move the outstanding-work counters behind :meth:`_pressure`."""
        self._outstanding[name] += delta
        self._outstanding_total += delta

    def _finish(self, rid: int, kind: str) -> None:
        """Record a request's gateway-level terminal disposition."""
        if rid in self._disposition:
            return
        self._disposition[rid] = kind
        if kind == "shed":
            self.gateway_shed += 1
        elif kind == "failed":
            self.gateway_failed += 1

    def _on_served(self, device: FleetDevice, record) -> None:
        rid = record.request_id
        self._count(device.name, -1)
        health = self.health[device.name]
        before = health.breaker.state
        health.observe_completion(record.finish_s, record.latency_s)
        if health.breaker.state is not before:
            self._topo_bump()
        alpha = self.hedge.ewma_alpha if self.hedge is not None else 0.2
        if self._latency_ewma is None:
            self._latency_ewma = record.latency_s
        else:
            self._latency_ewma = (alpha * record.latency_s
                                  + (1 - alpha) * self._latency_ewma)
        if self._disposition.get(rid) == "served":
            # The losing copy finished inside the same advance window
            # before it could be cancelled; dedup in FleetReport keeps
            # the first finish.
            self._copies.get(rid, set()).discard(device.name)
            return
        self._disposition[rid] = "served"
        if self._dag is not None:
            self._tier_out_tokens[rid] = int(record.output_tokens)
        if self._hedge_target.get(rid) == device.name:
            self.hedge_wins += 1
        copies = self._copies.pop(rid, set())
        copies.discard(device.name)
        for other in sorted(copies):
            if self._by_name[other].cancel(rid):
                self._count(other, -1)

    def _on_dropped(self, device: FleetDevice, rid: int, kind: str,
                    t: float) -> None:
        self._count(device.name, -1)
        health = self.health[device.name]
        before = health.breaker.state
        health.observe_failure(t)
        if health.breaker.state is not before:
            self._topo_bump()
        if self._orphaned(rid, device.name):
            # Terminal drop counted by the device's own report; record
            # the disposition without moving the gateway counters.
            self._disposition[rid] = "shed" if kind == "shed" else "failed"

    def _orphaned(self, rid: int, name: str) -> bool:
        """Drop ``name``'s copy of ``rid``; True if nothing else holds it."""
        copies = self._copies.get(rid)
        if copies is not None:
            copies.discard(name)
            if copies:
                return False  # a hedge copy survives elsewhere
        return rid not in self._disposition

    def _reroute(self, request: GenerationRequest, state, t: float) -> None:
        """Re-route an evacuated request after the re-dispatch backoff."""
        session, prefix = self._session_of.get(request.request_id,
                                               (None, 0))
        self._route(FleetRequest(request=request,
                                 arrival_s=state.first_arrival_s,
                                 deadline_s=state.deadline_s,
                                 session=session, prefix_tokens=prefix),
                    t, ready_s=t + self.reroute_backoff_s)

    def _poll(self, t: float) -> None:
        """Fold new per-device outcomes into health and dispositions."""
        for device in self.devices:
            self._fold(device, t)
            if not device.is_down(t):
                self.health[device.name].heartbeat(t)

    def _advance_all(self, t: float) -> None:
        """Advance every device to ``t``, poll, then consider hedges."""
        for device in self.devices:
            device.advance_to(t)
        self._poll(t)
        self._maybe_hedge(t)

    def _fold(self, device: FleetDevice, t: float) -> None:
        """Fold one device's new outcomes into health and dispositions.

        :meth:`_poll` adds a heartbeat; the fused sweep calls this alone
        right after advancing each busy device.  Dropping the heartbeat
        there is exact: only :meth:`DeviceHealth.score` reads
        heartbeats, and nothing in routing or reports reads the score.
        """
        run = device.run
        name = device.name
        start = self._served_cursor[name]
        if len(run.served) > start:
            for record in run.served[start:]:
                self._on_served(device, record)
            self._served_cursor[name] = len(run.served)
        start = self._dropped_cursor[name]
        if len(run.dropped) > start:
            for index, kind in run.dropped[start:]:
                self._on_dropped(device, run.requests[index].request_id,
                                 kind, t)
            self._dropped_cursor[name] = len(run.dropped)

    # -- brownout & hedging ---------------------------------------------
    def _pressure(self, t: float) -> float:
        """Outstanding work per unit of up-capacity (fleet batches).

        With autoscaling armed the capacity base is the *routable*
        (ACTIVE, up) devices only: sleeping capacity must not dilute
        the signal, or the controller would never wake it.  Outstanding
        work anywhere — including draining and waking devices — still
        counts as load.
        """
        up = self._up(t)
        if not up:
            return math.inf
        if self.autoscale is not None:
            active = [d for d in up
                      if self.autoscale.accepts_routes(d.name)]
            if not active:
                return math.inf
            capacity = sum(d.spec.max_batch_size for d in active)
            outstanding = sum(d.outstanding_requests for d in self.devices)
            return outstanding / capacity
        # Counter path: every inject/terminal-record/cancel/evacuate
        # moves the totals, and every call site runs post-poll, so the
        # counter equals the live per-device scan exactly.  Work parked
        # on still-down devices is excluded (pressure only sums up
        # devices); recovered parkees rejoin the total lazily.
        outstanding = self._outstanding_total
        for name in sorted(self._maybe_down):
            if self._by_name[name].is_down(t):
                outstanding -= self._outstanding[name]
            else:
                self._maybe_down.discard(name)
        capacity = (self._full_capacity if len(up) == len(self.devices)
                    else sum(d.spec.max_batch_size for d in up))
        return outstanding / capacity

    def _maybe_hedge(self, t: float) -> None:
        if self.hedge is None:
            return
        threshold = self.hedge.min_age_s
        if self._latency_ewma is not None:
            threshold = max(threshold,
                            self.hedge.age_factor * self._latency_ewma)
        for rid in sorted(self._copies):
            copies = self._copies[rid]
            if rid in self._disposition or not copies:
                continue
            if self._hedge_count.get(rid, 0) >= self.hedge.max_hedges:
                continue
            if t - self._arrival.get(rid, t) < threshold:
                continue
            candidates = [d for d in self._routable(t)
                          if d.name not in copies and not d.is_down(t)]
            if not candidates:
                continue
            device = min(candidates,
                         key=lambda d: (d.outstanding_requests, d.name))
            session, prefix = self._session_of.get(rid, (None, 0))
            device.inject(self._request_of[rid], self._arrival[rid],
                          deadline_s=self._deadline.get(rid), ready_s=t,
                          session=session, prefix_tokens=prefix)
            self._count(device.name, 1)
            self._consume_probe(device.name, t)
            copies.add(device.name)
            self._hedge_count[rid] = self._hedge_count.get(rid, 0) + 1
            self._hedge_target[rid] = device.name
            self.hedged += 1

    # -- autoscaling ------------------------------------------------------
    def _autoscale_tick(self, t: float) -> None:
        """One controller evaluation plus application of its actions."""
        ctrl = self.autoscale
        down = frozenset(d.name for d in self.devices if d.is_down(t))
        outstanding = {d.name: d.outstanding_requests
                       for d in self.devices}
        for action in ctrl.tick(t, self._pressure(t), down=down,
                                outstanding=outstanding):
            if action[0] == "evacuate":
                self._evacuate_drain(action[1], t)
            elif action[0] == "set_mode":
                _, name, mode = action
                device = self._by_name[name]
                if device.outstanding_requests:
                    # The controller only targets idle devices, but if
                    # its snapshot ever drifts from live state, defer:
                    # it re-emits on a later tick once the device
                    # drains rather than tripping set_power_mode's
                    # busy guard and killing the run.
                    continue
                device.set_power_mode(mode)
                ctrl.note_mode(t, name, mode, idle_power_w=float(
                    device.engine.power.idle_power()))

    def _evacuate_drain(self, name: str, t: float) -> None:
        """Move an expired drain's leftovers to the rest of the fleet.

        Unlike a crash evacuation this is *planned*: no health failure
        is recorded and no re-route attempt is consumed — the request
        did nothing wrong.  Dispositions are conserved because every
        orphan is re-injected through the normal routing path.
        """
        device = self._by_name[name]
        orphans = device.run.evacuate()
        self._count(name, -len(orphans))
        device.evacuated += len(orphans)
        self.autoscale.drain_evacuated(len(orphans))
        for request, state in orphans:
            if self._orphaned(request.request_id, name):
                self._reroute(request, state, t)

    # -- event handlers --------------------------------------------------
    def _on_down_event(self, fault, t: float) -> None:
        device = self._by_name.get(fault.device)
        if device is None:
            return  # schedule names a device not in this fleet
        self.health[device.name].observe_failure(t)
        orphans = device.crash(t, fault.end_s)
        self._count(device.name, -len(orphans))
        # Availability changed (and possibly breaker state, via the
        # per-orphan failure observations below, which run after this
        # bump — safe, because a down device is excluded from the pool
        # regardless of its breaker).
        self._topo_bump()
        if self.autoscale is not None:
            # A crash during DRAINING ends the drain (its orphans are
            # re-routed below through PR 5's evacuation path); a crash
            # during WAKING aborts the wake.
            self.autoscale.on_crash(t, device.name)
        for request, state in orphans:
            rid = request.request_id
            self.health[device.name].observe_failure(t)
            if not self._orphaned(rid, device.name):
                continue
            attempts = self._attempts.get(rid, 0) + 1
            self._attempts[rid] = attempts
            if attempts > self.max_reroutes:
                self._finish(rid, "failed")
                continue
            self.rerouted += 1
            self._reroute(request, state, t)

    def _on_arrival(self, freq: FleetRequest, t: float) -> None:
        rid = freq.request.request_id
        self._arrival[rid] = freq.arrival_s
        self._deadline[rid] = freq.deadline_s
        if self.brownout is not None:
            self.brownout.observe(t, self._pressure(t))
            if self.brownout.should_shed():
                self.brownout.shed += 1
                self._finish(rid, "shed")
                return
            trimmed = self.brownout.admit(freq.request)
            if trimmed is not freq.request:
                freq = dataclasses.replace(freq, request=trimmed)
        device = self._route(freq, t)
        if (device is not None and self.brownout is not None
                and self.brownout.prefers_downgrade()
                and device.spec.model
                in self.brownout.config.downgrade_models):
            self.brownout.downgraded += 1

    def _drain_all(self, t: float) -> float:
        """Run every device to completion after the last event.

        With brownout or hedging active the drain advances in fixed
        ticks so the controller observes the backlog clearing (tier
        recovery) and late hedges still fire; the loop is hard-bounded
        by ``drain_limit_s`` and then force-drains, so a sick fleet
        ends the run instead of deadlocking.
        """
        if (self.brownout is None and self.hedge is None
                and self.autoscale is None):
            for device in self.devices:
                device.drain()
            return max((d.run.now for d in self.devices), default=t)
        deadline = t + self.drain_limit_s
        while any(d.outstanding_requests for d in self.devices):
            if t >= deadline:
                for device in self.devices:
                    device.drain()
                break
            t += self.drain_tick_s
            self._advance_all(t)
            if self.brownout is not None:
                self.brownout.observe(t, self._pressure(t))
            if self.autoscale is not None:
                self._autoscale_tick(t)
        return max((d.run.now for d in self.devices), default=t)

    # -- the vector fast path --------------------------------------------
    def vector_eligible(self) -> bool:
        """Whether this gateway configuration admits the vector path.

        Round-robin routing is the one state-independent policy (every
        other policy reads live device state per arrival, which is
        inherently sequential), and no mid-stream event source may be
        armed: faults, brownout, and hedging all inject events the
        merged epoch loop cannot batch.  Every device must itself be
        vector-eligible.  Health breakers are allowed *statically* —
        with no failure source they can only trip on completion-latency
        spikes, which :meth:`_run_vector` detects dynamically and
        answers with a scalar fallback.
        """
        return (self.policy == "round-robin"
                and self.faults is None
                and self.brownout is None
                and self.hedge is None
                and self.autoscale is None
                and all(d.vector_eligible for d in self.devices))

    def _run_vector(self, stream: "list[FleetRequest] | tuple[FleetRequest, ...]"
                    ) -> FleetReport:
        """Batched fleet run: partition up front, drain per device.

        With round-robin routing and no faults the scalar event loop is
        exactly equivalent to assigning the k-th arrival (in arrival
        order, ties by stream position — the scalar sort) to the k-th
        device modulo the fleet, then letting each device drain its
        share independently: ``run_until`` segments compose bitwise when
        nothing is injected between them, so the per-arrival ping-pong
        of the scalar loop prices the very same epochs.  Each device
        then runs on the array-backed vector core.  Raises
        :class:`~repro.engine.vector_run.VectorFallback` (before any
        state is mutated — the vector core never touches the real
        allocator) if any device hits KV exhaustion, or if any served
        latency reaches the health model's spike threshold: past it the
        scalar loop's circuit breakers could leave CLOSED and start
        shifting load, so only the oracle is authoritative.  Below it
        the breakers provably never transition (there is no failure
        source), making the partition equivalence exact.
        """
        arrivals = sorted(enumerate(stream),
                          key=lambda pair: (pair[1].arrival_s, pair[0]))
        shares: list[list[FleetRequest]] = [[] for _ in self.devices]
        for k, (_, freq) in enumerate(arrivals):
            shares[k % len(self.devices)].append(freq)
        outcomes = []
        for device, share in zip(self.devices, shares):
            requests = [f.request for f in share]
            arrival_s = np.array([f.arrival_s for f in share],
                                 dtype=np.float64)
            deadlines = np.array(
                [f.deadline_s if f.deadline_s is not None else np.nan
                 for f in share], dtype=np.float64)
            mask = np.array([f.deadline_s is not None for f in share],
                            dtype=bool)
            report = VectorServingRun(device.simulator, requests,
                                      arrival_s, deadlines, mask).execute()
            spike_s = (self._health_config or HealthConfig()).latency_spike_s
            if any(r.latency_s >= spike_s for r in report.served):
                raise VectorFallback(
                    "completion latency reached the breaker spike "
                    "threshold; the scalar oracle owns breaker dynamics")
            outcomes.append(DeviceOutcome(
                name=device.name,
                model=device.spec.model,
                power_mode=device.spec.power_mode,
                report=report,
                crashes=0,
                evacuated=0,
                prefix_hits=0,
                prefix_misses=0,
            ))
        return FleetReport(
            policy=self.policy,
            offered=len(stream),
            rerouted=0,
            devices=tuple(outcomes),
        )

    # -- the population-scale trace driver -------------------------------
    def trace_eligible(self) -> bool:
        """Whether this configuration admits the vector trace driver.

        Wider than :meth:`vector_eligible` in one direction (the trace
        partition equivalence also covers ``prefix-affinity`` — the
        rendezvous winner is a pure function of the session, so the
        per-session partition is known up front) and narrower in none
        that matter at population scale: no mid-stream event source may
        be armed, and every device must be trace-eligible (fresh run,
        eligible simulator; a prefix cache is fine — the vector core
        replicates prefix-aware admission against it).
        """
        return (self.policy in ("round-robin", "prefix-affinity")
                and self.faults is None
                and self.brownout is None
                and self.hedge is None
                and self.autoscale is None
                and all(d.trace_eligible for d in self.devices))

    def run_trace(self, trace, chunk_size: int = 65536, *,
                  jobs: int = 1,
                  executor: str = "thread") -> FleetTraceReport:
        """Serve a population-scale column trace across the fleet.

        ``trace`` is a :class:`~repro.workloads.population.
        PopulationTrace` (chunked internally at ``chunk_size`` rows) or
        any iterable of :class:`~repro.workloads.population.TraceChunk`
        column slices with nondecreasing arrivals.  The driver holds
        only column arrays — bounded memory at any request count — and
        returns the column-native :class:`~repro.fleet.trace.
        FleetTraceReport`.  Chunking is a view decision: chunked and
        unchunked streams collect byte-identical columns, hence
        byte-identical reports.

        ``jobs`` > 1 drains the per-device partition shares
        concurrently on a ``"thread"`` or ``"process"`` ``executor``.
        Every share runs as a pure task on a fresh clone of its device
        (construction is deterministic), so serial, threaded, and
        multiprocess executions perform identical float work and
        render byte-identical reports — the executor choice is purely
        a wall-clock decision.

        Dispatch mirrors :meth:`run`: the vector partition path when
        ``mode`` allows and :meth:`trace_eligible` holds, with a scalar
        rerun (through :meth:`_run_scalar` on materialized requests —
        small traces only) on :class:`~repro.engine.vector_run.
        VectorFallback`; ``mode="scalar"`` forces the oracle and
        ``mode="vector"`` raises on ineligibility.  The clone-based
        shares leave this gateway's own devices untouched, so the
        fallback rerun starts from pristine state.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        chunks = (trace.chunks(chunk_size)
                  if hasattr(trace, "chunks") else trace)
        columns = self._collect_trace(chunks)
        if self.mode != "scalar":
            eligible = self.trace_eligible()
            if self.mode == "vector" and not eligible:
                raise ValueError(
                    "mode='vector' requires round-robin or "
                    "prefix-affinity routing with no faults, brownout, "
                    "hedging, autoscaling, or ineligible devices")
            if eligible:
                try:
                    report = self._run_trace_vector(columns, jobs,
                                                    executor)
                    self.last_mode = "vector"
                    return report
                except VectorFallback:
                    pass
        self.last_mode = "scalar"
        return trace_report_from_fleet(
            self._run_scalar(self._trace_stream(columns)))

    def _collect_trace(self, chunks) -> dict:
        """Fold a chunk stream into assignment-ready columns.

        One pass: validates ordering (arrivals nondecreasing within and
        across chunks) and deadline uniformity, and computes the
        per-request device assignment incrementally — round-robin is
        position mod fleet, prefix-affinity memoizes one rendezvous
        winner per distinct session id seen so far (``np.unique`` folds
        each chunk to its distinct sessions first, so sha256 work scales
        with sessions, not requests).
        """
        n_dev = len(self.devices)
        affinity = self.policy == "prefix-affinity"
        parts: list[list[np.ndarray]] = [[] for _ in range(7)]
        deadline: float | None = None
        first = True
        prev_last = -math.inf
        cursor = 0
        winners: dict[int, int] = {}
        for chunk in chunks:
            n = int(chunk.n)
            if n == 0:
                continue
            arrival = np.ascontiguousarray(chunk.arrival_s,
                                           dtype=np.float64)
            if float(arrival[0]) < prev_last or (
                    n > 1 and bool(np.any(np.diff(arrival) < 0))):
                raise ValueError(
                    "trace arrivals must be nondecreasing")
            prev_last = float(arrival[-1])
            if first:
                deadline = chunk.deadline_s
                first = False
            elif chunk.deadline_s != deadline:
                raise ValueError("all chunks must share one deadline_s")
            session = np.ascontiguousarray(chunk.session, dtype=np.int64)
            if affinity:
                uniq, inverse = np.unique(session, return_inverse=True)
                lut = np.empty(uniq.shape[0], dtype=np.int64)
                for j, sid in enumerate(uniq.tolist()):
                    winner = winners.get(sid)
                    if winner is None:
                        winner = self._trace_winner(sid)
                        winners[sid] = winner
                    lut[j] = winner
                assign = lut[inverse]
            else:
                assign = (cursor + np.arange(n, dtype=np.int64)) % n_dev
            cursor += n
            for bucket, column in zip(parts, (
                    np.ascontiguousarray(chunk.request_id, dtype=np.int64),
                    arrival,
                    np.ascontiguousarray(chunk.prompt_tokens,
                                         dtype=np.int64),
                    np.ascontiguousarray(chunk.output_tokens,
                                         dtype=np.int64),
                    session,
                    np.ascontiguousarray(chunk.prefix_tokens,
                                         dtype=np.int64),
                    assign)):
                bucket.append(column)
        if not parts[0]:
            raise ValueError("the trace is empty")
        names = ("request_id", "arrival_s", "prompt_tokens",
                 "output_tokens", "session", "prefix_tokens", "assign")
        columns = {name: np.concatenate(bucket)
                   for name, bucket in zip(names, parts)}
        columns["deadline_s"] = deadline
        return columns

    def _trace_winner(self, session: int) -> int:
        """Rendezvous winner index for one session over the whole fleet.

        Reproduces the scalar ``max(up, key=(weight, name))`` exactly:
        devices iterate in ascending name order, so keeping ties with
        ``>=`` leaves the largest name holding the best weight — and
        with no failure source the scalar pool provably stays the full
        fleet, making the whole-fleet winner the partition.

        This loop hashes (sessions x devices) digests per collection
        pass, so it stays lean: ``b"s%d:" % session`` is
        :func:`~repro.workloads.population.session_key` plus the
        rendezvous separator, inlined (the oracle-equivalence tests pin
        the agreement), and the hash constructor and byte decoder are
        bound locally.
        """
        head = b"s%d:" % session
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        best = 0
        best_weight = -1
        index = 0
        for name in self._name_bytes:
            weight = from_bytes(sha256(head + name).digest()[:8], "little")
            if weight >= best_weight:
                best = index
                best_weight = weight
            index += 1
        return best

    def _run_trace_vector(self, columns: dict, jobs: int = 1,
                          executor: str = "thread") -> FleetTraceReport:
        """Drain each device's partition share on the vector core.

        The same partition-equivalence argument as :meth:`_run_vector`,
        with the assignment already computed per column row; each share
        runs through :func:`_trace_device_share` — a pure task over a
        fresh clone of the device — so outcomes land in array columns,
        no per-request object ever exists, and shares may execute on
        any executor in any order without changing a byte.  Raises
        :class:`~repro.engine.vector_run.VectorFallback` on KV
        exhaustion or any served latency at the breaker spike threshold
        (past it the scalar oracle's breakers could shift load).
        """
        assign = columns["assign"]
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=len(self.devices))
        spike_s = (self._health_config or HealthConfig()).latency_spike_s
        deadline = columns["deadline_s"]
        shares = []
        start = 0
        for index, device in enumerate(self.devices):
            n_d = int(counts[index])
            idx = order[start:start + n_d]
            start += n_d
            shares.append((device.spec, spike_s,
                           columns["request_id"][idx],
                           columns["prompt_tokens"][idx],
                           columns["output_tokens"][idx],
                           columns["arrival_s"][idx],
                           deadline,
                           columns["session"][idx],
                           columns["prefix_tokens"][idx]))
        if jobs == 1:
            outcomes = [_trace_device_share(*share) for share in shares]
        else:
            pool_cls = (concurrent.futures.ThreadPoolExecutor
                        if executor == "thread"
                        else concurrent.futures.ProcessPoolExecutor)
            with pool_cls(max_workers=jobs) as pool:
                futures = [pool.submit(_trace_device_share, *share)
                           for share in shares]
                # Collected in device order regardless of completion
                # order; a fallback in any share propagates here.
                outcomes = [future.result() for future in futures]
        rows = []
        for device, share, outcome in zip(self.devices, shares, outcomes):
            rid, prompts, arrival = share[2], share[3], share[5]
            start_s, finish_s, context, now, energy, hits, misses = outcome
            n_d = rid.shape[0]
            if deadline is not None:
                deadline_col = np.full(n_d, float(deadline))
                mask = np.ones(n_d, dtype=bool)
            else:
                deadline_col = np.full(n_d, np.nan)
                mask = np.zeros(n_d, dtype=bool)
            rows.append(TraceDeviceData(
                device.name, device.spec.model, device.spec.power_mode,
                offered=n_d,
                wallclock_s=now,
                energy_joules=energy,
                prefix_hits=hits,
                prefix_misses=misses,
                unserved_with_deadline=0,
                request_id=rid,
                arrival_s=arrival,
                start_s=start_s,
                finish_s=finish_s,
                prompt_tokens=prompts,
                output_tokens=context - prompts,
                deadline_s=deadline_col,
                deadline_mask=mask,
            ))
        return assemble_trace_report(self.policy, int(assign.shape[0]),
                                     0, 0, rows)

    def _trace_stream(self, columns: dict) -> "list[FleetRequest]":
        """Materialize collected columns for the scalar oracle.

        The one object-building path of the trace driver — the fallback
        and the equivalence spot checks only; at full population scale
        the vector path never calls it.
        """
        from repro.workloads.population import session_key

        deadline = columns["deadline_s"]
        rid = columns["request_id"]
        arrival = columns["arrival_s"]
        prompt = columns["prompt_tokens"]
        output = columns["output_tokens"]
        session = columns["session"]
        prefix = columns["prefix_tokens"]
        return [
            FleetRequest(
                request=GenerationRequest(int(rid[i]), int(prompt[i]),
                                          int(output[i])),
                arrival_s=float(arrival[i]),
                deadline_s=deadline,
                session=session_key(int(session[i])),
                prefix_tokens=int(prefix[i]),
            )
            for i in range(rid.shape[0])
        ]

    # -- the event loop -------------------------------------------------
    def run(self, stream: "list[FleetRequest] | tuple[FleetRequest, ...]",
            *, tiering=None) -> FleetReport:
        """Serve one request stream to completion across the fleet.

        Dispatches to the vector fast path when ``mode`` allows and the
        configuration is eligible (see :meth:`vector_eligible`); both
        cores produce byte-identical reports, and :attr:`last_mode`
        records which one ran.

        With ``tiering`` (a :class:`~repro.tiering.policy.
        TieringConfig`), ``stream`` must instead be a sequence of
        :class:`~repro.workloads.agentic.DagJob` items: each job is
        expanded into a plan → branches → verify request DAG served
        through this same routing/disposition machinery on the scalar
        core (see :meth:`_run_tiered`).  ``tiering=None`` leaves every
        untiered code path — and its reports — byte-identical.
        """
        if self.mode != "scalar":
            eligible = tiering is None and self.vector_eligible()
            if self.mode == "vector" and not eligible:
                raise ValueError(
                    "mode='vector' requires round-robin routing with no "
                    "faults, brownout, hedging, autoscaling, tiering, or "
                    "ineligible devices")
            if eligible:
                try:
                    report = self._run_vector(stream)
                    self.last_mode = "vector"
                    return report
                except VectorFallback:
                    pass  # KV pressure somewhere: scalar oracle rerun
        self.last_mode = "scalar"
        if tiering is not None:
            return self._run_tiered(stream, tiering)
        return self._run_scalar(stream)

    def _run_scalar(self, stream) -> FleetReport:
        """The scalar oracle: the gateway's one per-event loop.

        Events ``(t, priority, seq, payload)`` pop off one heap: at equal
        times an outage (0) fires before an arrival (1), so no arrival
        routes to a device dying at that instant, then ticks (2).  Each
        event first advances the fleet: hedge-free runs advance and fold
        only busy devices (exact: ``run_until`` never moves an idle
        run's clock), hedged runs every device, since hedging orders
        cancellations against the all-device advance.  A tiered run
        (``_dag`` set) feeds DAG jobs through :meth:`_on_job` and runs
        :meth:`_settle_dag` after every event.
        """
        dag = self._dag
        seq = itertools.count()
        if dag is None:
            arrivals = [freq for _, freq in sorted(
                enumerate(stream),
                key=lambda pair: (pair[1].arrival_s, pair[0]))]
            for freq in arrivals:
                self._session_of[freq.request.request_id] = (
                    freq.session, freq.prefix_tokens)
            on_arrival = self._on_arrival
        else:
            arrivals = sorted(stream, key=lambda j: (j.arrival_s, j.job_id))
            on_arrival = self._on_job
            limit = ((arrivals[-1].arrival_s if arrivals else 0.0)
                     + self.drain_limit_s)
        events = [(item.arrival_s, 1, next(seq), item) for item in arrivals]
        if self.faults is not None:
            events.extend((fault.start_s, 0, next(seq), fault)
                          for fault in self.faults.downs())
        if self.autoscale is not None and events:
            # Synthetic controller ticks over the whole event span —
            # deterministic because every event time is known up front
            # (the drain loop keeps ticking past the last one).
            step = self.autoscale.config.evaluate_every_s
            last = max(e[0] for e in events)
            events.extend((k * step, 2, next(seq), None)
                          for k in range(1, int(last / step) + 2))
        heapq.heapify(events)

        fused = self.hedge is None
        outstanding = self._outstanding
        devices = self.devices
        t = 0.0
        while events:
            t, priority, _, payload = heapq.heappop(events)
            if fused:
                for device in devices:
                    if outstanding[device.name]:
                        device.advance_to(t)
                        self._fold(device, t)
            else:
                self._advance_all(t)
            if priority == 1:
                on_arrival(payload, t)
            elif priority == 0:
                self._on_down_event(payload, t)
            elif self.autoscale is not None:
                self._autoscale_tick(t)
            if dag is not None and self._settle_dag(dag, t, events, seq,
                                                    limit):
                break

        t = self._drain_all(t)
        self._poll(t)
        if dag is not None:
            dag.ready_children(self._disposition, self._tier_out_tokens, t)
        outcomes = []
        for device in self.devices:
            report = device.report()
            device.release()
            outcomes.append(DeviceOutcome(
                name=device.name,
                model=device.spec.model,
                power_mode=device.spec.power_mode,
                report=report,
                crashes=device.crashes,
                evacuated=device.evacuated,
                prefix_hits=device.run.prefix_hits,
                prefix_misses=device.run.prefix_misses,
            ))
        breaker_opens = sum(
            1 for h in self.health.values()
            for _, _, to in h.breaker.transitions
            if to is BreakerState.OPEN)
        brownout = self.brownout
        recovered = brownout.recovered_at() if brownout is not None else None
        autoscale = (self.autoscale.report(t)
                     if self.autoscale is not None else None)
        report = FleetReport(
            policy=self.policy,
            offered=len(stream) if dag is None else dag.children_offered,
            rerouted=self.rerouted,
            devices=tuple(outcomes),
            gateway_shed=self.gateway_shed,
            gateway_failed=self.gateway_failed,
            hedged=self.hedged,
            hedge_wins=self.hedge_wins,
            breaker_opens=breaker_opens,
            max_brownout_tier=(brownout.max_tier_reached()
                               if brownout is not None else 0),
            budget_trims=brownout.trimmed if brownout is not None else 0,
            recovered_s=recovered,
            autoscale=autoscale,
        )
        if dag is not None:
            report = dataclasses.replace(report,
                                         tiering=dag.aggregate(report))
        return report

    # -- tiered DAG serving ----------------------------------------------
    def _tier_energy_quote(self, models: tuple[str, ...], prompt_tokens: int,
                           budget_tokens: int) -> float:
        """Closed-form energy quote for one stage on its tier pool.

        Prices the stage on the cheapest device currently carrying a
        preferred model (falling back to the whole fleet), using the
        same per-request kernel pricing routing itself uses — so the
        budget manager's energy ledger and the energy-aware policy
        agree on what a branch fan-out costs.
        """
        request = GenerationRequest(
            request_id=0, prompt_tokens=max(int(prompt_tokens), 1),
            natural_length=max(int(budget_tokens), 1),
            max_new_tokens=max(int(budget_tokens), 1))
        pool = [d for d in self.devices if d.spec.model in models]
        if not pool:
            pool = list(self.devices)
        return min(d.predicted_energy_j(request, 0.0) for d in pool)

    def _tier_inject(self, freq: FleetRequest, models: tuple[str, ...],
                     t: float) -> None:
        rid = freq.request.request_id
        self._session_of[rid] = (freq.session, freq.prefix_tokens)
        self._tier_pref[rid] = models
        self._route(freq, t)

    def _on_job(self, job, t: float) -> None:
        """Admit one DAG job through the tier policy, or shed it whole."""
        verdict, out = self._dag.admit(job, t, self._pressure(t))
        if verdict == "shed":
            for rid in out:
                self._finish(rid, "shed")
        else:
            for freq, models in out:
                self._tier_inject(freq, models, t)

    def _settle_dag(self, dag, t: float, events: list, seq,
                    limit: float) -> bool:
        """A tiered run's step after each event; True ends the loop.

        Releases every stage whose dependencies all have a terminal
        disposition, then pushes the next ``tick_s`` tick unless another
        event comes sooner — so release times are deterministic — and
        stops ticking once every DAG is done and the fleet is idle.
        Past ``limit`` the safety valve ends the run: a sick fleet must
        not deadlock, and unreleased stages shed explicitly so
        conservation stays exact.
        """
        for freq, models in dag.ready_children(
                self._disposition, self._tier_out_tokens, t):
            self._tier_inject(freq, models, t)
        if dag.done() and not self._outstanding_total:
            return False
        if t > limit:
            for rid in dag.force_shed_remaining():
                self._finish(rid, "shed")
            for device in self.devices:
                device.drain()
            t = max(d.run.now for d in self.devices)
            self._poll(t)
            dag.ready_children(self._disposition, self._tier_out_tokens, t)
            return True
        tick_s = dag.config.tick_s
        if not events or events[0][0] > t + tick_s:
            heapq.heappush(events, (t + tick_s, 2, next(seq), None))
        return False

    def _run_tiered(self, jobs, tiering) -> FleetReport:
        """Serve agentic DAG jobs under a tier policy.

        Runs :meth:`_run_scalar` with a :class:`~repro.tiering.dag.
        DagRun` coordinator: job arrivals admit through the tier
        policy/budget manager (the hysteretic ladder observes gateway
        pressure exactly where brownout would), root stages inject
        immediately, and dependent stages release when every dependency
        has a terminal disposition — checked after arrival, fault, and
        ``tiering.tick_s`` tick events.  Conservation counts DAG
        children: ``offered`` is the total child count and jobs shed
        whole at admission dispose each planned child as a gateway shed.
        """
        from repro.tiering.dag import DagRun

        if (self.brownout is not None or self.hedge is not None
                or self.autoscale is not None):
            raise ValueError(
                "tiered serving brings its own load ladder; construct "
                "the gateway with brownout=None, hedge=None, "
                "autoscale=None")
        self._dag = DagRun(tiering, energy_quote=self._tier_energy_quote)
        try:
            return self._run_scalar(jobs)
        finally:
            self._dag = None
            self._tier_pref = {}
            self._tier_out_tokens = {}


# -- the per-device trace task (module level: process-executor picklable)
def _trace_device_share(spec, spike_s, request_id, prompt_tokens,
                        output_tokens, arrival_s, deadline_s,
                        session, prefix_tokens):
    """Serve one device's partition share on a fresh clone.

    A pure task: it builds its own :class:`~repro.fleet.device.
    FleetDevice` from the (picklable) spec — construction is
    deterministic — so serial, thread-pool, and process-pool executions
    perform identical float work on identical fresh state, and the
    gateway's own devices stay untouched for a scalar fallback.
    Returns the share's outcome columns plus the run scalars, or raises
    :class:`~repro.engine.vector_run.VectorFallback` (picklable across
    a process boundary) on KV exhaustion or a served latency at the
    breaker spike threshold.
    """
    device = FleetDevice(spec)
    n_d = request_id.shape[0]
    arrays = RequestArrays.from_columns(
        request_id, prompt_tokens, output_tokens, arrival_s,
        deadlines=(np.full(n_d, float(deadline_s))
                   if deadline_s is not None else None))
    vrun = VectorServingRun(
        device.simulator, arrays=arrays,
        session_ids=session, prefix_tokens=prefix_tokens,
        prefix_cache=device.run._prefix_cache,
        record_objects=False)
    vrun.execute_arrays()
    if n_d and float(np.max(arrays.finish_s - arrays.arrival_s)) >= spike_s:
        raise VectorFallback(
            "completion latency reached the breaker spike threshold; "
            "the scalar oracle owns breaker dynamics")
    return (arrays.start_s, arrays.finish_s, arrays.context,
            vrun.now, vrun.energy, vrun.prefix_hits, vrun.prefix_misses)
