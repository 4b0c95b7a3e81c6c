"""The fleet gateway: global event loop plus pluggable routing.

The gateway co-simulates N :class:`~repro.fleet.device.FleetDevice`
instances against one merged event timeline.  Global events — request
arrivals and scheduled device outages (crashes and flap cycles) — are
processed in time order; before each event every device is advanced to
the event time through the incremental serving seam (``run_until``),
then the event either routes a request or downs a device (evacuating
its in-flight work, each request re-injected as first routed after a
small re-dispatch backoff).  After the last event, every device drains
to completion.

Self-healing (this layer's additions over plain routing):

* **Circuit breakers** — a :class:`~repro.fleet.health.CircuitBreaker`
  per device folds its failures and slowed-service completions (never
  queueing); routing skips devices whose breaker is open.  Breakers
  *shift* load — if every breaker rejects, routing falls back to all up
  devices rather than manufacturing an outage.
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
instead of parking, so kill-all schedules terminate cleanly.  Each
routed request is kept once, as first routed (brownout trim applied):
a crash re-route and a hedge both re-inject that record, so every copy
carries the same budget, arrival, deadline, session and prefix.  Beside
it the gateway tracks per request only its live copies, hedge targets
(the last decides a hedge win), crash re-routes and disposition.

Determinism: devices are iterated in sorted-name order everywhere, every
policy breaks ties on the device name, prefix affinity uses rendezvous
hashing with weight ``splitmix64(key(session) ^ key(name))`` (ranked by
:func:`~repro.fleet.partition._rendezvous_winners`, the routine the
vector partition shares), breaker probe jitter comes from
per-device seeded RNGs, and nothing reads a wall clock or unseeded RNG —
so the same stream, fleet, and fault schedule reproduce a byte-identical
:class:`~repro.fleet.report.FleetReport` regardless of device
construction order or process boundaries.

Epoch granularity: a device decoding an atomic multi-token epoch may
overshoot an event time slightly; an outage or cancellation then takes
effect at that epoch boundary.  This is deterministic and mirrors real
engines, which cannot abort mid-kernel.

Hot path: the scalar event loop caches the up and routable device
views behind a monotone topology version, for every configuration.  The
version is bumped on crashes, breaker transitions, probe-slot
consumption, brownout tier moves and autoscale lifecycle transitions;
outage recoveries and breaker cool-downs expire the views by time.
Gateway-maintained outstanding counters replace every per-device
outstanding scan (pressure, the autoscale tick, the drain), and the
per-event sweep advances and folds only busy devices (exact:
``run_until`` is a no-op without work, and a device's unfolded outcome
records still count as its outstanding work).  Nothing walks the stream
ahead of the loop: a request's record is written when it is first
routed.  It is the gateway's only per-event loop: plain streams and
tiered DAG runs pop the same event heap, a tiered run adding its
job-admission arrival handler, a settle step that releases unblocked
DAG stages through the same routing after each event, and its tick
source, which passes over ticks that provably change nothing.
Eligible runs bypass it through :mod:`repro.fleet.partition`'s
partition-and-drain; the gateway keeps the dispatch and assembles the
reports.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.engine.request import GenerationRequest
from repro.engine.server import SERVING_MODES
from repro.engine.state import require_finite_arrivals
from repro.engine.vector_run import run_core
from repro.faults.injector import FleetFaultSchedule
from repro.fleet.autoscale import (
    AutoscaleConfig,
    AutoscaleController,
    LifecycleState,
)
from repro.fleet.brownout import BrownoutConfig, BrownoutController
from repro.fleet.device import FleetDevice
from repro.fleet.health import (
    BreakerState,
    CircuitBreaker,
    HealthConfig,
    breaker_seed,
)
from repro.fleet.partition import (
    _arrival_order,
    _assign,
    _collect_trace,
    _counter_totals,
    _drain,
    _keys,
    _rendezvous_winners,
    _session_head,
    _stream_columns,
)
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


#: Delay before an evacuated request re-enters routing (s).
REROUTE_BACKOFF_S = 0.05
#: Tick of the post-stream drain while a controller is armed (s).
DRAIN_TICK_S = 0.5
#: Duplicates a hedge may launch per request.
MAX_HEDGES = 1
#: EWMA smoothing for the gateway's fleet latency estimate (hedge age).
HEDGE_EWMA_ALPHA = 0.2


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

    def __post_init__(self) -> None:
        # ``not x > 0`` and the like also reject NaN, which fails every
        # comparison.
        if not self.min_age_s > 0:
            raise ValueError("min_age_s must be positive")
        if not self.age_factor >= 1.0:
            raise ValueError("age_factor must be at least 1")


class FleetGateway:
    """Routes a request stream across a fleet of edge devices."""

    def __init__(self, devices: "list[FleetDevice] | tuple[FleetDevice, ...]",
                 policy: str = "round-robin", *,
                 faults: FleetFaultSchedule | None = None,
                 max_reroutes: int = 3,
                 health: HealthConfig | None = None,
                 brownout: BrownoutConfig | None = None,
                 hedge: HedgeConfig | None = None,
                 autoscale: AutoscaleConfig | None = None,
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
        if max_reroutes < 0:
            raise ValueError("max_reroutes must be non-negative")
        if not 0 < drain_limit_s < math.inf:
            raise ValueError("drain_limit_s must be positive and finite")
        self.devices = tuple(sorted(devices, key=lambda d: d.name))
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ValueError("device names must be unique")
        self._by_name = {d.name: d for d in self.devices}
        #: Each device name's rendezvous key (:func:`~repro.fleet.
        #: partition._keys`), hashed once: names never change.
        self._name_keys = dict(zip(names, _keys(
            name.encode() for name in names).tolist()))
        self.policy = policy
        self.faults = faults
        self.max_reroutes = max_reroutes
        self.hedge = hedge
        self.mode = mode
        for device in self.devices:
            # The oracle (mode="scalar") prices decode spans directly.
            device.simulator.mode = mode
        #: Core that executed the most recent :meth:`run` ("scalar" or
        #: "vector"); None before the first run.
        self.last_mode: str | None = None
        #: Wall seconds of the most recent vector :meth:`run` or
        #: :meth:`run_trace` by stage ("collect", "assign", "drain",
        #: "assemble"); None after a scalar run and before the first run.
        self.last_stages: dict[str, float] | None = None
        #: Work counters of the most recent vector :meth:`run` or
        #: :meth:`run_trace`, summed over shares: busy-period boundaries
        #: the kernels' float guesses got wrong ("boundary_repairs") and
        #: idle-to-busy transitions ("busy_periods").  Machine- and
        #: executor-independent; None whenever ``last_stages`` is.
        self.last_counters: dict[str, int] | None = None
        self.drain_limit_s = drain_limit_s
        self.breakers = {d.name: CircuitBreaker(
            health, seed=breaker_seed(seed, d.name)) for d in self.devices}
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
        #: request id -> the request as first routed (brownout trim
        #: applied); every re-route and hedge re-injects it.
        self._offers: dict[int, FleetRequest] = {}
        #: request id -> terminal disposition ("served"/"shed"/"failed").
        self._disposition: dict[int, str] = {}
        #: request id -> device names currently holding a live copy.
        self._copies: dict[int, set[str]] = {}
        #: request id -> hedge targets in launch order.
        self._hedges: dict[int, list[str]] = {}
        self._attempts: dict[int, int] = {}
        self._latency_ewma: float | None = None
        self._served_cursor = {name: 0 for name in names}
        self._dropped_cursor = {name: 0 for name in names}
        # Monotone topology stamp: any availability, breaker,
        # probe-budget, brownout-tier or lifecycle change bumps it,
        # invalidating the cached up/routable views.  Time-driven flips
        # (outage recovery, breaker cool-down expiry) are handled by
        # each cache's expiry.
        self._topo_version = 0
        self._up_cache: tuple[int, float, list[FleetDevice]] | None = None
        self._pool_cache: tuple[int, float, list[FleetDevice]] | None = None
        # Gateway-maintained outstanding-work counters (inject/terminal
        # record/cancel/evacuate deltas) replacing every per-device
        # outstanding scan; ``_maybe_down`` tracks devices that were handed
        # work while down (parked arrivals), whose holdings must not
        # count toward up-capacity pressure.
        self._outstanding = {name: 0 for name in names}
        self._outstanding_total = 0
        self._maybe_down: set[str] = set()
        self._full_capacity = sum(d.spec.max_batch_size
                                  for d in self.devices)
        #: The running tiered run's DAG coordinator (None when untiered).
        self._dag = None

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
        fit = [d for d in up if self.breakers[d.name].admits(t)]
        pool = fit or up
        if self.brownout is not None and self.brownout.prefers_downgrade():
            downgrade = [d for d in pool if d.spec.model
                         in self.brownout.config.downgrade_models]
            if downgrade:
                return downgrade
        return pool

    def _routable(self, t: float) -> list[FleetDevice]:
        """Up devices the lifecycle and breakers admit, with brownout
        steering.

        Breakers shift load, never black out the fleet: when every up
        device's breaker rejects, routing falls back to all up devices.

        The pool is :meth:`_routable_scan` cached behind the topology
        version.  Each input of the scan changes only on a bump or at a
        time expiry: availability (crashes bump, recoveries expire the
        :meth:`_up` view), breaker admission (transitions and probe
        slots bump, an OPEN cool-down expires), the autoscale lifecycle
        (every controller call that can move a state bumps) and the
        brownout tier (a tier move bumps).
        """
        cache = self._pool_cache
        if (cache is not None and cache[0] == self._topo_version
                and t < cache[1]):
            return cache[2]
        up = self._up(t)
        pool = self._routable_scan(t, up)
        expiry = self._up_cache[1]
        for d in up:
            breaker = self.breakers[d.name]
            if (breaker.state is BreakerState.OPEN
                    and breaker._probe_until > t):
                # The cool-down's expiry re-admits this device; the
                # rebuild at that first post-expiry event performs the
                # OPEN -> HALF_OPEN transition exactly where the
                # uncached scan would have.
                expiry = min(expiry, breaker._probe_until)
        self._pool_cache = (self._topo_version, expiry, pool)
        return pool

    def _pick(self, freq: FleetRequest, t: float) -> FleetDevice | None:
        """The policy's choice of device for one request at time ``t``.

        Every policy chooses from the cached :meth:`_routable` pool (in
        a tiered run, steered to the stage's tier pool); prefix affinity
        ranks a session's candidates with :func:`~repro.fleet.partition.
        _rendezvous_winners`, the routine the vector partition ranks with.

        Returns None only when every device is down with no finite
        recovery time (a permanent whole-fleet outage): the caller must
        shed with an explicit disposition instead of parking forever.
        """
        if not self._up(t):
            return self._park_target()
        up = self._routable(t)
        if self.autoscale is not None and not up:
            return self._autoscale_emergency(t) or self._park_target()
        if self._dag is not None:
            up = self._dag.steer(freq.request.request_id, up)
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
            keys = self._name_keys
            return up[int(_rendezvous_winners(
                (_session_head(freq.session),),
                np.array([keys[d.name] for d in up], dtype=np.uint64))[0])]
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
        # Either rung may move a lifecycle state the routable pool
        # filters on.
        self._topo_bump()
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
        self._offers.setdefault(rid, freq)
        self._copies.setdefault(rid, set()).add(device.name)
        return device

    def _consume_probe(self, name: str, t: float) -> None:
        """Admit one routed copy through the device's breaker."""
        breaker = self.breakers[name]
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
        breaker = self.breakers[device.name]
        before = breaker.state
        breaker.record_success(record.finish_s, record.service_s,
                               record.slowdown_s)
        if breaker.state is not before:
            self._topo_bump()
        if self.hedge is not None:
            # The fleet latency estimate only sets the hedge age.
            self._latency_ewma = (
                record.latency_s if self._latency_ewma is None
                else HEDGE_EWMA_ALPHA * record.latency_s
                + (1 - HEDGE_EWMA_ALPHA) * self._latency_ewma)
        if self._disposition.get(rid) == "served":
            # The losing copy finished inside the same advance window
            # before it could be cancelled; dedup in FleetReport keeps
            # the first finish.
            self._copies.get(rid, set()).discard(device.name)
            return
        self._disposition[rid] = "served"
        if self._dag is not None:
            self._dag.note_served(rid, int(record.output_tokens))
        hedges = self._hedges.get(rid)
        if hedges and hedges[-1] == device.name:
            self.hedge_wins += 1
        copies = self._copies.pop(rid, set())
        copies.discard(device.name)
        for other in sorted(copies):
            if self._by_name[other].cancel(rid):
                self._count(other, -1)

    def _on_dropped(self, device: FleetDevice, rid: int, kind: str,
                    t: float) -> None:
        self._count(device.name, -1)
        breaker = self.breakers[device.name]
        before = breaker.state
        breaker.record_failure(t)
        if breaker.state is not before:
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

    def _reroute(self, rid: int, t: float) -> None:
        """Re-inject an evacuated request, as first routed, after the
        re-dispatch backoff."""
        self._route(self._offers[rid], t, ready_s=t + REROUTE_BACKOFF_S)

    def _sweep(self, t: float) -> None:
        """The per-event step: advance the fleet to ``t``, collect, hedge.

        Only busy devices advance: ``run_until`` never moves an idle
        run's clock.  Every advance runs before any fold, so a hedge
        winner's cancellations see every copy advanced to ``t``.
        """
        for device in self.devices:
            if self._outstanding[device.name]:
                device.advance_to(t)
        self._collect(t)
        self._maybe_hedge(t)

    def _collect(self, t: float) -> None:
        """Fold every busy device's new outcomes (no advance).

        Skipping idle devices is exact: a device's unfolded records
        still count in its outstanding work until they are folded.
        """
        for device in self.devices:
            if self._outstanding[device.name]:
                self._fold(device, t)

    def _fold(self, device: FleetDevice, t: float) -> None:
        """Fold one device's new outcomes into breakers and dispositions."""
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

        The outstanding work is read off the gateway's counters: every
        inject/terminal-record/cancel/evacuate moves them, and every
        call site runs post-poll, so they equal the live per-device scan
        exactly.

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
            capacity = sum(d.spec.max_batch_size for d in up
                           if self.autoscale.accepts_routes(d.name))
            if not capacity:
                return math.inf
            return self._outstanding_total / capacity
        # Work parked on still-down devices is excluded (pressure only
        # sums up devices); recovered parkees rejoin the total lazily.
        outstanding = self._outstanding_total
        for name in sorted(self._maybe_down):
            if self._by_name[name].is_down(t):
                outstanding -= self._outstanding[name]
            else:
                self._maybe_down.discard(name)
        capacity = (self._full_capacity if len(up) == len(self.devices)
                    else sum(d.spec.max_batch_size for d in up))
        return outstanding / capacity

    def _observe_brownout(self, t: float) -> None:
        """Fold one pressure sample into the brownout ladder."""
        tier = self.brownout.tier
        self.brownout.observe(t, self._pressure(t))
        if self.brownout.tier != tier:
            # Tier 2 steers the routable pool toward downgrade models.
            self._topo_bump()

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
            if len(self._hedges.get(rid, ())) >= MAX_HEDGES:
                continue
            offer = self._offers[rid]
            if t - offer.arrival_s < threshold:
                continue
            candidates = [d for d in self._routable(t)
                          if d.name not in copies and not d.is_down(t)]
            if not candidates:
                continue
            device = min(candidates,
                         key=lambda d: (d.outstanding_requests, d.name))
            device.inject(offer.request, offer.arrival_s,
                          deadline_s=offer.deadline_s, ready_s=t,
                          session=offer.session,
                          prefix_tokens=offer.prefix_tokens)
            self._count(device.name, 1)
            self._consume_probe(device.name, t)
            copies.add(device.name)
            self._hedges.setdefault(rid, []).append(device.name)
            self.hedged += 1

    # -- autoscaling ------------------------------------------------------
    def _autoscale_tick(self, t: float) -> None:
        """One controller evaluation plus application of its actions."""
        ctrl = self.autoscale
        down = frozenset(d.name for d in self.devices if d.is_down(t))
        actions = ctrl.tick(t, self._pressure(t), down=down,
                            outstanding=self._outstanding)
        # The tick may move lifecycle states the routable pool filters
        # on; an evacuation below already routes through the new pool.
        self._topo_bump()
        for action in actions:
            if action[0] == "evacuate":
                self._evacuate_drain(action[1], t)
            elif action[0] == "set_mode":
                _, name, mode = action
                device = self._by_name[name]
                if self._outstanding[name]:
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
        for request, _ in orphans:
            if self._orphaned(request.request_id, name):
                self._reroute(request.request_id, t)

    # -- event handlers --------------------------------------------------
    def _on_down_event(self, fault, t: float) -> None:
        device = self._by_name.get(fault.device)
        if device is None:
            return  # schedule names a device not in this fleet
        breaker = self.breakers[device.name]
        breaker.record_failure(t)
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
        for request, _ in orphans:
            rid = request.request_id
            breaker.record_failure(t)
            if not self._orphaned(rid, device.name):
                continue
            attempts = self._attempts.get(rid, 0) + 1
            self._attempts[rid] = attempts
            if attempts > self.max_reroutes:
                self._finish(rid, "failed")
                continue
            self.rerouted += 1
            self._reroute(rid, t)

    def _on_arrival(self, freq: FleetRequest, t: float) -> None:
        rid = freq.request.request_id
        if self.brownout is not None:
            self._observe_brownout(t)
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

        With brownout, hedging or autoscaling active the drain advances
        in fixed ticks so the controller observes the backlog clearing
        (tier recovery) and late hedges still fire; the loop is
        hard-bounded by ``drain_limit_s`` and then force-drains, so a
        sick fleet ends the run instead of deadlocking.  Without them
        the tick window is empty: the fleet force-drains at once.
        """
        deadline = t
        if (self.brownout is not None or self.hedge is not None
                or self.autoscale is not None):
            deadline += self.drain_limit_s
        while self._outstanding_total:
            if t >= deadline:
                for device in self.devices:
                    device.drain()
                break
            t += DRAIN_TICK_S
            self._sweep(t)
            if self.brownout is not None:
                self._observe_brownout(t)
            if self.autoscale is not None:
                self._autoscale_tick(t)
        return max((d.run.now for d in self.devices), default=t)

    # -- the vector partition-and-drain path -----------------------------
    def vector_eligible(self) -> bool:
        """Whether this gateway configuration admits the vector path.

        Round-robin and prefix-affinity are the state-independent
        policies (every other policy reads live device state per
        arrival, which is inherently sequential), and no mid-stream
        event source may be armed: faults, brownout, hedging, and
        autoscaling all inject events a per-device drain cannot batch.
        Every device must itself be vector-eligible.  Health breakers
        never move here: there is no failure and no slowed service.
        :meth:`run` also needs no tiering and, under prefix-affinity, a
        session on every request (stateless requests route by live load).
        """
        return (self.policy in ("round-robin", "prefix-affinity")
                and self.faults is None
                and self.brownout is None
                and self.hedge is None
                and self.autoscale is None
                and all(d.vector_eligible for d in self.devices))

    def _fleet_report(self, stream) -> FleetReport:
        """The vector path of :meth:`run`: stream → columns → drain."""
        start = time.perf_counter()
        columns, head = _stream_columns(stream)
        return self._vector_report(
            columns, head, time.perf_counter() - start, True,
            lambda drained: FleetReport(
                policy=self.policy, offered=len(stream), rerouted=0,
                devices=tuple(
                    DeviceOutcome(d.name, d.spec.model, d.spec.power_mode,
                                  outcome.result, crashes=0, evacuated=0,
                                  prefix_hits=outcome.prefix_hits,
                                  prefix_misses=outcome.prefix_misses)
                    for d, (_, outcome) in zip(self.devices, drained))))

    def _vector_report(self, columns: dict, head, collect_s: float,
                       objects: bool, assemble, jobs: int = 1,
                       executor: str = "thread"):
        """Partition and drain collected columns, then ``assemble``.

        The one tail of both vector paths: :func:`_assign` partitions
        the rows, :func:`_drain` drains each share (building
        per-request objects when ``objects``), and ``assemble`` turns
        its ``(share, outcome)`` pairs into the report.  Records the
        stage times in :attr:`last_stages` (``collect_s`` from the
        caller) and the summed work counters in :attr:`last_counters`.
        """
        start = time.perf_counter()
        assign = _assign(self.policy,
                         np.array([self._name_keys[d.name]
                                   for d in self.devices], dtype=np.uint64),
                         columns["session"], head)
        assigned = time.perf_counter()
        drained = _drain([d.spec for d in self.devices], columns, assign,
                         objects, jobs, executor)
        drained_at = time.perf_counter()
        report = assemble(drained)
        self.last_stages = {"collect": collect_s,
                            "assign": assigned - start,
                            "drain": drained_at - assigned,
                            "assemble": time.perf_counter() - drained_at}
        self.last_counters = _counter_totals(drained)
        return report

    # -- the population-scale trace driver -------------------------------
    def run_trace(self, trace, *, jobs: int = 1,
                  executor: str = "thread") -> FleetTraceReport:
        """Serve a population-scale column trace across the fleet.

        ``trace`` is a :class:`~repro.workloads.population.
        PopulationTrace` (read as one chunk) or any iterable of
        :class:`~repro.workloads.population.TraceChunk` column slices
        with nondecreasing arrivals.  The driver holds only column
        arrays — bounded memory at any request count — and returns the
        column-native :class:`~repro.fleet.trace.FleetTraceReport`.
        Chunking is a view decision: chunked and unchunked streams
        collect byte-identical columns, hence byte-identical reports.

        ``jobs`` > 1 drains the per-device partition shares
        concurrently on a ``"thread"`` or ``"process"`` ``executor``;
        each share is a pure task on a fresh device clone, so the
        executor choice is purely a wall-clock decision.

        Dispatch mirrors :meth:`run`: the same partition and drain when
        ``mode`` allows and :meth:`vector_eligible` holds, else (or on
        :class:`~repro.engine.vector_run.VectorFallback`) the scalar
        oracle on materialized requests — small traces only.
        """
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        # A trace carries every column a chunk does.
        chunks = (trace,) if hasattr(trace, "chunks") else trace
        self.last_stages = self.last_counters = None
        start = time.perf_counter()
        columns, head = _collect_trace(chunks)
        collect_s = time.perf_counter() - start
        return run_core(
            self, self.vector_eligible(),
            "round-robin or prefix-affinity routing and no faults, "
            "brownout, hedging, autoscaling, or ineligible devices",
            lambda: self._vector_report(
                columns, head, collect_s, False,
                lambda drained: assemble_trace_report(
                    self.policy, int(columns["request_id"].shape[0]), 0, 0,
                    self._trace_rows(drained)),
                jobs, executor),
            lambda: trace_report_from_fleet(
                self._run_scalar(self._trace_stream(columns))))

    def _trace_rows(self, drained) -> "list[TraceDeviceData]":
        """The vector path of :meth:`run_trace`: each device's drained
        outcome columns, no per-request object, as the rows
        :func:`~repro.fleet.trace.assemble_trace_report` folds like the
        scalar oracle's."""
        return [
            TraceDeviceData(
                device.name, device.spec.model, device.spec.power_mode,
                offered=share["request_id"].shape[0],
                wallclock_s=outcome.now,
                energy_joules=outcome.energy,
                prefix_hits=outcome.prefix_hits,
                prefix_misses=outcome.prefix_misses,
                unserved_with_deadline=0,
                request_id=share["request_id"],
                arrival_s=share["arrival_s"],
                start_s=outcome.result[0],
                finish_s=outcome.result[1],
                prompt_tokens=share["prompt_tokens"],
                output_tokens=outcome.result[2] - share["prompt_tokens"],
                deadline_s=share["deadline_s"],
                deadline_mask=share["deadline_mask"],
            )
            for device, (share, outcome) in zip(self.devices, drained)]

    def _trace_stream(self, columns: dict) -> "list[FleetRequest]":
        """Materialize collected columns for the scalar oracle.

        The one object-building path of the trace driver — the fallback
        and the equivalence spot checks only; at full population scale
        the vector path never calls it.
        """
        from repro.workloads.population import session_key

        rid = columns["request_id"]
        arrival = columns["arrival_s"]
        prompt = columns["prompt_tokens"]
        stop = columns["stop_tokens"]
        session = columns["session"]
        prefix = columns["prefix_tokens"]
        deadline = columns["deadline_s"]
        mask = columns["deadline_mask"]
        return [
            FleetRequest(
                request=GenerationRequest(int(rid[i]), int(prompt[i]),
                                          int(stop[i])),
                arrival_s=float(arrival[i]),
                deadline_s=float(deadline[i]) if mask[i] else None,
                session=session_key(int(session[i])),
                prefix_tokens=int(prefix[i]),
            )
            for i in range(rid.shape[0])
        ]

    # -- the event loop -------------------------------------------------
    def run(self, stream: "list[FleetRequest] | tuple[FleetRequest, ...]",
            *, tiering=None) -> FleetReport:
        """Serve one request stream to completion across the fleet.

        Dispatches to the vector partition-and-drain path when ``mode``
        allows and the configuration is eligible (see
        :meth:`vector_eligible`; under prefix-affinity every request
        also needs a session); both cores produce byte-identical
        reports, and :attr:`last_mode` records which one ran.

        With ``tiering`` (a :class:`~repro.tiering.policy.
        TieringConfig`), ``stream`` must instead be a sequence of
        :class:`~repro.workloads.agentic.DagJob` items: a
        :class:`~repro.tiering.dag.DagRun` expands each job into a plan
        → branches → verify request DAG and releases its stages on the
        scalar core, and ``offered`` counts DAG children.
        ``tiering=None`` leaves every untiered code path — and its
        reports — byte-identical.
        """
        require_finite_arrivals(np.fromiter(
            (item.arrival_s for item in stream), np.float64, len(stream)))
        if tiering is None:
            # Dispositions are keyed by request id: a repeated id would
            # settle as one request and silently lose the other.
            seen: set[int] = set()
            for freq in stream:
                rid = freq.request.request_id
                if rid in seen:
                    raise ValueError(f"request id {rid} repeats; every "
                                     "request in a stream needs its own id")
                seen.add(rid)
        dag = None
        if tiering is not None:
            from repro.tiering.dag import DagRun

            if (self.brownout is not None or self.hedge is not None
                    or self.autoscale is not None):
                raise ValueError(
                    "tiered serving brings its own load ladder; construct "
                    "the gateway with brownout=None, hedge=None, "
                    "autoscale=None")
            dag = DagRun(tiering, energy_quote=self._tier_energy_quote)
        self.last_stages = self.last_counters = None
        return run_core(
            self,
            tiering is None and self.vector_eligible()
            and (self.policy != "prefix-affinity"
                 or all(freq.session is not None for freq in stream)),
            "round-robin routing or prefix-affinity routing with a "
            "session on every request (a stateless request routes by "
            "live load), no tiering, and no faults, brownout, hedging, "
            "autoscaling, or ineligible devices",
            lambda: self._fleet_report(stream),
            lambda: self._run_scalar(stream, dag))

    def _run_scalar(self, stream, dag=None) -> FleetReport:
        """The scalar oracle: the gateway's one per-event loop.

        Events ``(t, priority, seq, payload)`` pop off one heap: at equal
        times an outage (0) fires before an arrival (1), so no arrival
        routes to a device dying at that instant, then ticks (2).  Each
        event first runs :meth:`_sweep`.  A tiered run (``dag`` given)
        feeds DAG jobs through :meth:`_on_job` and runs
        :meth:`_settle_dag` after every event; outside the oracle that
        step skips ticks at which no busy device can finish, drop or
        admit anything, so the loop wakes only when something can
        change.
        """
        self._dag = dag
        seq = itertools.count()
        if dag is None:
            arrivals = _arrival_order(stream)
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

        t = 0.0
        while events:
            t, priority, _, payload = heapq.heappop(events)
            self._sweep(t)
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
        self._collect(t)
        if dag is not None:
            dag.ready_children(self._disposition, t)
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
            1 for breaker in self.breakers.values()
            for _, _, to in breaker.transitions
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

    def _on_job(self, job, t: float) -> None:
        """Admit one DAG job through the tier policy, or shed it whole."""
        verdict, out = self._dag.admit(job, t, self._pressure(t))
        if verdict == "shed":
            for rid in out:
                self._finish(rid, "shed")
        else:
            for freq in out:
                self._route(freq, t)

    def _settle_dag(self, dag, t: float, events: list, seq,
                    limit: float) -> bool:
        """A tiered run's step after each event; True ends the loop.

        Releases every stage whose dependencies all have a terminal
        disposition, then schedules the next ``tick_s`` tick unless
        another event comes sooner — so release times are deterministic
        — and stops ticking once every DAG is done and the fleet is idle.
        Past ``limit`` the safety valve ends the run: a sick fleet must
        not deadlock, and unreleased stages shed explicitly so
        conservation stays exact (the post-loop drain and collect then
        settle the rest).

        Ticks that provably do nothing are skipped (see
        :meth:`_next_tick`); the oracle (``mode="scalar"``) keeps them
        all, so every auto-vs-scalar tiered comparison checks the skip.
        """
        released = dag.ready_children(self._disposition, t)
        settled = len(self._disposition)
        for freq in released:
            self._route(freq, t)
        if dag.done() and not self._outstanding_total:
            return False
        if t > limit:
            for rid in dag.force_shed_remaining():
                self._finish(rid, "shed")
            return True
        quiet = (self.mode != "scalar"
                 and len(self._disposition) == settled)
        self._next_tick(t, dag.config.tick_s, events, seq, limit, quiet)
        return False

    def _next_tick(self, t: float, tick_s: float, events: list, seq,
                   limit: float, quiet: bool) -> None:
        """Push the next tick of the chain ``t + tick_s``, ``(t + tick_s)
        + tick_s``, ... that is not provably quiet.

        Each tick is pushed only when no queued event comes at or before
        it, exactly as if every tick ran.  With ``quiet`` (nothing became
        terminal since this settle's release scan) a tick at or before
        every busy device's :meth:`~repro.engine.server._ServingRun.
        quiet_until` and at or before ``limit`` would only move device
        clocks: no record to fold, no stage to release, no valve.
        Skipping it is exact because ``run_until`` over any sequence of
        horizons equals one run to the last.  Repeated addition keeps
        every tick time the float the unskipped chain would produce.
        """
        tick = t + tick_s
        bound = -math.inf
        if quiet and (not events or events[0][0] > tick):
            bound = limit
            for device in self.devices:
                if bound < tick:
                    break
                if self._outstanding[device.name]:
                    bound = min(bound, device.run.quiet_until())
        while not events or events[0][0] > tick:
            if tick > bound:
                heapq.heappush(events, (tick, 2, next(seq), None))
                return
            tick += tick_s
