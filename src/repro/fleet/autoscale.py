"""Autoscaling device lifecycle: wake/sleep/DVFS with zero-loss drains.

The fleet so far runs every device always-on; ROADMAP item 1 asks for
energy proportionality — devices that *sleep* through the diurnal trough
and *wake* for the flash crowd, with DVFS power-mode switches in
between.  The hard part is not the scaling policy but making scale-down
safe: a device must never sleep while holding a request, and a crash
landing mid-drain or mid-wake must fold back into PR 5's
orphan-evacuation path so the conservation invariant
``offered == served + shed + failed`` stays exact.

This module is the deterministic controller.  Each device moves through
an explicit lifecycle state machine::

    ACTIVE ──cordon──▶ CORDONED ──drain──▶ DRAINING ──empty──▶ ASLEEP
      ▲                   │                    │                  │
      │◀──── cancel ──────┘                    │                  │
      │◀─────────── abort (pressure) ──────────┘                wake
      │                                                           ▼
      └──────────────── wake latency elapsed ◀────────────── WAKING
                                  (crash while WAKING ──▶ ASLEEP)

Every edge is checked against :data:`LEGAL_TRANSITIONS` (the same
pattern as :mod:`repro.fleet.health`'s circuit breaker), logged, and
time-accounted into a per-device state ledger that prices the run's
idle/sleep/wake energy against the always-on fleet.

Determinism: the controller owns no RNG — decisions are pure functions
of tick time, gateway pressure, and device state, devices are scanned
in sorted-name order, and hysteresis holds (``hold_up_s`` /
``hold_down_s``) bound sleep/wake flapping structurally, so the chaos
gate's byte-identity and flap-bound checks follow from construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.hardware.soc import PowerMode


class LifecycleState(enum.Enum):
    """Autoscale lifecycle of one fleet device."""

    ACTIVE = "active"
    CORDONED = "cordoned"
    DRAINING = "draining"
    ASLEEP = "asleep"
    WAKING = "waking"


#: States in which the device draws its idle floor (everything but
#: ASLEEP: a waking device is already burning its cold-boot power).
AWAKE_STATES = frozenset({
    LifecycleState.ACTIVE,
    LifecycleState.CORDONED,
    LifecycleState.DRAINING,
    LifecycleState.WAKING,
})

#: The legal lifecycle edges; every transition is checked against this
#: table (and the hypothesis state-machine test drives random operation
#: sequences to prove no illegal edge is reachable).
LEGAL_TRANSITIONS = frozenset({
    (LifecycleState.ACTIVE, LifecycleState.CORDONED),
    (LifecycleState.CORDONED, LifecycleState.DRAINING),
    (LifecycleState.CORDONED, LifecycleState.ACTIVE),
    (LifecycleState.DRAINING, LifecycleState.ASLEEP),
    (LifecycleState.DRAINING, LifecycleState.ACTIVE),
    (LifecycleState.ASLEEP, LifecycleState.WAKING),
    (LifecycleState.WAKING, LifecycleState.ACTIVE),
    (LifecycleState.WAKING, LifecycleState.ASLEEP),
})


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs for the hysteretic wake/sleep/DVFS controller.

    The scale-up threshold sits *below* the brownout ladder's first
    ``enter_pressure`` (2.0 fleet batches) by design: capacity arrives
    before admission control starts trimming, so brownout stays the
    last resort.
    """

    #: Wake a sleeper when pressure (outstanding / active capacity)
    #: reaches this.  Must be below the brownout ladder's tier-1 entry.
    scale_up_pressure: float = 1.2
    #: Cordon+drain a device when pressure falls to this.
    scale_down_pressure: float = 0.3
    #: Devices that must stay ACTIVE no matter how idle the fleet is.
    min_active: int = 1
    #: Controller tick spacing on the merged event timeline (s).
    evaluate_every_s: float = 1.0
    #: Minimum time after the last sleep decision before a wake (the
    #: crowd-response hold — short so flash crowds are absorbed fast).
    hold_up_s: float = 2.0
    #: Minimum dwell after a wake before any device may be cordoned,
    #: and minimum spacing between consecutive sleep decisions.
    hold_down_s: float = 10.0
    #: Cold-start latency: a woken device starts serving this many
    #: seconds after the wake begins.  A WAKING device accepts no new
    #: routes; only the gateway's emergency ladder may queue work on it
    #: (admission then starts at wake-ready).
    wake_latency_s: float = 3.0
    #: Energy of one cold start (J), charged when the wake *starts* —
    #: a crash that aborts the wake has still burned the boot power.
    wake_energy_j: float = 25.0
    #: Power draw while ASLEEP (W); 0 models full suspend-to-ram.
    sleep_power_w: float = 0.0
    #: Evacuate-and-reroute leftovers when a drain exceeds this (s).
    drain_grace_s: float = 30.0
    #: DVFS economy mode for idle actives pinned awake by
    #: ``min_active`` (None disables DVFS downshifting).
    economy_mode: str | None = "30W"
    #: Pause priced (at idle power) for one DVFS mode switch (s).
    dvfs_transition_s: float = 0.25

    def __post_init__(self) -> None:
        if self.scale_up_pressure <= 0:
            raise ValueError("scale_up_pressure must be positive")
        if not 0 <= self.scale_down_pressure < self.scale_up_pressure:
            raise ValueError(
                "scale_down_pressure must be in [0, scale_up_pressure)")
        if self.min_active < 1:
            raise ValueError("min_active must be at least 1")
        if self.evaluate_every_s <= 0:
            raise ValueError("evaluate_every_s must be positive")
        if self.hold_up_s < 0 or self.hold_down_s < 0:
            raise ValueError("hysteresis holds must be non-negative")
        if self.wake_latency_s < 0:
            raise ValueError("wake_latency_s must be non-negative")
        if self.wake_energy_j < 0:
            raise ValueError("wake_energy_j must be non-negative")
        if self.sleep_power_w < 0:
            raise ValueError("sleep_power_w must be non-negative")
        if self.drain_grace_s <= 0:
            raise ValueError("drain_grace_s must be positive")
        if self.economy_mode is not None:
            PowerMode(self.economy_mode)  # raises ValueError on unknowns
        if self.dvfs_transition_s < 0:
            raise ValueError("dvfs_transition_s must be non-negative")


@dataclass(frozen=True)
class AutoscaleReport:
    """Counters and the energy ledger of one autoscaled fleet run."""

    wakes: int
    sleeps: int
    drains_completed: int
    drain_evacuations: int
    dvfs_switches: int
    crashes_draining: int
    crashes_waking: int
    transitions: int
    active_device_s: float
    asleep_device_s: float
    #: Idle-floor energy charged while awake (J).
    idle_energy_j: float
    sleep_energy_j: float
    wake_energy_j: float
    dvfs_energy_j: float
    #: What the idle floor would have cost with every device always on.
    always_on_idle_energy_j: float
    #: Idle-floor savings vs always-on (can be negative if wake/DVFS
    #: overheads ever exceed the sleep savings).
    energy_saved_j: float
    final_states: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        """Plain-data rendering with a stable field order."""
        return {
            "wakes": self.wakes,
            "sleeps": self.sleeps,
            "drains_completed": self.drains_completed,
            "drain_evacuations": self.drain_evacuations,
            "dvfs_switches": self.dvfs_switches,
            "crashes_draining": self.crashes_draining,
            "crashes_waking": self.crashes_waking,
            "transitions": self.transitions,
            "active_device_s": self.active_device_s,
            "asleep_device_s": self.asleep_device_s,
            "idle_energy_j": self.idle_energy_j,
            "sleep_energy_j": self.sleep_energy_j,
            "wake_energy_j": self.wake_energy_j,
            "dvfs_energy_j": self.dvfs_energy_j,
            "always_on_idle_energy_j": self.always_on_idle_energy_j,
            "energy_saved_j": self.energy_saved_j,
            "final_states": {name: state for name, state in self.final_states},
        }


@dataclass
class _DeviceLedger:
    """One device's lifecycle state plus its time-in-state accounting."""

    state: LifecycleState = LifecycleState.ACTIVE
    since_s: float = 0.0
    wake_ready_s: float = 0.0
    mode: str = "MAXN"
    spec_mode: str = "MAXN"
    #: Idle watts charged while awake at the *current* DVFS mode; the
    #: gateway refreshes it through :meth:`AutoscaleController.note_mode`
    #: so an economy downshift prices its own (possibly lower) floor.
    idle_w_now: float = 0.0
    #: Energy checkpoint: the accumulators below are settled up to here.
    energy_since_s: float = 0.0
    idle_j: float = 0.0
    sleep_j: float = 0.0
    in_state_s: dict[LifecycleState, float] = field(
        default_factory=lambda: {s: 0.0 for s in LifecycleState})


class IllegalTransition(RuntimeError):
    """A lifecycle edge outside :data:`LEGAL_TRANSITIONS`."""


class AutoscaleController:
    """Deterministic hysteretic wake/sleep/DVFS controller.

    The gateway drives it with :meth:`tick` (pressure + per-device
    availability snapshots) and event notifications (:meth:`on_crash`,
    :meth:`drain_evacuated`, :meth:`emergency_wake`); the controller
    answers with lifecycle transitions and a list of actions the
    gateway must apply (``("evacuate", name)`` for expired drains,
    ``("set_mode", name, mode)`` for DVFS switches).  It can equally be
    driven standalone (the hypothesis state-machine test does), because
    it never touches a device object itself.
    """

    def __init__(self, device_names: Sequence[str],
                 config: AutoscaleConfig | None = None, *,
                 idle_power_w: "Mapping[str, float] | float" = 4.5,
                 power_modes: "Mapping[str, str] | None" = None,
                 capacity: "Mapping[str, float] | float" = 1.0):
        names = tuple(sorted(device_names))
        if not names:
            raise ValueError("an autoscale controller needs device names")
        if len(set(names)) != len(names):
            raise ValueError("device names must be unique")
        self.config = config or AutoscaleConfig()
        if self.config.min_active > len(names):
            raise ValueError("min_active exceeds the fleet size")
        self.names = names
        if isinstance(idle_power_w, (int, float)):
            self._idle_w = {name: float(idle_power_w) for name in names}
        else:
            self._idle_w = {name: float(idle_power_w[name]) for name in names}
        if isinstance(capacity, (int, float)):
            self._capacity = {name: float(capacity) for name in names}
        else:
            self._capacity = {name: float(capacity[name]) for name in names}
        modes = power_modes or {}
        self._ledgers = {
            name: _DeviceLedger(mode=modes.get(name, "MAXN"),
                                spec_mode=modes.get(name, "MAXN"),
                                idle_w_now=self._idle_w[name])
            for name in names}
        #: Transition log: (time, device, from-state, to-state).
        self.transitions: list[tuple[
            float, str, LifecycleState, LifecycleState]] = []
        self.wakes = 0
        #: Wakes *started* (>= wakes: some may be crash-aborted); the
        #: cold-boot energy is charged per start, not per completion.
        self.wake_starts = 0
        self.sleeps = 0
        self.drains_completed = 0
        self.drain_evacuations = 0
        self.dvfs_switches = 0
        self.crashes_draining = 0
        self.crashes_waking = 0
        self._dvfs_energy_j = 0.0
        self._last_wake_s = -math.inf
        self._last_sleep_s = -math.inf

    # -- state queries ---------------------------------------------------
    def state(self, name: str) -> LifecycleState:
        """Current lifecycle state of one device."""
        return self._ledgers[name].state

    def accepts_routes(self, name: str) -> bool:
        """Whether routing may place *new* work on this device."""
        return self._ledgers[name].state is LifecycleState.ACTIVE

    def wake_ready_s(self, name: str) -> float:
        """When a WAKING device starts serving (undefined otherwise)."""
        return self._ledgers[name].wake_ready_s

    def active_count(self) -> int:
        """Devices currently accepting routes."""
        return sum(1 for led in self._ledgers.values()
                   if led.state is LifecycleState.ACTIVE)

    def _in_state(self, *states: LifecycleState) -> list[str]:
        wanted = set(states)
        return [name for name in self.names
                if self._ledgers[name].state in wanted]

    def max_cycles_bound(self, duration_s: float) -> int:
        """Hysteresis bound on per-device sleep/wake cycles.

        A device woken at ``t`` cannot be cordoned before
        ``t + hold_down_s`` and cannot be re-woken before its sleep plus
        ``hold_up_s``, so one full cycle spans at least
        ``hold_down_s + hold_up_s`` — the flap bound the chaos gate
        asserts.
        """
        period = self.config.hold_down_s + self.config.hold_up_s
        if period <= 0:
            return 1 + int(math.ceil(
                duration_s / self.config.evaluate_every_s))
        return 1 + int(duration_s // period)

    def wake_cycles(self, name: str) -> int:
        """ASLEEP → WAKING transitions recorded for one device."""
        return sum(1 for _, dev, src, dst in self.transitions
                   if dev == name and src is LifecycleState.ASLEEP
                   and dst is LifecycleState.WAKING)

    # -- transitions ------------------------------------------------------
    def _settle_energy(self, t: float, name: str) -> None:
        """Charge the open idle/sleep interval up to ``t``.

        Called before every state or mode change so the accumulators
        always price each segment at the floor that was actually in
        effect while it ran.
        """
        led = self._ledgers[name]
        dt = max(t - led.energy_since_s, 0.0)
        if led.state in AWAKE_STATES:
            led.idle_j += led.idle_w_now * dt
        else:
            led.sleep_j += self.config.sleep_power_w * dt
        led.energy_since_s = max(led.energy_since_s, t)

    def _move(self, t: float, name: str, to: LifecycleState) -> None:
        led = self._ledgers[name]
        src = led.state
        if (src, to) not in LEGAL_TRANSITIONS:
            raise IllegalTransition(
                f"illegal lifecycle transition {src.name} -> {to.name} "
                f"for {name!r} at t={t:.3f}")
        self._settle_energy(t, name)
        led.in_state_s[src] += max(t - led.since_s, 0.0)
        led.state = to
        led.since_s = t
        self.transitions.append((t, name, src, to))

    def on_crash(self, t: float, name: str) -> None:
        """Fold a delivered crash into the lifecycle.

        A crash during DRAINING ends the drain (the gateway already
        evacuated the orphans through PR 5's path) and the device goes
        to sleep; a crash during WAKING aborts the wake.  Crashes on
        ACTIVE/CORDONED devices leave the lifecycle alone — the
        availability layer (``is_down``) already handles them.
        """
        state = self._ledgers[name].state
        if state is LifecycleState.DRAINING:
            self.crashes_draining += 1
            self._move(t, name, LifecycleState.ASLEEP)
            self.sleeps += 1
        elif state is LifecycleState.WAKING:
            self.crashes_waking += 1
            self._move(t, name, LifecycleState.ASLEEP)

    def drain_evacuated(self, count: int) -> None:
        """Record orphans the gateway re-routed off an expired drain."""
        self.drain_evacuations += count

    def emergency_activate(self, t: float,
                           down: "frozenset[str] | set[str]" = frozenset()
                           ) -> str | None:
        """Reactivate one cordoned/draining device (routing found no
        ACTIVE device).  Cheaper than a cold wake; returns the
        reactivated name or None when there is no up candidate.
        """
        for name in self._in_state(LifecycleState.CORDONED,
                                   LifecycleState.DRAINING):
            if name in down:
                continue
            self._move(t, name, LifecycleState.ACTIVE)
            return name
        return None

    def emergency_wake(self, t: float,
                       down: "frozenset[str] | set[str]" = frozenset()
                       ) -> str | None:
        """Start waking one sleeper immediately (routing found no
        ACTIVE device).  Bypasses the hysteresis holds — an outage is
        not a flap — and returns the woken device's name, or None when
        no healthy sleeper exists.
        """
        for name in self._in_state(LifecycleState.ASLEEP):
            if name in down:
                continue
            self._start_wake(t, name)
            return name
        return None

    def _start_wake(self, t: float, name: str) -> None:
        led = self._ledgers[name]
        self._move(t, name, LifecycleState.WAKING)
        led.wake_ready_s = t + self.config.wake_latency_s
        self._last_wake_s = t
        self.wake_starts += 1

    # -- the tick ---------------------------------------------------------
    def tick(self, t: float, pressure: float, *,
             down: "frozenset[str] | set[str]" = frozenset(),
             outstanding: "Mapping[str, int] | None" = None
             ) -> list[tuple]:
        """One controller evaluation; returns actions for the gateway.

        Actions: ``("evacuate", name)`` — a DRAINING device exceeded
        the drain grace and its leftovers must be evacuated/re-routed
        before it sleeps; ``("set_mode", name, mode)`` — apply a DVFS
        switch to an idle device.
        """
        cfg = self.config
        outstanding = outstanding or {}
        actions: list[tuple] = []

        # 1. Complete wakes whose cold start has elapsed.
        for name in self._in_state(LifecycleState.WAKING):
            if name in down:
                continue  # resolved by on_crash / stays waking until up
            if self._ledgers[name].wake_ready_s <= t:
                self._move(t, name, LifecycleState.ACTIVE)
                self.wakes += 1

        # 2. Advance drains: empty -> ASLEEP; expired grace -> evacuate.
        for name in self._in_state(LifecycleState.DRAINING):
            led = self._ledgers[name]
            if name in down:
                continue  # crash path owns this device right now
            if outstanding.get(name, 0) <= 0:
                self._move(t, name, LifecycleState.ASLEEP)
                self.drains_completed += 1
                self.sleeps += 1
            elif t - led.since_s >= cfg.drain_grace_s:
                actions.append(("evacuate", name))
                self._move(t, name, LifecycleState.ASLEEP)
                self.drains_completed += 1
                self.sleeps += 1

        # 3. Resolve cordons from the previous tick: still calm ->
        #    start draining; pressure back -> cancel the cordon.
        for name in self._in_state(LifecycleState.CORDONED):
            if pressure >= cfg.scale_up_pressure:
                self._move(t, name, LifecycleState.ACTIVE)
            else:
                self._move(t, name, LifecycleState.DRAINING)

        # 4. Scale decisions under the hysteresis holds.
        if pressure >= cfg.scale_up_pressure:
            actions.extend(self._scale_up(t, down, outstanding))
        elif pressure <= cfg.scale_down_pressure:
            actions.extend(self._scale_down(t, down, outstanding))
        return actions

    def _scale_up(self, t: float, down: "frozenset[str] | set[str]",
                  outstanding: "Mapping[str, int]") -> list[tuple]:
        cfg = self.config
        actions: list[tuple] = []
        # Cheapest capacity first: abort any in-flight drain.
        for name in self._in_state(LifecycleState.DRAINING):
            if name not in down:
                self._move(t, name, LifecycleState.ACTIVE)
                return actions
        # Then upshift *idle* economy-mode actives back to their spec
        # mode (a DVFS switch is far cheaper than a cold wake).  A busy
        # device cannot switch — mid-batch DVFS would corrupt span
        # pricing and FleetDevice.set_power_mode refuses it — so its
        # upshift retries on a later tick and sleepers are woken below
        # in the meantime.
        for name in self._in_state(LifecycleState.ACTIVE):
            led = self._ledgers[name]
            if (led.mode != led.spec_mode and name not in down
                    and outstanding.get(name, 0) == 0):
                actions.append(("set_mode", name, led.spec_mode))
                return actions
        # Finally wake sleepers, respecting the up-hold.  The wake is
        # *proportional*: enough capacity to bring pressure back to the
        # scale-up threshold once the cold starts finish, because a
        # flash crowd absorbed one device per tick would push the
        # brownout ladder to shedding before capacity arrived.
        if t - self._last_sleep_s < cfg.hold_up_s:
            return actions
        total_out = float(sum(outstanding.values()))
        online = self._in_state(LifecycleState.ACTIVE,
                                LifecycleState.WAKING)
        deficit = (total_out / cfg.scale_up_pressure
                   - sum(self._capacity[n] for n in online
                         if n not in down))
        for name in self._in_state(LifecycleState.ASLEEP):
            if deficit <= 0:
                break
            if name in down:
                continue
            self._start_wake(t, name)
            deficit -= self._capacity[name]
        return actions

    def _scale_down(self, t: float, down: "frozenset[str] | set[str]",
                    outstanding: "Mapping[str, int]") -> list[tuple]:
        cfg = self.config
        actions: list[tuple] = []
        if t - self._last_wake_s < cfg.hold_down_s:
            return actions
        if t - self._last_sleep_s < cfg.hold_down_s:
            return actions
        # Crashed-but-ACTIVE devices are invisible to scale-down: their
        # zero outstanding is evacuation, not idleness, so they must
        # not be cordoned — and they cannot carry the min_active floor,
        # or the fleet's only *healthy* capacity could be put to sleep.
        active = [name for name in self._in_state(LifecycleState.ACTIVE)
                  if name not in down]
        if len(active) > cfg.min_active:
            # Cordon the emptiest active (ties by name); it drains next
            # tick if pressure stays low.  Devices must have dwelled
            # hold_down_s since their last transition (no flap).
            candidates = [name for name in active
                          if t - self._ledgers[name].since_s
                          >= cfg.hold_down_s]
            if candidates:
                victim = min(candidates,
                             key=lambda n: (outstanding.get(n, 0), n))
                self._move(t, victim, LifecycleState.CORDONED)
                self._last_sleep_s = t
            return actions
        # Pinned at min_active: DVFS-downshift one idle active instead.
        if cfg.economy_mode is None:
            return actions
        for name in active:
            led = self._ledgers[name]
            if led.mode != cfg.economy_mode and outstanding.get(name, 0) == 0:
                actions.append(("set_mode", name, cfg.economy_mode))
                break
        return actions

    def note_mode(self, t: float, name: str, mode: str,
                  idle_power_w: float | None = None) -> None:
        """Record a DVFS switch the gateway actually applied.

        ``idle_power_w`` is the device's idle floor *at the new mode*
        (the gateway reads it off the rebuilt engine); passing it keeps
        the idle ledger priced at the mode actually in effect, so a
        mode with a lower floor genuinely saves idle energy.  Omitted,
        the previous floor keeps being charged.
        """
        led = self._ledgers[name]
        if led.mode == mode:
            if idle_power_w is not None:
                led.idle_w_now = float(idle_power_w)
            return
        self._settle_energy(t, name)
        # The transition pause is priced at the floor being left.
        self._dvfs_energy_j += led.idle_w_now * self.config.dvfs_transition_s
        led.mode = mode
        if idle_power_w is not None:
            led.idle_w_now = float(idle_power_w)
        self.dvfs_switches += 1

    # -- the energy ledger ------------------------------------------------
    def report(self, end_s: float) -> AutoscaleReport:
        """Close the ledger at ``end_s`` and price the run.

        Idle-floor accounting: awake states draw the device's idle
        power *at its mode in effect* (the serving engine prices only
        busy energy, so the floor is additive; :meth:`note_mode`
        re-prices the floor on every DVFS switch), ASLEEP draws
        ``sleep_power_w``, each *started* wake costs ``wake_energy_j``
        (a crash-aborted wake has still burned its boot power), and
        each DVFS switch a ``dvfs_transition_s`` pause at the floor
        being left.  The always-on baseline is every device's
        spec-mode idle floor over the whole run.  Non-mutating: the
        open tail past each device's last settlement is priced without
        closing it, so the ledger may be re-read.
        """
        idle_j = sleep_j = active_s = asleep_s = 0.0
        always_on_j = 0.0
        for name in self.names:
            led = self._ledgers[name]
            in_state = dict(led.in_state_s)
            in_state[led.state] = (in_state.get(led.state, 0.0)
                                   + max(end_s - led.since_s, 0.0))
            awake_s = sum(in_state[s] for s in AWAKE_STATES)
            slept_s = in_state[LifecycleState.ASLEEP]
            tail_s = max(end_s - led.energy_since_s, 0.0)
            idle_j += led.idle_j
            sleep_j += led.sleep_j
            if led.state in AWAKE_STATES:
                idle_j += led.idle_w_now * tail_s
            else:
                sleep_j += self.config.sleep_power_w * tail_s
            active_s += awake_s
            asleep_s += slept_s
            always_on_j += self._idle_w[name] * end_s
        wake_j = self.wake_starts * self.config.wake_energy_j
        saved = always_on_j - (idle_j + sleep_j + wake_j
                               + self._dvfs_energy_j)
        return AutoscaleReport(
            wakes=self.wakes,
            sleeps=self.sleeps,
            drains_completed=self.drains_completed,
            drain_evacuations=self.drain_evacuations,
            dvfs_switches=self.dvfs_switches,
            crashes_draining=self.crashes_draining,
            crashes_waking=self.crashes_waking,
            transitions=len(self.transitions),
            active_device_s=active_s,
            asleep_device_s=asleep_s,
            idle_energy_j=idle_j,
            sleep_energy_j=sleep_j,
            wake_energy_j=wake_j,
            dvfs_energy_j=self._dvfs_energy_j,
            always_on_idle_energy_j=always_on_j,
            energy_saved_j=saved,
            final_states=tuple(
                (name, self._ledgers[name].state.value)
                for name in self.names),
        )
