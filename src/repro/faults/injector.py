"""Deterministic, seeded fault-event scheduler.

Edge deployments are not fault-free: thermally limited Jetsons derate
clocks, DVFS governors drop power modes under battery or cap pressure,
co-resident workloads steal memory bandwidth and DRAM, and requests are
lost to transient engine failures.  :class:`FaultInjector` turns those
hazards into a *deterministic* schedule — generated once from a seed at
construction and read-only afterwards — so chaos experiments reproduce
bit-for-bit across runs.

Four fault kinds are scheduled as timed episodes:

* ``THERMAL`` — an exogenous thermal-throttle episode (heat soak,
  blocked airflow): clocks derate to ``magnitude`` of nominal.
* ``DVFS`` — a power-mode drop (battery saver, envelope cap): clocks
  derate to the mode's compute scale (see
  :data:`repro.hardware.soc._MODE_COMPUTE_SCALE` for realistic values).
* ``TRANSIENT`` — a short kernel slowdown (paging, contention).
* ``KV_PRESSURE`` — a co-tenant grabs ``magnitude`` of the paged
  KV-cache blocks for the episode, forcing preemptions.

Request aborts are not episodes: :meth:`should_abort` decides per
(request, attempt) via a stable hash, mirroring the deterministic
kernel-variant jitter in :mod:`repro.hardware.kernels`.

Pipeline chaos (:class:`PipelineFaultConfig`) extends the injector to
the artifact pipeline: per-producer transient exceptions,
hang-until-timeout stalls, and corrupt-cache-entry faults, each
decided by a stable hash of ``(seed, producer, attempt)`` so a chaos
sweep replays bit-for-bit.  The pipeline supervisor and the artifact
store query these at their execution/persistence seams.

Fleet chaos (:class:`FleetFaultConfig` + :class:`FleetFaultSchedule`)
lifts the same determinism to *device-level* failures: whole-device
crashes (the gateway must evacuate and re-route in-flight work) and
brownouts (a device-local clock derate, delivered to that device's
simulator as a per-device :class:`FaultInjector` built with
:meth:`FaultInjector.from_events`).  The schedule is drawn once from
``(sorted device names, seed)``, so it is invariant to device
construction order — a requirement of the fleet determinism gate.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

#: Slowest the composed derating is allowed to make the machine.
MIN_SPEED_FACTOR = 0.05


class FaultKind(enum.Enum):
    """Category of an injected fault episode."""

    THERMAL = "thermal"
    DVFS = "dvfs"
    TRANSIENT = "transient"
    KV_PRESSURE = "kv_pressure"


#: Kinds whose magnitude is a clock-speed multiplier.
SLOWDOWN_KINDS = (FaultKind.THERMAL, FaultKind.DVFS, FaultKind.TRANSIENT)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault episode."""

    kind: FaultKind
    start_s: float
    duration_s: float
    #: Speed multiplier in (0, 1] for slowdown kinds; fraction of total
    #: KV blocks withheld for ``KV_PRESSURE``.
    magnitude: float

    @property
    def end_s(self) -> float:
        """When the episode clears."""
        return self.start_s + self.duration_s

    def active_at(self, t: float) -> bool:
        """Whether the episode covers time ``t``."""
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class FaultScheduleConfig:
    """Episode counts, magnitudes, and durations for one schedule.

    Episode start times are drawn uniformly over ``[0, horizon_s)`` and
    durations uniformly over each kind's range.  Setting a count to zero
    disables that kind; ``abort_rate`` is the per-request probability of
    a transient abort on the first attempt.
    """

    horizon_s: float = 600.0
    thermal_episodes: int = 2
    thermal_speed: float = 0.6
    thermal_duration_s: tuple[float, float] = (20.0, 60.0)
    dvfs_drops: int = 1
    dvfs_speed: float = 0.48
    dvfs_duration_s: tuple[float, float] = (15.0, 45.0)
    transient_slowdowns: int = 3
    transient_speed: float = 0.8
    transient_duration_s: tuple[float, float] = (2.0, 8.0)
    kv_pressure_spikes: int = 1
    kv_pressure_fraction: float = 0.5
    kv_pressure_duration_s: tuple[float, float] = (10.0, 30.0)
    abort_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        for name in ("thermal_speed", "dvfs_speed", "transient_speed"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0.0 <= self.kv_pressure_fraction <= 1.0:
            raise ValueError("kv_pressure_fraction must be in [0, 1]")
        if not 0.0 <= self.abort_rate <= 1.0:
            raise ValueError("abort_rate must be in [0, 1]")


@dataclass(frozen=True)
class PipelineFaultConfig:
    """Producer-level fault rates for artifact-pipeline chaos.

    ``producer_fail_rate`` is the per-attempt probability of a
    transient injected exception; only the first
    ``producer_fail_attempts`` attempts of a producer can fail, so a
    retry budget larger than that always recovers.  ``hang_rate``
    stalls the first attempt for ``hang_seconds`` before computing
    (tripping the supervisor's watchdog when one is armed), and
    ``cache_corrupt_rate`` garbles a producer's freshly written disk
    entry so the next cold load must detect it.
    """

    producer_fail_rate: float = 0.0
    producer_fail_attempts: int = 1
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    cache_corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("producer_fail_rate", "hang_rate",
                     "cache_corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.producer_fail_attempts < 1:
            raise ValueError("producer_fail_attempts must be >= 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")


#: Device-fault kinds.  ``crash`` and ``flap`` take the device *down*
#: (in-flight work orphaned; a flap is one window of a down/up cycle);
#: ``brownout`` is a transient slowdown (device-local latency
#: multiplier) and ``thermal`` a temporary power-mode cap (clock derate
#: via :func:`repro.hardware.thermal.power_mode_speed_factor`).
DEVICE_FAULT_KINDS = ("crash", "flap", "brownout", "thermal")

#: Kinds that take the device offline (the gateway evacuates work).
DOWN_KINDS = ("crash", "flap")


@dataclass(frozen=True)
class DeviceFault:
    """One timed device-level fault in a fleet schedule."""

    device: str
    #: One of :data:`DEVICE_FAULT_KINDS`.
    kind: str
    start_s: float
    #: Outage/episode length; ``math.inf`` models a device that never
    #: recovers (the gateway must shed, not park, behind it).
    duration_s: float
    #: Clock-speed multiplier for brownout/thermal; unused for downs.
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DEVICE_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {DEVICE_FAULT_KINDS}")
        # A NaN or negative start would silently never fire (event
        # sorting and time comparisons both reject it); fail loudly at
        # construction instead.  duration_s may be math.inf (a device
        # that never recovers) but not NaN.
        if math.isnan(self.start_s) or math.isinf(self.start_s) \
                or self.start_s < 0:
            raise ValueError("start_s must be finite and non-negative")
        if math.isnan(self.duration_s) or self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    @property
    def end_s(self) -> float:
        """When the device recovers."""
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class FleetFaultConfig:
    """Device-level fault counts and windows for one fleet schedule.

    Crash start times are drawn uniformly inside ``crash_window`` (as
    fractions of ``horizon_s``), defaulting to the middle of the run so
    a crash reliably lands while devices hold in-flight work — the
    non-vacuity requirement of the fleet chaos gate.  Brownouts are
    drawn over the whole horizon.
    """

    horizon_s: float = 60.0
    device_crashes: int = 1
    crash_duration_s: tuple[float, float] = (10.0, 30.0)
    crash_window: tuple[float, float] = (0.2, 0.6)
    #: Transient device-local slowdowns (latency multiplier episodes).
    brownouts: int = 0
    brownout_speed: float = 0.5
    brownout_duration_s: tuple[float, float] = (5.0, 20.0)
    #: Devices that *flap*: repeated down/up cycles instead of one
    #: clean crash.  Each flapping device goes down ``flap_cycles``
    #: times, each outage drawn from ``flap_down_s`` and separated by
    #: an up interval drawn from ``flap_up_s``.
    flapping_devices: int = 0
    flap_cycles: int = 3
    flap_down_s: tuple[float, float] = (1.0, 3.0)
    flap_up_s: tuple[float, float] = (1.0, 4.0)
    flap_window: tuple[float, float] = (0.1, 0.5)
    #: Thermal-throttle episodes: the firmware pins a device to a lower
    #: power mode until the junction cools (a temporary power-mode cap
    #: derating clocks via ``hardware.thermal.power_mode_speed_factor``).
    thermal_throttles: int = 0
    thermal_mode: str = "15W"
    thermal_duration_s: tuple[float, float] = (4.0, 12.0)

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if min(self.device_crashes, self.brownouts, self.flapping_devices,
               self.thermal_throttles) < 0:
            raise ValueError("fault counts must be non-negative")
        if not 0.0 < self.brownout_speed <= 1.0:
            raise ValueError("brownout_speed must be in (0, 1]")
        if self.flap_cycles < 1:
            raise ValueError("flap_cycles must be >= 1")
        for name in ("crash_window", "flap_window"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi <= 1")
        from repro.hardware.soc import PowerMode

        PowerMode(self.thermal_mode)  # raises ValueError on unknown modes


class FleetFaultSchedule:
    """Seeded schedule of device crashes and brownouts for a fleet.

    The draw depends only on the *sorted* device names and the seed, so
    two fleets built from the same devices in different construction
    orders see the identical schedule (the device-order-invariance
    property the fleet gate enforces).  Like :class:`FaultInjector`,
    the schedule is read-only after construction.
    """

    def __init__(self, device_names: "list[str] | tuple[str, ...]",
                 config: FleetFaultConfig | None = None, seed: int = 0,
                 events: "list[DeviceFault] | tuple[DeviceFault, ...] | None"
                 = None):
        names = tuple(sorted(device_names))
        if not names:
            raise ValueError("a fleet fault schedule needs device names")
        if len(set(names)) != len(names):
            raise ValueError("device names must be unique")
        self.device_names = names
        self.config = config or FleetFaultConfig()
        self.seed = seed
        cfg = self.config
        rng = np.random.default_rng(seed)
        # Explicit events (targeted chaos: e.g. a crash aimed at a
        # device mid-drain) join the seeded draw; an event naming a
        # device outside the fleet would silently never fire, so it is
        # rejected here (time validity is DeviceFault's own contract).
        explicit = tuple(events) if events is not None else ()
        for event in explicit:
            if event.device not in names:
                raise ValueError(
                    f"fault event names unknown device {event.device!r}; "
                    f"fleet devices are {names}")
        events: list[DeviceFault] = list(explicit)
        lo, hi = cfg.crash_window
        for _ in range(cfg.device_crashes):
            device = names[int(rng.integers(len(names)))]
            start = float(rng.uniform(lo * cfg.horizon_s, hi * cfg.horizon_s))
            duration = float(rng.uniform(*cfg.crash_duration_s))
            events.append(DeviceFault(device, "crash", start, duration))
        for _ in range(cfg.brownouts):
            device = names[int(rng.integers(len(names)))]
            start = float(rng.uniform(0.0, cfg.horizon_s))
            duration = float(rng.uniform(*cfg.brownout_duration_s))
            events.append(DeviceFault(device, "brownout", start, duration,
                                      magnitude=cfg.brownout_speed))
        # Flapping devices are drawn *distinct* so "2 flapping devices"
        # means two different boards cycling, not one twice as noisy.
        flappers = min(cfg.flapping_devices, len(names))
        flap_lo, flap_hi = cfg.flap_window
        for device_index in rng.permutation(len(names))[:flappers]:
            device = names[int(device_index)]
            t = float(rng.uniform(flap_lo * cfg.horizon_s,
                                  flap_hi * cfg.horizon_s))
            for _ in range(cfg.flap_cycles):
                down = float(rng.uniform(*cfg.flap_down_s))
                events.append(DeviceFault(device, "flap", t, down))
                t += down + float(rng.uniform(*cfg.flap_up_s))
        if cfg.thermal_throttles:
            from repro.hardware.thermal import power_mode_speed_factor

            derate = power_mode_speed_factor(cfg.thermal_mode)
            for _ in range(cfg.thermal_throttles):
                device = names[int(rng.integers(len(names)))]
                start = float(rng.uniform(0.0, cfg.horizon_s))
                duration = float(rng.uniform(*cfg.thermal_duration_s))
                events.append(DeviceFault(device, "thermal", start, duration,
                                          magnitude=derate))
        self.events: tuple[DeviceFault, ...] = tuple(
            sorted(events, key=lambda e: (e.start_s, e.device, e.kind)))

    # ------------------------------------------------------------------
    def crashes(self) -> tuple[DeviceFault, ...]:
        """All single-crash events, in start order."""
        return tuple(e for e in self.events if e.kind == "crash")

    def downs(self) -> tuple[DeviceFault, ...]:
        """Every event that takes a device offline (crashes + flaps)."""
        return tuple(e for e in self.events if e.kind in DOWN_KINDS)

    def flapping(self) -> tuple[str, ...]:
        """Sorted names of devices with at least one flap cycle."""
        return tuple(sorted({e.device for e in self.events
                             if e.kind == "flap"}))

    def thermal_events(self) -> tuple[DeviceFault, ...]:
        """All thermal power-mode-cap episodes, in start order."""
        return tuple(e for e in self.events if e.kind == "thermal")

    def brownouts_for(self, device: str) -> tuple[DeviceFault, ...]:
        """One device's brownout episodes."""
        return tuple(e for e in self.events
                     if e.kind == "brownout" and e.device == device)

    def injector_for(self, device: str) -> "FaultInjector | None":
        """A per-device injector carrying this device's derate episodes.

        Brownouts become ``TRANSIENT`` slowdowns and thermal caps become
        ``THERMAL`` episodes at the capped mode's compute scale.  None
        when the device has neither, so fault-free devices keep the
        fast (span-priced) serving path.
        """
        events = [FaultEvent(FaultKind.TRANSIENT, e.start_s,
                             e.duration_s, e.magnitude)
                  for e in self.brownouts_for(device)]
        events.extend(FaultEvent(FaultKind.THERMAL, e.start_s,
                                 e.duration_s, e.magnitude)
                      for e in self.thermal_events() if e.device == device)
        if not events:
            return None
        return FaultInjector.from_events(tuple(events), seed=self.seed)


class FaultInjector:
    """Seeded fault schedule: query-only after construction.

    All methods are pure reads, so one injector can drive many serving
    runs and every run sees the identical schedule.  ``pipeline``
    (a :class:`PipelineFaultConfig`) additionally arms the
    producer-level chaos queried by the artifact pipeline; without it
    every ``should_*_producer`` / ``should_corrupt_cache`` query is
    ``False``.
    """

    def __init__(self, config: FaultScheduleConfig | None = None,
                 seed: int = 0,
                 pipeline: PipelineFaultConfig | None = None):
        self.config = config or FaultScheduleConfig()
        self.pipeline = pipeline
        self.seed = seed
        rng = np.random.default_rng(seed)
        cfg = self.config
        events: list[FaultEvent] = []
        for kind, count, magnitude, span in (
            (FaultKind.THERMAL, cfg.thermal_episodes, cfg.thermal_speed,
             cfg.thermal_duration_s),
            (FaultKind.DVFS, cfg.dvfs_drops, cfg.dvfs_speed,
             cfg.dvfs_duration_s),
            (FaultKind.TRANSIENT, cfg.transient_slowdowns,
             cfg.transient_speed, cfg.transient_duration_s),
            (FaultKind.KV_PRESSURE, cfg.kv_pressure_spikes,
             cfg.kv_pressure_fraction, cfg.kv_pressure_duration_s),
        ):
            for _ in range(count):
                start = float(rng.uniform(0.0, cfg.horizon_s))
                duration = float(rng.uniform(*span))
                events.append(FaultEvent(kind, start, duration, magnitude))
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start_s, e.kind.value)))
        boundaries = sorted({e.start_s for e in self.events}
                            | {e.end_s for e in self.events})
        self._boundaries: tuple[float, ...] = tuple(boundaries)

    @classmethod
    def from_events(cls, events: "tuple[FaultEvent, ...] | list[FaultEvent]",
                    seed: int = 0,
                    pipeline: PipelineFaultConfig | None = None,
                    ) -> "FaultInjector":
        """Build an injector around an explicit episode list.

        Bypasses the seeded draw: the given episodes *are* the schedule
        (a fleet schedule uses this to hand each device exactly its own
        brownouts).  ``seed`` still feeds the stable per-request hashes;
        the config is all-zeros, so no extra episodes or aborts appear.
        """
        injector = cls.__new__(cls)
        injector.config = FaultScheduleConfig(
            thermal_episodes=0, dvfs_drops=0, transient_slowdowns=0,
            kv_pressure_spikes=0)
        injector.pipeline = pipeline
        injector.seed = seed
        injector.events = tuple(
            sorted(events, key=lambda e: (e.start_s, e.kind.value)))
        boundaries = sorted({e.start_s for e in injector.events}
                            | {e.end_s for e in injector.events})
        injector._boundaries = tuple(boundaries)
        return injector

    # ------------------------------------------------------------------
    def speed_factor(self, t: float) -> float:
        """Composed clock-speed multiplier at time ``t``.

        Overlapping slowdown episodes multiply (a DVFS drop during a
        thermal soak is slower than either), floored at
        :data:`MIN_SPEED_FACTOR`.
        """
        speed = 1.0
        for event in self.events:
            if event.kind in SLOWDOWN_KINDS and event.active_at(t):
                speed *= event.magnitude
        return max(speed, MIN_SPEED_FACTOR)

    def kv_pressure_fraction(self, t: float) -> float:
        """Fraction of KV blocks withheld by pressure spikes at ``t``."""
        fractions = [e.magnitude for e in self.events
                     if e.kind is FaultKind.KV_PRESSURE and e.active_at(t)]
        return min(max(fractions, default=0.0), 1.0)

    def _unit(self, token: str) -> float:
        """Stable hash of ``seed:token`` mapped into [0, 1)."""
        digest = hashlib.sha256(f"{self.seed}:{token}".encode()).digest()
        return int.from_bytes(digest[:8], "little") / 2**64

    def should_abort(self, request_id: int, attempt: int) -> bool:
        """Whether this (request, attempt) hits a transient abort.

        Aborts are transient: only the first attempt can fail, so a
        retry under a degradation policy always recovers.  The decision
        is a stable hash of (seed, request id), not RNG state, so it is
        identical across runs and unaffected by query order.
        """
        if attempt != 1 or self.config.abort_rate <= 0:
            return False
        return self._unit(f"abort:{request_id}") < self.config.abort_rate

    # ------------------------------------------------------------------
    # pipeline chaos (producer-level fault specs)
    # ------------------------------------------------------------------
    def should_fail_producer(self, producer_id: str, attempt: int) -> bool:
        """Whether this producer attempt hits an injected exception.

        Transient by construction: attempts past
        ``producer_fail_attempts`` never fail, so a supervisor retry
        budget of at least that many extra attempts always recovers.
        """
        pipeline = self.pipeline
        if pipeline is None or pipeline.producer_fail_rate <= 0:
            return False
        if attempt > pipeline.producer_fail_attempts:
            return False
        return (self._unit(f"pfail:{producer_id}:{attempt}")
                < pipeline.producer_fail_rate)

    def should_hang_producer(self, producer_id: str, attempt: int) -> bool:
        """Whether this producer attempt stalls for ``hang_seconds``.

        Only the first attempt can hang; the retry after the watchdog
        fires computes cleanly.
        """
        pipeline = self.pipeline
        if pipeline is None or pipeline.hang_rate <= 0 or attempt != 1:
            return False
        return self._unit(f"phang:{producer_id}") < pipeline.hang_rate

    def should_corrupt_cache(self, producer_id: str) -> bool:
        """Whether this producer's fresh disk entry gets garbled."""
        pipeline = self.pipeline
        if pipeline is None or pipeline.cache_corrupt_rate <= 0:
            return False
        return (self._unit(f"pcorrupt:{producer_id}")
                < pipeline.cache_corrupt_rate)

    def next_boundary_after(self, t: float) -> float | None:
        """Next episode start/end strictly after ``t`` (None when past all).

        Lets an idle server fast-forward to the moment a blocking episode
        (e.g. KV pressure) clears.
        """
        for boundary in self._boundaries:
            if boundary > t:
                return boundary
        return None
