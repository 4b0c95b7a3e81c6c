"""Per-device circuit breakers for the gateway.

Routing a flash crowd by queue depth alone piles work onto the sickest
device: a flapping or thermally capped box reports a short queue exactly
because it is failing to make progress.  The gateway therefore keeps a
:class:`CircuitBreaker` per device, fed by that device's failures and
its completions.  Only slowed service counts against a device, never
queueing: a busy but healthy device is the router's problem.

The breaker is the classic three-state machine, made deterministic for
the simulator:

* ``CLOSED`` — traffic flows.  Consecutive failures (evacuations,
  timeouts) or consecutive slowed-service completions trip it ``OPEN``.
* ``OPEN`` — the device is skipped by routing.  After a cool-down whose
  jitter is drawn from a seeded per-device RNG (so reruns are
  byte-identical but devices don't probe in lockstep), the first
  ``allow`` transitions to ``HALF_OPEN``.
* ``HALF_OPEN`` — a bounded number of probe requests are admitted.
  ``probe_successes`` consecutive good completions close the breaker;
  any failure or slowed completion re-opens it and restarts the
  cool-down.

Legal transitions are exactly ``CLOSED→OPEN``, ``OPEN→HALF_OPEN``,
``HALF_OPEN→CLOSED`` and ``HALF_OPEN→OPEN``; every transition is
appended to :attr:`CircuitBreaker.transitions` so property tests can
verify the machine never takes an illegal edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class BreakerState(enum.Enum):
    """Circuit-breaker state."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: The only edges the breaker state machine may take.
LEGAL_TRANSITIONS = frozenset({
    (BreakerState.CLOSED, BreakerState.OPEN),
    (BreakerState.OPEN, BreakerState.HALF_OPEN),
    (BreakerState.HALF_OPEN, BreakerState.CLOSED),
    (BreakerState.HALF_OPEN, BreakerState.OPEN),
})

#: A completion spikes when ``SPIKE_FACTOR * slowdown_s >= service_s``:
#: derated clocks at least doubled its service.
SPIKE_FACTOR = 2.0


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds for the per-device circuit breakers."""

    #: Consecutive failures (evacuation/timeout) that trip the breaker.
    failure_threshold: int = 3
    #: Validated, but nothing reads it: a spike is slowed service.
    latency_spike_s: float = 30.0
    #: Consecutive slowed-service completions that trip the breaker.
    spike_threshold: int = 5
    #: Base cool-down before an open breaker admits probes (s).
    cooldown_s: float = 2.0
    #: Max fractional seeded jitter added to each cool-down.
    cooldown_jitter: float = 0.25
    #: Probes admitted while half-open.
    max_probes: int = 2
    #: Consecutive probe successes that close the breaker.
    probe_successes: int = 2

    def __post_init__(self) -> None:
        # ``not x > 0`` and the like also reject NaN, which fails every
        # comparison.
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if not self.latency_spike_s > 0:
            raise ValueError("latency_spike_s must be positive")
        if self.spike_threshold < 1:
            raise ValueError("spike_threshold must be at least 1")
        if not self.cooldown_s > 0:
            raise ValueError("cooldown_s must be positive")
        if not self.cooldown_jitter >= 0:
            raise ValueError("cooldown_jitter must be non-negative")
        if self.max_probes < 1:
            raise ValueError("max_probes must be at least 1")
        if not 1 <= self.probe_successes <= self.max_probes:
            raise ValueError(
                "probe_successes must be in [1, max_probes]")


class CircuitBreaker:
    """Deterministic three-state breaker for one device.

    The gateway derives the seed from ``(seed, device name)`` through
    :func:`breaker_seed`, so a fleet of breakers probes deterministically
    but not in lockstep, and reruns reproduce byte-identical probe
    schedules.
    """

    def __init__(self, config: HealthConfig | None = None, *, seed: int = 0):
        self.config = config or HealthConfig()
        self.state = BreakerState.CLOSED
        self.transitions: list[tuple[float, BreakerState, BreakerState]] = []
        self._rng = np.random.default_rng(seed)
        self._consecutive_failures = 0
        self._consecutive_spikes = 0
        self._probe_until = 0.0  # end of the current cool-down
        self._probes_admitted = 0
        self._probe_wins = 0

    # ------------------------------------------------------------------
    def _move(self, t: float, new: BreakerState) -> None:
        if (self.state, new) not in LEGAL_TRANSITIONS:
            raise RuntimeError(
                f"illegal breaker transition {self.state} -> {new}")
        self.transitions.append((t, self.state, new))
        self.state = new

    def _open(self, t: float) -> None:
        jitter = 1.0 + float(self._rng.uniform(0.0, self.config.cooldown_jitter))
        self._probe_until = t + self.config.cooldown_s * jitter
        self._consecutive_failures = 0
        self._consecutive_spikes = 0
        self._move(t, BreakerState.OPEN)

    # ------------------------------------------------------------------
    def admits(self, t: float) -> bool:
        """Whether this device is a routing candidate at ``t``.

        Non-consuming: performs the cool-down-expiry ``OPEN →
        HALF_OPEN`` transition but does not burn a probe slot, so the
        gateway can check many candidates per event without depleting
        the probe budget.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if t < self._probe_until:
                return False
            self._probes_admitted = 0
            self._probe_wins = 0
            self._move(t, BreakerState.HALF_OPEN)
        return self._probes_admitted < self.config.max_probes

    def allow(self, t: float) -> bool:
        """Consuming admission: :meth:`admits` plus probe accounting.

        Call exactly once per request actually routed to the device.
        """
        if not self.admits(t):
            return False
        if self.state is BreakerState.HALF_OPEN:
            self._probes_admitted += 1
        return True

    def record_success(self, t: float, service_s: float,
                       slowdown_s: float) -> None:
        """One completion: its attempt's service and derating seconds."""
        self._consecutive_failures = 0
        spike = slowdown_s > 0 and SPIKE_FACTOR * slowdown_s >= service_s
        self._consecutive_spikes = self._consecutive_spikes + 1 if spike else 0
        if self.state is BreakerState.HALF_OPEN:
            if spike:
                self._open(t)
                return
            self._probe_wins += 1
            if self._probe_wins >= self.config.probe_successes:
                self._move(t, BreakerState.CLOSED)
        elif (self.state is BreakerState.CLOSED
              and self._consecutive_spikes >= self.config.spike_threshold):
            self._open(t)

    def record_failure(self, t: float) -> None:
        """One failure (evacuation, timeout, probe loss) on this device."""
        self._consecutive_spikes = 0
        if self.state is BreakerState.HALF_OPEN:
            self._open(t)
            return
        self._consecutive_failures += 1
        if (self.state is BreakerState.CLOSED
                and self._consecutive_failures
                >= self.config.failure_threshold):
            self._open(t)


def breaker_seed(seed: int, name: str) -> int:
    """The breaker RNG seed for device ``name`` in a fleet seeded ``seed``.

    Derived from ``(seed, name)`` so a fleet's breakers are decorrelated
    yet independent of device order.
    """
    digest = int.from_bytes(name.encode("utf-8")[-8:].rjust(8, b"\0"), "big")
    return (seed * 1_000_003 + digest) % (2 ** 63)
