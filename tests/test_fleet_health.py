"""Breaker state machine, the pressure ladder, and brownout admission.

The hypothesis suite drives :class:`CircuitBreaker` through arbitrary
seeded traffic/failure sequences and asserts the machine only ever
takes edges in :data:`LEGAL_TRANSITIONS` — the invariant the gateway's
self-healing rests on — and drives the one hysteretic
:class:`PressureLadder` through both configs that parameterize it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.request import GenerationRequest
from repro.fleet import (
    BreakerState,
    BrownoutConfig,
    BrownoutController,
    CircuitBreaker,
    FleetGateway,
    HealthConfig,
    build_fleet,
)
from repro.fleet.brownout import MAX_TIER, PressureLadder
from repro.fleet.health import LEGAL_TRANSITIONS, breaker_seed
from repro.tiering import TieringConfig

# One observation fed to the breaker: a completion (its service time
# and the share of it spent derated), a failure, or a (consuming)
# admission attempt.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("success"),
                  st.tuples(st.floats(0.1, 120.0), st.floats(0.0, 1.0))),
        st.tuples(st.just("failure"), st.just(0.0)),
        st.tuples(st.just("allow"), st.just(0.0)),
    ),
    min_size=1, max_size=60)


def _drive(breaker, ops, dt=1.0):
    """Replay an op sequence at fixed time steps; returns final time."""
    t = 0.0
    for op, value in ops:
        t += dt
        if op == "success":
            service, derated = value
            breaker.record_success(t, service, derated * service)
        elif op == "failure":
            breaker.record_failure(t)
        else:
            breaker.allow(t)
    return t


class TestBreakerStateMachine:
    @given(ops=_ops, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_only_legal_transitions(self, ops, seed):
        breaker = CircuitBreaker(seed=seed)
        _drive(breaker, ops)
        for _, src, dst in breaker.transitions:
            assert (src, dst) in LEGAL_TRANSITIONS

    @given(ops=_ops, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_transitions_chain(self, ops, seed):
        breaker = CircuitBreaker(seed=seed)
        _drive(breaker, ops)
        state = BreakerState.CLOSED
        for _, src, dst in breaker.transitions:
            assert src == state
            state = dst
        assert state == breaker.state

    @given(ops=_ops, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_same_seed_replays_identically(self, ops, seed):
        a = CircuitBreaker(seed=seed)
        b = CircuitBreaker(seed=seed)
        _drive(a, ops)
        _drive(b, ops)
        assert a.transitions == b.transitions
        assert a.state == b.state

    def test_illegal_edge_raises(self):
        breaker = CircuitBreaker()
        with pytest.raises(RuntimeError):
            breaker._move(0.0, BreakerState.HALF_OPEN)  # CLOSED -> HALF_OPEN

    def test_consecutive_failures_trip_open(self):
        breaker = CircuitBreaker(HealthConfig(failure_threshold=3))
        for t in (1.0, 2.0):
            breaker.record_failure(t)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.admits(3.1)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(HealthConfig(failure_threshold=2))
        breaker.record_failure(1.0)
        breaker.record_success(2.0, 1.0, 0.0)
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.CLOSED

    def test_latency_spikes_trip_open(self):
        """A spike is a completion whose service derated clocks at least
        doubled; ``spike_threshold`` of them in a row open the breaker."""
        breaker = CircuitBreaker(HealthConfig(spike_threshold=3))
        # Mild derating (under 2x) breaks a streak.
        breaker.record_success(1.0, 10.0, 6.8)
        breaker.record_success(2.0, 10.0, 4.9)
        # A 15W cap (0.32x speed), then service exactly doubled.
        for t in (3.0, 4.0):
            breaker.record_success(t, 10.0, 6.8)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_success(5.0, 10.0, 5.0)
        assert breaker.state is BreakerState.OPEN

    def test_queueing_never_counts(self):
        # A 500 s completion served at full speed is a busy device, not
        # a sick one.
        breaker = CircuitBreaker(HealthConfig(spike_threshold=1))
        for t in range(1, 20):
            breaker.record_success(float(t), 500.0, 0.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.transitions == []

    def test_derated_probe_reopens(self):
        config = HealthConfig(failure_threshold=1, cooldown_s=1.0,
                              cooldown_jitter=0.0)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        assert breaker.allow(2.0)
        breaker.record_success(2.5, 4.0, 2.0)
        assert breaker.state is BreakerState.OPEN
        assert [dst for _, _, dst in breaker.transitions] == [
            BreakerState.OPEN, BreakerState.HALF_OPEN, BreakerState.OPEN]

    def test_probe_successes_close_the_breaker(self):
        config = HealthConfig(failure_threshold=1, cooldown_s=1.0,
                              cooldown_jitter=0.0, max_probes=2,
                              probe_successes=2)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.admits(0.5)       # still cooling down
        assert breaker.allow(2.0)            # -> HALF_OPEN, probe 1
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow(2.1)            # probe 2
        assert not breaker.allow(2.2)        # probe budget exhausted
        breaker.record_success(3.0, 1.0, 0.0)
        breaker.record_success(3.5, 1.0, 0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        config = HealthConfig(failure_threshold=1, cooldown_s=1.0,
                              cooldown_jitter=0.0)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        assert breaker.allow(2.0)
        breaker.record_failure(2.5)
        assert breaker.state is BreakerState.OPEN
        edges = [(src, dst) for _, src, dst in breaker.transitions]
        assert edges == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.OPEN),
        ]

    def test_admits_does_not_consume_probes(self):
        config = HealthConfig(failure_threshold=1, cooldown_s=1.0,
                              cooldown_jitter=0.0, max_probes=1,
                              probe_successes=1)
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        for _ in range(10):                  # candidate checks are free
            assert breaker.admits(2.0)
        assert breaker.allow(2.0)            # the one real probe
        assert not breaker.allow(2.1)

    def test_half_open_probe_times_are_seed_deterministic(self):
        def reopen_time(seed):
            breaker = CircuitBreaker(
                HealthConfig(failure_threshold=1, cooldown_jitter=1.0),
                seed=seed)
            breaker.record_failure(0.0)
            t = 0.0
            while not breaker.admits(t):
                t += 1e-3
            return t

        assert reopen_time(7) == reopen_time(7)
        # Jitter decorrelates devices: distinct seeds probe at
        # distinct times (cooldown in [2, 4) at jitter 1.0).
        assert reopen_time(7) != reopen_time(8)


class TestDeviceHealth:
    def test_breaker_seed_derives_from_name(self):
        assert breaker_seed(0, "edge-00") == breaker_seed(0, "edge-00")
        assert breaker_seed(0, "edge-00") != breaker_seed(0, "edge-01")
        # The value is part of every pinned probe schedule.
        digest = int.from_bytes(b"\0edge-00", "big")
        assert breaker_seed(0, "edge-00") == digest
        assert breaker_seed(7, "edge-00") == (7 * 1_000_003 + digest) % 2 ** 63
        gateway = FleetGateway(build_fleet(2), seed=7)
        for name, breaker in gateway.breakers.items():
            assert breaker._rng.bit_generator.state == CircuitBreaker(
                seed=breaker_seed(7, name))._rng.bit_generator.state

    def test_routable_tracks_breaker(self):
        gateway = FleetGateway(build_fleet(2),
                               health=HealthConfig(failure_threshold=1))
        assert [d.name for d in gateway._routable(0.0)] == ["edge-00",
                                                            "edge-01"]
        gateway.breakers["edge-00"].record_failure(0.0)
        gateway._topo_bump()
        assert [d.name for d in gateway._routable(0.1)] == ["edge-01"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            HealthConfig(probe_successes=3, max_probes=2)
        # NaN compares false both ways: it must not pass validation or
        # let an open breaker admit traffic at once.
        for name in ("latency_spike_s", "cooldown_s", "cooldown_jitter"):
            with pytest.raises(ValueError):
                HealthConfig(**{name: math.nan})


_exits = st.lists(st.floats(0.0, 8.0), min_size=MAX_TIER,
                  max_size=MAX_TIER).map(sorted)


class TestPressureLadder:
    @given(exits=_exits, gap=st.floats(0.1, 4.0),
           pressures=st.lists(st.floats(0.0, 15.0), min_size=1,
                              max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_one_step_hysteresis(self, exits, gap, pressures):
        # The one ladder, on brownout's and on tiering's thresholds.
        enter = tuple(x + gap for x in exits)
        exit_ = tuple(exits)
        ladders = [
            BrownoutController(BrownoutConfig(enter_pressure=enter,
                                              exit_pressure=exit_)),
            PressureLadder(TieringConfig(enter_pressure=enter,
                                         exit_pressure=exit_)),
        ]
        tier = deepest = 0
        for t, pressure in enumerate(pressures):
            # Climb one rung at its enter threshold, descend one below
            # its exit threshold, and hold in between.
            if tier < MAX_TIER and pressure >= enter[tier]:
                tier += 1
            elif tier > 0 and pressure < exit_[tier - 1]:
                tier -= 1
            deepest = max(deepest, tier)
            for ladder in ladders:
                assert ladder.observe(float(t), pressure) == tier
                assert ladder.tier == tier
                assert ladder.should_shed() == (tier == MAX_TIER)
        for ladder in ladders:
            assert ladder.max_tier_reached() == deepest
            state = 0
            for _, src, dst in ladder.transitions:
                assert src == state and abs(dst - src) == 1
                state = dst
            assert state == tier


class TestBrownoutLadder:
    def test_climbs_one_tier_per_observation(self):
        controller = BrownoutController()
        controller.observe(0.0, 100.0)       # way past every threshold
        assert controller.tier == 1
        controller.observe(1.0, 100.0)
        assert controller.tier == 2
        controller.observe(2.0, 100.0)
        assert controller.tier == MAX_TIER
        controller.observe(3.0, 100.0)       # already at the top
        assert controller.tier == MAX_TIER

    def test_hysteresis_holds_between_thresholds(self):
        config = BrownoutConfig(enter_pressure=(2.0, 4.0, 6.0),
                                exit_pressure=(1.5, 3.0, 4.5))
        controller = BrownoutController(config)
        controller.observe(0.0, 2.5)
        assert controller.tier == 1
        controller.observe(1.0, 1.8)         # between exit and enter
        assert controller.tier == 1
        controller.observe(2.0, 1.0)         # below exit
        assert controller.tier == 0

    def test_recovery_is_read_off_the_transition_log(self):
        controller = BrownoutController()
        controller.observe(0.0, 100.0)
        controller.observe(1.0, 100.0)
        assert controller.recovered_at() is None   # still degraded
        controller.observe(5.0, 0.0)
        controller.observe(6.0, 0.0)
        assert controller.tier == 0
        assert controller.recovered_at() == 6.0
        assert controller.max_tier_reached() == 2

    def test_never_degraded_has_no_recovery_time(self):
        controller = BrownoutController()
        controller.observe(0.0, 0.5)
        assert controller.recovered_at() is None
        assert controller.max_tier_reached() == 0

    def test_tier1_trims_budgets(self):
        controller = BrownoutController(
            BrownoutConfig(trim_fraction=0.5, min_budget_tokens=16))
        controller.observe(0.0, 100.0)
        trimmed = controller.admit(GenerationRequest(0, 100, 200))
        assert trimmed.max_new_tokens == 100
        assert controller.trimmed == 1

    def test_tier2_trims_harder(self):
        controller = BrownoutController(
            BrownoutConfig(trim_fraction=0.5, deep_trim_fraction=0.25))
        controller.observe(0.0, 100.0)
        controller.observe(1.0, 100.0)
        trimmed = controller.admit(GenerationRequest(0, 100, 200))
        assert trimmed.max_new_tokens == 50

    def test_trim_never_raises_an_existing_budget(self):
        controller = BrownoutController()
        controller.observe(0.0, 100.0)
        request = GenerationRequest(0, 100, 200, max_new_tokens=24)
        admitted = controller.admit(request)
        # The trim applies to the *effective* stop length (already 24
        # here), so the result can only shrink the budget.
        assert admitted.max_new_tokens <= 24

    def test_trim_respects_the_floor(self):
        controller = BrownoutController(
            BrownoutConfig(trim_fraction=0.6, min_budget_tokens=16))
        controller.observe(0.0, 100.0)
        trimmed = controller.admit(GenerationRequest(0, 100, 20))
        assert trimmed.max_new_tokens == 16

    def test_tier0_admits_untouched(self):
        controller = BrownoutController()
        request = GenerationRequest(0, 100, 200)
        assert controller.admit(request) is request
        assert controller.trimmed == 0

    def test_shed_and_downgrade_tiers(self):
        controller = BrownoutController(
            BrownoutConfig(downgrade_models=("dsr1-qwen-1.5b-awq-w4",)))
        assert not controller.should_shed()
        assert not controller.prefers_downgrade()
        for t in range(MAX_TIER):
            controller.observe(float(t), 100.0)
        assert controller.should_shed()
        assert controller.prefers_downgrade()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BrownoutConfig(enter_pressure=(4.0, 2.0, 6.0))
        with pytest.raises(ValueError):
            BrownoutConfig(exit_pressure=(2.5, 3.0, 4.5))  # >= enter[0]
        with pytest.raises(ValueError):
            BrownoutConfig(trim_fraction=0.3, deep_trim_fraction=0.6)
        with pytest.raises(ValueError):
            BrownoutConfig(min_budget_tokens=0)
