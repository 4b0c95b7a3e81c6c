"""Autoscale lifecycle state machine, arrivals, and the chaos drill.

The hypothesis suite drives :class:`AutoscaleController` through
arbitrary tick/crash/emergency sequences and asserts the machine only
ever takes edges in :data:`LEGAL_TRANSITIONS` — the invariant the
zero-loss scale-safety gate rests on.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.request import GenerationRequest
from repro.faults.injector import (
    DeviceFault,
    FleetFaultConfig,
    FleetFaultSchedule,
)
from repro.fleet import (
    LEGAL_TRANSITIONS,
    AutoscaleConfig,
    AutoscaleController,
    FleetGateway,
    FleetRequest,
    LifecycleState,
    build_fleet,
    poisson_stream,
)
from repro.fleet.autoscale import AWAKE_STATES, IllegalTransition
from repro.workloads.arrivals import (
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)

_NAMES = ("edge-00", "edge-01", "edge-02", "edge-03")

# Short holds so random drives actually reach every lifecycle state.
_FAST = AutoscaleConfig(hold_up_s=0.0, hold_down_s=2.0,
                        wake_latency_s=1.5, drain_grace_s=3.0)

# One controller operation: a tick at some pressure/backlog, a crash
# delivered to one device, or an emergency wake/activate.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.floats(0.0, 8.0),
                  st.integers(0, 6)),
        st.tuples(st.just("crash"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("ewake"), st.just(0), st.just(0)),
        st.tuples(st.just("eact"), st.just(0), st.just(0)),
    ),
    min_size=1, max_size=60)


def _drive(ctrl, ops, dt=1.0):
    """Replay an op sequence at fixed time steps; returns final time."""
    t = 0.0
    for op, a, b in ops:
        t += dt
        if op == "tick":
            ctrl.tick(t, a, outstanding={n: b for n in ctrl.names})
        elif op == "crash":
            ctrl.on_crash(t, ctrl.names[a % len(ctrl.names)])
        elif op == "ewake":
            ctrl.emergency_wake(t)
        else:
            ctrl.emergency_activate(t)
    return t


class TestLifecycleStateMachine:
    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_only_legal_transitions(self, ops):
        ctrl = AutoscaleController(_NAMES, _FAST)
        _drive(ctrl, ops)
        for _, _, src, dst in ctrl.transitions:
            assert (src, dst) in LEGAL_TRANSITIONS

    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_transitions_chain_per_device(self, ops):
        ctrl = AutoscaleController(_NAMES, _FAST)
        _drive(ctrl, ops)
        state = {name: LifecycleState.ACTIVE for name in ctrl.names}
        last_t = -math.inf
        for t, name, src, dst in ctrl.transitions:
            assert t >= last_t      # chronological log
            assert src == state[name]
            state[name] = dst
            last_t = t
        for name in ctrl.names:
            assert ctrl.state(name) == state[name]

    @given(ops=_ops)
    @settings(max_examples=100, deadline=None)
    def test_same_ops_replay_identically(self, ops):
        a = AutoscaleController(_NAMES, _FAST)
        b = AutoscaleController(_NAMES, _FAST)
        _drive(a, ops)
        _drive(b, ops)
        assert a.transitions == b.transitions
        assert [a.state(n) for n in a.names] == \
               [b.state(n) for n in b.names]

    @given(ops=_ops)
    @settings(max_examples=100, deadline=None)
    def test_ledger_covers_the_whole_run(self, ops):
        ctrl = AutoscaleController(_NAMES, _FAST)
        end = _drive(ctrl, ops) + 1.0
        report = ctrl.report(end)
        total = report.active_device_s + report.asleep_device_s
        assert total == pytest.approx(len(_NAMES) * end)
        assert report.energy_saved_j == pytest.approx(
            report.always_on_idle_energy_j
            - (report.idle_energy_j + report.sleep_energy_j
               + report.wake_energy_j + report.dvfs_energy_j))

    def test_illegal_edge_raises(self):
        ctrl = AutoscaleController(_NAMES)
        with pytest.raises(IllegalTransition):
            ctrl._move(0.0, "edge-00", LifecycleState.ASLEEP)

    def test_awake_states_cover_everything_but_asleep(self):
        assert AWAKE_STATES == frozenset(LifecycleState) - {
            LifecycleState.ASLEEP}


def _cordon_and_drain(ctrl, victim_outstanding=1):
    """Drive one device of a fresh default-config controller into
    DRAINING; returns (draining_name, time)."""
    out = {n: 3 for n in ctrl.names}
    out[ctrl.names[0]] = victim_outstanding
    ctrl.tick(10.0, 0.0, outstanding=out)       # dwell met -> cordon
    assert ctrl.state(ctrl.names[0]) is LifecycleState.CORDONED
    ctrl.tick(11.0, 0.0, outstanding=out)       # still calm -> drain
    assert ctrl.state(ctrl.names[0]) is LifecycleState.DRAINING
    return ctrl.names[0], 11.0


class TestCrashDuringTransitions:
    def test_crash_mid_drain_sleeps_and_counts(self):
        ctrl = AutoscaleController(_NAMES)
        name, t = _cordon_and_drain(ctrl)
        ctrl.on_crash(t + 0.5, name)
        assert ctrl.state(name) is LifecycleState.ASLEEP
        assert ctrl.crashes_draining == 1
        assert ctrl.sleeps == 1

    def test_crash_mid_wake_aborts_the_wake(self):
        ctrl = AutoscaleController(_NAMES)
        name, t = _cordon_and_drain(ctrl, victim_outstanding=0)
        # Empty drain completes on the next tick -> ASLEEP.
        ctrl.tick(t + 1.0, 0.0, outstanding={n: 0 for n in ctrl.names})
        assert ctrl.state(name) is LifecycleState.ASLEEP
        woken = ctrl.emergency_wake(t + 2.0)
        assert woken == name
        ctrl.on_crash(t + 2.5, name)            # before wake_latency_s
        assert ctrl.state(name) is LifecycleState.ASLEEP
        assert ctrl.crashes_waking == 1
        assert ctrl.wakes == 0                  # the wake never completed

    def test_crash_on_active_leaves_lifecycle_alone(self):
        ctrl = AutoscaleController(_NAMES)
        ctrl.on_crash(1.0, "edge-00")
        assert ctrl.state("edge-00") is LifecycleState.ACTIVE
        assert ctrl.transitions == []


class TestControllerPolicy:
    def test_proportional_wake_covers_the_backlog(self):
        ctrl = AutoscaleController(_NAMES, _FAST, capacity=4.0)
        out0 = {n: 0 for n in ctrl.names}
        # Scale three devices down to sleep (one cordon per tick).
        for t in (3.0, 6.0, 9.0):
            ctrl.tick(t, 0.0, outstanding=out0)
            ctrl.tick(t + 1.0, 0.0, outstanding=out0)
            ctrl.tick(t + 2.0, 0.0, outstanding=out0)
        assert len([n for n in ctrl.names
                    if ctrl.state(n) is LifecycleState.ASLEEP]) == 3
        # A flash crowd lands: one tick must start every wake needed.
        active = [n for n in ctrl.names
                  if ctrl.state(n) is LifecycleState.ACTIVE]
        crowd = {n: 0 for n in ctrl.names}
        crowd[active[0]] = 40                   # 40 / 1.2 >> 4 per box
        ctrl.tick(20.0, 10.0, outstanding=crowd)
        waking = [n for n in ctrl.names
                  if ctrl.state(n) is LifecycleState.WAKING]
        assert len(waking) == 3

    def test_hold_down_blocks_immediate_cordon_after_wake(self):
        ctrl = AutoscaleController(_NAMES)
        ctrl.emergency_wake(5.0)
        ctrl.tick(9.0, 0.0, outstanding={n: 0 for n in ctrl.names})
        assert all(ctrl.state(n) is not LifecycleState.CORDONED
                   for n in ctrl.names)

    def test_min_active_is_never_drained(self):
        ctrl = AutoscaleController(_NAMES, _FAST)
        out = {n: 0 for n in ctrl.names}
        for k in range(40):
            ctrl.tick(3.0 + k, 0.0, outstanding=out)
        assert ctrl.active_count() >= ctrl.config.min_active

    def test_expired_drain_emits_evacuate(self):
        ctrl = AutoscaleController(_NAMES)
        name, t = _cordon_and_drain(ctrl)
        out = {n: 0 for n in ctrl.names}
        out[name] = 2                           # never empties
        actions = ctrl.tick(t + ctrl.config.drain_grace_s, 0.0,
                            outstanding=out)
        assert ("evacuate", name) in actions
        assert ctrl.state(name) is LifecycleState.ASLEEP

    def test_scale_up_defers_upshift_on_busy_device(self):
        ctrl = AutoscaleController(_NAMES, _FAST)
        out0 = {n: 0 for n in ctrl.names}
        ctrl.tick(3.0, 0.0, outstanding=out0)   # cordon one device
        ctrl.tick(4.0, 0.0, outstanding=out0)   # -> DRAINING
        ctrl.tick(5.0, 0.0, outstanding=out0)   # -> ASLEEP
        sleeper = next(n for n in ctrl.names
                       if ctrl.state(n) is LifecycleState.ASLEEP)
        economy = next(n for n in ctrl.names
                       if ctrl.state(n) is LifecycleState.ACTIVE)
        ctrl.note_mode(5.0, economy, "30W")
        # Flash crowd with the economy device busy: no upshift may be
        # emitted (set_power_mode would raise on outstanding work);
        # capacity must come from waking the sleeper instead.
        busy = {n: 8 for n in ctrl.names}
        actions = ctrl.tick(8.0, 5.0, outstanding=busy)
        assert not [a for a in actions if a[0] == "set_mode"]
        assert ctrl.state(sleeper) is LifecycleState.WAKING
        # Once the economy device is idle again the upshift goes out.
        idle = dict(busy)
        idle[economy] = 0
        actions = ctrl.tick(9.0, 5.0, outstanding=idle)
        assert ("set_mode", economy, "MAXN") in actions

    @given(ops=st.lists(
        st.tuples(st.floats(0.0, 8.0),
                  st.tuples(*[st.integers(0, 6)] * len(_NAMES))),
        min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_set_mode_only_targets_idle_devices(self, ops):
        """The controller must never ask the gateway to DVFS-switch a
        device holding outstanding work (the switch would raise)."""
        ctrl = AutoscaleController(_NAMES, _FAST)
        t = 0.0
        for pressure, outs in ops:
            t += 1.0
            out = dict(zip(ctrl.names, outs))
            for action in ctrl.tick(t, pressure, outstanding=out):
                if action[0] == "set_mode":
                    assert out[action[1]] == 0
                    ctrl.note_mode(t, action[1], action[2])

    def test_scale_down_never_cordons_a_down_device(self):
        ctrl = AutoscaleController(_NAMES, _FAST)
        down = frozenset({"edge-00", "edge-01"})
        out = {n: 0 for n in ctrl.names}
        out["edge-03"] = 1
        # The crashed devices sort emptiest, but the cordon victim must
        # be an *up* active.
        ctrl.tick(3.0, 0.0, down=down, outstanding=out)
        assert ctrl.state("edge-02") is LifecycleState.CORDONED
        assert ctrl.state("edge-00") is LifecycleState.ACTIVE
        assert ctrl.state("edge-01") is LifecycleState.ACTIVE

    def test_down_devices_cannot_carry_min_active(self):
        ctrl = AutoscaleController(_NAMES, _FAST)
        down = frozenset({"edge-00", "edge-01", "edge-02"})
        out = {n: 0 for n in ctrl.names}
        for k in range(10):
            ctrl.tick(3.0 + k, 0.0, down=down, outstanding=out)
        # The only healthy device is the min_active floor: it must not
        # be drained away while crashed actives satisfy the quota.
        assert ctrl.state("edge-03") is LifecycleState.ACTIVE

    def test_max_cycles_bound_grows_with_duration(self):
        ctrl = AutoscaleController(_NAMES)
        assert ctrl.max_cycles_bound(0.0) == 1
        period = ctrl.config.hold_down_s + ctrl.config.hold_up_s
        assert ctrl.max_cycles_bound(10 * period) == 11

    def test_aborted_wake_still_charges_boot_energy(self):
        ctrl = AutoscaleController(_NAMES)
        name, t = _cordon_and_drain(ctrl, victim_outstanding=0)
        ctrl.tick(t + 1.0, 0.0, outstanding={n: 0 for n in ctrl.names})
        assert ctrl.state(name) is LifecycleState.ASLEEP
        ctrl.emergency_wake(t + 2.0)
        ctrl.on_crash(t + 2.5, name)            # abort mid-wake
        report = ctrl.report(t + 3.0)
        # The cold boot burned real power even though it never finished.
        assert report.wakes == 0
        assert report.wake_energy_j == pytest.approx(
            ctrl.config.wake_energy_j)

    def test_note_mode_reprices_idle_floor(self):
        cfg = AutoscaleConfig(dvfs_transition_s=0.0)
        ctrl = AutoscaleController(("a", "b"), cfg, idle_power_w=4.0)
        ctrl.note_mode(10.0, "a", "30W", idle_power_w=1.0)
        report = ctrl.report(20.0)
        # a: 10 s at 4 W then 10 s at 1 W; b: 20 s at 4 W.
        assert report.idle_energy_j == pytest.approx(40.0 + 10.0 + 80.0)
        assert report.dvfs_switches == 1
        # A floor below the always-on baseline means DVFS can *save*.
        assert report.energy_saved_j == pytest.approx(160.0 - 130.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(scale_up_pressure=0.0)
        with pytest.raises(ValueError):
            AutoscaleConfig(scale_down_pressure=2.0)  # >= scale_up
        with pytest.raises(ValueError):
            AutoscaleConfig(min_active=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(economy_mode="9000W")
        with pytest.raises(ValueError):
            AutoscaleController(("a",), AutoscaleConfig(min_active=2))


class TestArrivalGenerators:
    def test_diurnal_is_sorted_and_sized(self):
        rng = np.random.default_rng(0)
        arrivals = diurnal_arrivals(rng, 1.0, 5.0, 60.0, 200)
        assert len(arrivals) == 200
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[0] >= 0

    def test_diurnal_peak_is_denser_than_trough(self):
        rng = np.random.default_rng(3)
        period = 100.0
        arrivals = diurnal_arrivals(rng, 0.5, 8.0, period, 400)
        phase = np.mod(arrivals, period) / period
        trough = np.sum((phase < 0.125) | (phase > 0.875))
        peak = np.sum((phase > 0.375) & (phase < 0.625))
        assert peak > 2 * trough

    def test_diurnal_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            diurnal_arrivals(rng, 0.0, 5.0, 60.0, 10)
        with pytest.raises(ValueError):
            diurnal_arrivals(rng, 2.0, 1.0, 60.0, 10)  # peak < base
        with pytest.raises(ValueError):
            diurnal_arrivals(rng, 1.0, 5.0, 0.0, 10)
        with pytest.raises(ValueError):
            diurnal_arrivals(rng, 1.0, 5.0, 60.0, -1)

    def test_flash_crowd_superposes_and_sorts(self):
        rng = np.random.default_rng(1)
        arrivals = flash_crowd_arrivals(rng, 1.0, 50, 30.0, 20.0, 40)
        assert len(arrivals) == 90
        assert np.all(np.diff(arrivals) >= 0)
        assert np.sum(arrivals >= 30.0) >= 40   # the burst is there

    def test_flash_crowd_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(rng, 1.0, 10, -1.0, 5.0, 5)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(rng, 1.0, 10, math.nan, 5.0, 5)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(rng, 1.0, 10, 5.0, 0.0, 5)

    def test_same_seed_reproduces(self):
        a = diurnal_arrivals(np.random.default_rng(7), 1.0, 4.0, 50.0, 64)
        b = diurnal_arrivals(np.random.default_rng(7), 1.0, 4.0, 50.0, 64)
        np.testing.assert_array_equal(a, b)


class TestFaultScheduleEvents:
    def test_explicit_events_join_the_schedule(self):
        crash = DeviceFault("edge-01", "crash", 5.0, 10.0)
        schedule = FleetFaultSchedule(
            ("edge-00", "edge-01"),
            FleetFaultConfig(device_crashes=0, brownouts=0,
                             flapping_devices=0, thermal_throttles=0),
            events=[crash])
        assert schedule.crashes() == (crash,)

    def test_unknown_device_in_event_rejected(self):
        with pytest.raises(ValueError, match="unknown device"):
            FleetFaultSchedule(
                ("edge-00",),
                events=[DeviceFault("edge-99", "crash", 5.0, 10.0)])

    def test_device_fault_time_validation(self):
        with pytest.raises(ValueError):
            DeviceFault("d", "crash", -1.0, 5.0)
        with pytest.raises(ValueError):
            DeviceFault("d", "crash", math.nan, 5.0)
        with pytest.raises(ValueError):
            DeviceFault("d", "crash", math.inf, 5.0)
        with pytest.raises(ValueError):
            DeviceFault("d", "crash", 1.0, math.nan)
        # A device that never recovers stays expressible.
        DeviceFault("d", "crash", 1.0, math.inf)


class TestUnknownPolicyFailsFast:
    def test_plan_fleet_rejects_unknown_policy(self):
        from repro.core.planner import plan_fleet

        with pytest.raises(ValueError, match="unknown routing policy"):
            plan_fleet(device_counts=(2,), mixes=("balanced",),
                       policies=("round-robin", "bogus"), num_requests=2)

    def test_cli_fleet_rejects_unknown_policy(self, capsys):
        from repro.cli import main

        code = main(["fleet", "--policy", "bogus", "--requests", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown routing policy" in err
        assert "round-robin" in err


def _tiny_run(autoscale):
    fleet = build_fleet(3, mix="balanced", max_batch_size=4)
    gateway = FleetGateway(fleet, policy="least-outstanding",
                           autoscale=autoscale, seed=0)
    stream = poisson_stream(np.random.default_rng(0), qps=2.0,
                            num_requests=24, prompt_tokens=64,
                            deadline_s=None)
    return gateway.run(stream)


class TestGatewayIntegration:
    def test_autoscaled_run_conserves_requests(self):
        report = _tiny_run(AutoscaleConfig())
        assert report.lost == 0
        assert report.offered == (report.completed + report.shed
                                  + report.failed)
        assert report.autoscale is not None
        payload = json.loads(report.to_json())
        assert "autoscale" in payload

    def test_legacy_report_has_no_autoscale_key(self):
        report = _tiny_run(None)
        assert report.autoscale is None
        assert "autoscale" not in json.loads(report.to_json())

    def test_autoscaled_rerun_is_byte_identical(self):
        assert _tiny_run(AutoscaleConfig()).to_json() == \
               _tiny_run(AutoscaleConfig()).to_json()

    def test_burst_after_economy_downshift_survives(self):
        """Review regression: a burst landing while a min_active
        survivor sits in economy mode must queue behind the drained
        upshift instead of tripping set_power_mode's busy guard."""
        fleet = build_fleet(3, mix="balanced", max_batch_size=4)
        gateway = FleetGateway(fleet, policy="least-outstanding",
                               autoscale=AutoscaleConfig(), seed=0)
        stream, rid = [], 0
        # A sparse trickle through a two-minute trough: the fleet
        # scales down to min_active and DVFS-downshifts the survivor.
        for i in range(8):
            stream.append(FleetRequest(GenerationRequest(rid, 64, 32),
                                       arrival_s=2.0 + 15.0 * i))
            rid += 1
        # Then a 20-request flash crowd.
        for i in range(20):
            stream.append(FleetRequest(GenerationRequest(rid, 64, 64),
                                       arrival_s=130.0 + 0.05 * i))
            rid += 1
        report = gateway.run(stream)
        assert report.lost == 0
        assert report.offered == (report.completed + report.shed
                                  + report.failed)
        # The scenario actually armed: the survivor was downshifted.
        assert report.autoscale.dvfs_switches >= 1

    def test_set_power_mode_requires_idle_device(self):
        fleet = build_fleet(2, mix="maxn", max_batch_size=4)
        device = fleet[0]
        device.inject(GenerationRequest(0, 64, 32), 0.0)
        with pytest.raises(RuntimeError, match="outstanding"):
            device.set_power_mode("30W")

    def test_set_power_mode_switches_and_counts(self):
        device = build_fleet(2, mix="maxn", max_batch_size=4)[0]
        assert device.spec.power_mode == "MAXN"
        device.set_power_mode("30W")
        assert device.spec.power_mode == "30W"
        assert device.dvfs_switches == 1
        device.set_power_mode("30W")            # no-op
        assert device.dvfs_switches == 1
        with pytest.raises(ValueError):
            device.set_power_mode("9000W")


class TestWakingClamp:
    """Work routed onto a WAKING device starts at its wake-ready time.

    The only ACTIVE device crashes while its peer sleeps.  The first
    arrival cold-wakes the sleeper, and ``_route`` clamps its admission
    to the wake-ready time.  The next arrivals queue on the device
    already waking: the emergency ladder's second rung picks it by
    wake-ready time, and ``_route`` clamps them too.
    """

    CONFIG = AutoscaleConfig(hold_up_s=0.0, hold_down_s=5.0,
                             economy_mode=None)
    LATE = (100, 101, 102)

    def _run(self, mode):
        fleet = build_fleet(2, mix="maxn", max_batch_size=4)
        names = [d.name for d in fleet]
        # A trickle lets edge-00 cordon, drain and sleep by t = 7 s;
        # edge-01, the survivor, then crashes at t = 40 s.
        faults = FleetFaultSchedule(
            names, FleetFaultConfig(device_crashes=0),
            events=[DeviceFault(names[1], "crash", 40.0, 20.0)])
        gateway = FleetGateway(fleet, policy="round-robin", faults=faults,
                               autoscale=self.CONFIG, mode=mode, seed=0)
        stream = [FleetRequest(GenerationRequest(i, 64, 16),
                               arrival_s=2.0 + 3.0 * i) for i in range(8)]
        stream += [FleetRequest(GenerationRequest(rid, 64, 16),
                                arrival_s=41.0 + 0.5 * k)
                   for k, rid in enumerate(self.LATE)]
        return gateway, gateway.run(stream)

    def test_admission_waits_for_wake_ready(self, monkeypatch):
        callers = []
        wake_ready_s = AutoscaleController.wake_ready_s

        def spy(ctrl, name):
            frame = sys._getframe(1)
            while frame.f_code.co_name == "<lambda>":
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return wake_ready_s(ctrl, name)

        monkeypatch.setattr(AutoscaleController, "wake_ready_s", spy)
        gateway, report = self._run("auto")
        assert set(callers) == {"_route", "_autoscale_emergency"}
        (woke_at,) = [t for t, _, src, dst in gateway.autoscale.transitions
                      if src is LifecycleState.ASLEEP
                      and dst is LifecycleState.WAKING]
        ready = woke_at + self.CONFIG.wake_latency_s
        served = {r.request_id: (d.name, r) for d in report.devices
                  for r in d.report.served}
        late = [served[rid] for rid in self.LATE]
        assert {name for name, _ in late} == {"edge-00"}
        assert all(r.start_s >= ready > r.arrival_s for _, r in late)
        assert late[0][1].start_s == ready
        assert report.lost == 0
        assert report.offered == (report.completed + report.shed
                                  + report.failed) == 11
        _, scalar = self._run("scalar")
        assert report.to_json() == scalar.to_json()
