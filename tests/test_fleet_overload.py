"""Overload survival: whole-fleet outages, retry caps, and the gate.

Covers the regression the overload work exists to prevent: a gateway
facing a fleet that never recovers (every device killed with an
infinite outage, or killed at t=0) must end with every request at an
explicit terminal disposition — shed — rather than raising or spinning.
"""

import math

import numpy as np
import pytest

from repro.engine.request import GenerationRequest
from repro.experiments.resilience import (
    ChaosGate,
    overload_checks,
    overload_gate,
)
from repro.faults import DeviceFault, FleetFaultConfig, FleetFaultSchedule
from repro.fleet import FleetGateway, build_fleet, poisson_stream


def _stream(seed=0, qps=6.0, count=24, **kwargs):
    return poisson_stream(np.random.default_rng(seed), qps, count, **kwargs)


def _kill_schedule(fleet, start_s, duration_s):
    """A schedule that crashes every device at ``start_s``."""
    names = [device.name for device in fleet]
    schedule = FleetFaultSchedule(names, FleetFaultConfig(), seed=0)
    schedule.events = tuple(
        DeviceFault(name, "crash", start_s, duration_s)
        for name in sorted(names))
    return schedule


class TestWholeFleetOutage:
    def test_kill_all_forever_sheds_everything(self):
        fleet = build_fleet(3)
        schedule = _kill_schedule(fleet, 1e-6, math.inf)
        gateway = FleetGateway(fleet, faults=schedule)
        report = gateway.run(_stream())
        assert report.offered == 24
        assert report.shed == 24
        assert report.completed == 0
        assert report.lost == 0

    def test_kill_all_mid_run_reaches_terminal_outcomes(self):
        fleet = build_fleet(3)
        schedule = _kill_schedule(fleet, 2.0, math.inf)
        gateway = FleetGateway(fleet, faults=schedule)
        report = gateway.run(_stream())
        # Some requests finish before the lights go out; everything
        # else — in-flight work included — is explicitly shed.
        assert report.completed + report.shed + report.failed == 24
        assert report.lost == 0
        assert report.shed > 0

    def test_kill_all_finite_parks_and_serves(self):
        # A finite whole-fleet outage is a wait, not a shed: the
        # gateway parks arrivals on the earliest-recovering device.
        fleet = build_fleet(3)
        schedule = _kill_schedule(fleet, 1e-6, 5.0)
        gateway = FleetGateway(fleet, faults=schedule)
        report = gateway.run(_stream())
        assert report.completed == 24
        assert report.lost == 0

    def test_kill_all_rerun_is_byte_identical(self):
        def run():
            fleet = build_fleet(3)
            gateway = FleetGateway(
                fleet, faults=_kill_schedule(fleet, 2.0, math.inf))
            return gateway.run(_stream()).to_json()

        assert run() == run()


class TestRetryCap:
    def test_exhausted_reroutes_become_failed(self):
        fleet = build_fleet(1)
        schedule = _kill_schedule(fleet, 2.0, 10.0)
        gateway = FleetGateway(fleet, faults=schedule, max_reroutes=0)
        report = gateway.run(_stream())
        # Every evacuated request immediately exhausts the zero-retry
        # budget; nothing may be silently requeued.
        assert report.failed > 0
        assert report.failed == gateway.gateway_failed
        assert report.completed + report.shed + report.failed == 24
        assert report.lost == 0

    def test_default_cap_bounds_attempts(self):
        fleet = build_fleet(2)
        schedule = _kill_schedule(fleet, 2.0, 6.0)
        gateway = FleetGateway(fleet, faults=schedule, max_reroutes=3)
        report = gateway.run(_stream())
        attempts = max(gateway._attempts.values(), default=0)
        assert attempts <= gateway.max_reroutes + 1
        assert report.lost == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            FleetGateway(build_fleet(1), max_reroutes=-1)


class TestCancelSeam:
    def test_cancel_withdraws_without_touching_counters(self):
        device = build_fleet(1)[0]
        for i in range(3):
            device.inject(GenerationRequest(i, 100, 64), arrival_s=0.0)
        assert device.cancel(1)
        device.drain()
        report = device.report()
        assert report.completed == 2
        assert report.shed == 0
        assert report.failed == 0

    def test_cancel_after_completion_is_a_noop(self):
        device = build_fleet(1)[0]
        device.inject(GenerationRequest(0, 100, 64), arrival_s=0.0)
        device.drain()
        assert not device.cancel(0)
        assert device.report().completed == 1

    def test_cancel_unknown_request_is_false(self):
        device = build_fleet(1)[0]
        assert not device.cancel(99)


class TestOverloadGate:
    @pytest.fixture(scope="class")
    def gate(self):
        # Full-size storm, but skip the (slow) thread/process pipeline
        # comparison — the CLI gate exercises it; stub it as passing so
        # the rest of the gate is still asserted.
        return overload_gate(seed=0, check_executors=False)

    @pytest.fixture(scope="class")
    def result(self, gate):
        return gate.points

    def test_storm_is_a_real_overload(self, result):
        assert result["overload_factor"] >= 3.0
        assert result["storm_qps"] > result["capacity_qps"]

    def test_conservation_is_exact(self, result):
        assert result["offered"] == (result["completed"] + result["shed"]
                                     + result["failed"])
        assert result["lost"] == 0

    def test_faults_were_delivered(self, result):
        assert result["flapping_devices"] >= 2
        assert result["thermal_delivered"] >= 1
        assert result["throttle_residency_s"] > 0

    def test_brownout_engaged_and_recovered(self, result):
        assert result["max_brownout_tier"] >= 1
        assert result["recovered_s"] is not None
        assert result["time_to_slo_recovery_s"] >= 0

    def test_attempts_respect_the_cap(self, result):
        assert result["max_attempts"] <= result["max_reroutes"] + 1

    def test_rerun_is_byte_identical(self, result):
        assert result["rerun_identical"]

    def test_gate_passes(self, gate):
        assert gate.ok

    def test_gate_rejects_lossy_runs(self, result):
        lossy = {**result, "completed": result["completed"] - 1, "lost": 1}
        assert not all(overload_checks(lossy).values())

    def test_gate_rejects_vacuous_storms(self, result):
        gentle = {**result, "overload_factor": 1.5}
        assert not all(overload_checks(gentle).values())

    def test_gate_rejects_unrecovered_brownouts(self, result):
        stuck = {**result, "recovered_s": None}
        assert not all(overload_checks(stuck).values())

    def test_table_renders(self, gate):
        assert "rerun_identical" in gate.table

    def test_result_shape(self, gate, result):
        assert isinstance(gate, ChaosGate)
        assert result["report_sha"]
