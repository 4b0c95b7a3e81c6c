"""Fleet chaos: seeded device kills, evacuation, and the recovery gate."""

import pytest

from repro.experiments.resilience import fleet_checks, fleet_gate
from repro.faults import DeviceFault, FleetFaultConfig, FleetFaultSchedule


class TestFleetFaultSchedule:
    def test_same_seed_reproduces_the_schedule(self):
        names = ["edge-00", "edge-01", "edge-02"]
        a = FleetFaultSchedule(names, seed=3)
        b = FleetFaultSchedule(names, seed=3)
        assert a.events == b.events

    def test_schedule_ignores_name_order(self):
        names = ["edge-00", "edge-01", "edge-02"]
        a = FleetFaultSchedule(names, seed=3)
        b = FleetFaultSchedule(list(reversed(names)), seed=3)
        assert a.events == b.events

    def test_crashes_land_inside_the_window(self):
        config = FleetFaultConfig(horizon_s=100.0, device_crashes=5,
                                  crash_window=(0.2, 0.6))
        schedule = FleetFaultSchedule(["a", "b"], config, seed=0)
        crashes = schedule.crashes()
        assert len(crashes) == 5
        for fault in crashes:
            assert 20.0 <= fault.start_s <= 60.0

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            FleetFaultSchedule(["a", "a"])

    def test_injector_only_for_browned_out_devices(self):
        config = FleetFaultConfig(device_crashes=0, brownouts=1)
        schedule = FleetFaultSchedule(["a"], config, seed=0)
        assert schedule.injector_for("a") is not None
        clean = FleetFaultSchedule(["a"], FleetFaultConfig(), seed=0)
        assert clean.injector_for("a") is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetFaultConfig(horizon_s=0.0)
        with pytest.raises(ValueError):
            FleetFaultConfig(crash_window=(0.8, 0.2))
        with pytest.raises(ValueError):
            DeviceFault(device="a", kind="meteor", start_s=0.0,
                        duration_s=1.0)


class TestRecoveryGate:
    @pytest.fixture(scope="class")
    def gate(self):
        return fleet_gate(devices=4, kill=2, seed=0)

    @pytest.fixture(scope="class")
    def result(self, gate):
        return gate.points

    def test_kills_are_actually_delivered(self, result):
        assert result["killed"] == 2

    def test_crashes_orphan_and_reroute_work(self, result):
        assert result["evacuated"] > 0
        assert result["rerouted"] == result["evacuated"]

    def test_no_request_is_lost(self, result):
        assert result["lost"] == 0
        assert result["completed"] == result["offered"] == 60

    def test_rerun_is_byte_identical(self, result):
        assert result["rerun_identical"]

    def test_gate_passes(self, gate):
        assert gate.ok

    def test_gate_rejects_vacuous_runs(self):
        vacuous = {"lost": 0, "killed": 0, "rerun_identical": True}
        assert not all(fleet_checks(vacuous).values())

    def test_gate_rejects_lost_requests(self):
        lossy = {"lost": 1, "killed": 2, "rerun_identical": True}
        assert not all(fleet_checks(lossy).values())

    def test_table_renders(self, gate):
        assert "rerun_identical" in gate.table
        assert "True" in gate.table


class TestSeedSensitivity:
    def test_another_seed_also_recovers(self):
        gate = fleet_gate(devices=4, kill=2, seed=1)
        assert gate.ok
        assert gate.points["killed"] == 2
