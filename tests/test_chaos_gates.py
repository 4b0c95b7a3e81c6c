"""The chaos gates' named checks, one clause at a time.

Each ``*_checks`` function maps a gate's points to an ordered
``{name: held}``.  For every gate, a hand-built passing points dict is
broken one clause at a time: each break must fail exactly the check it
targets, and the breaks must cover every check the gate has.
"""

import pytest

from repro.experiments.resilience import (
    ChaosGate,
    autoscale_checks,
    fleet_checks,
    overload_checks,
    pipeline_checks,
    serving_checks,
)
from repro.experiments.tiering_study import frontier_checks, tiering_checks

CONSERVED = "offered == completed + shed + failed"

#: gate -> (checks, passing points, {check name: clause-breaking edit}).
CASES = {
    "serving": (
        serving_checks,
        {"hit_rate_off": 0.5, "hit_rate_on": 0.6},
        {"degradation-on hit rate >= degradation-off":
            {"hit_rate_on": 0.4}},
    ),
    "pipeline": (
        pipeline_checks,
        {"artifacts": 7, "completed": 7, "failed": 0, "injected_faults": 3,
         "chaos_identical": True, "resume_identical": True,
         "committed_before_crash": 2, "resume_recomputed": 5},
        {"failed == 0": {"failed": 1},
         "chaos_identical": {"chaos_identical": False},
         "injected_faults > 0": {"injected_faults": 0},
         "resume_identical": {"resume_identical": False},
         "resume_recomputed == artifacts - committed_before_crash":
            {"resume_recomputed": 7}},
    ),
    "fleet": (
        fleet_checks,
        {"lost": 0, "killed": 2, "rerun_identical": True},
        {"lost == 0": {"lost": 1},
         "killed >= 1": {"killed": 0},
         "rerun_identical": {"rerun_identical": False}},
    ),
    "overload": (
        overload_checks,
        {"lost": 0, "offered": 10, "completed": 8, "shed": 1, "failed": 1,
         "max_attempts": 2, "max_reroutes": 3, "overload_factor": 3.2,
         "flapping_devices": 2, "thermal_delivered": 1,
         "throttle_residency_s": 1.5, "max_brownout_tier": 2,
         "recovered_s": 18.0, "rerun_identical": True,
         "executor_identical": True},
        {"lost == 0": {"lost": 1},
         CONSERVED: {"offered": 11},
         "max_attempts <= max_reroutes + 1": {"max_attempts": 5},
         "overload_factor >= 3": {"overload_factor": 2.9},
         "flapping_devices >= 2": {"flapping_devices": 1},
         "thermal_delivered >= 1": {"thermal_delivered": 0},
         "throttle_residency_s > 0": {"throttle_residency_s": 0.0},
         "max_brownout_tier >= 1": {"max_brownout_tier": 0},
         "recovered_s is not None": {"recovered_s": None},
         "rerun_identical": {"rerun_identical": False},
         "executor_identical": {"executor_identical": False}},
    ),
    "autoscale": (
        autoscale_checks,
        {"lost": 0, "offered": 10, "completed": 9, "shed": 1, "failed": 0,
         "wakes": 2, "wakes_after_crowd": 1, "drains_completed": 2,
         "crashes_draining": 1, "crashes_waking": 1, "max_wake_cycles": 2,
         "cycle_bound": 3, "autoscaled_energy_j": 100.0,
         "always_on_energy_j": 150.0, "attainment": 0.9,
         "always_on_attainment": 0.9, "rerun_identical": True,
         "executor_identical": True},
        {"lost == 0": {"lost": 1},
         CONSERVED: {"offered": 11},
         "wakes >= 1": {"wakes": 0},
         "wakes_after_crowd >= 1": {"wakes_after_crowd": 0},
         "drains_completed >= 2": {"drains_completed": 1},
         "crashes_draining + crashes_waking >= 1":
            {"crashes_draining": 0, "crashes_waking": 0},
         "max_wake_cycles <= cycle_bound": {"max_wake_cycles": 4},
         "autoscaled_energy_j < always_on_energy_j":
            {"autoscaled_energy_j": 150.0},
         "attainment >= always_on_attainment": {"attainment": 0.89},
         "rerun_identical": {"rerun_identical": False},
         "executor_identical": {"executor_identical": False}},
    ),
    "tiering": (
        tiering_checks,
        {"domination_ok": True, "conservation_ok": True,
         "rerun_identical": True, "executor_identical": True},
        {"domination_ok": {"domination_ok": False},
         "conservation_ok": {"conservation_ok": False},
         "rerun_identical": {"rerun_identical": False},
         "executor_identical": {"executor_identical": False}},
    ),
}

BREAKS = [(gate, name) for gate, (_, _, edits) in CASES.items()
          for name in edits]


@pytest.mark.parametrize("gate", CASES)
def test_passing_points_pass_every_check(gate):
    checks, points, edits = CASES[gate]
    result = checks(points)
    assert all(result.values())
    # Every check has a clause-breaking edit, in check order.
    assert list(result) == list(edits)


@pytest.mark.parametrize("gate,name", BREAKS)
def test_breaking_one_clause_fails_exactly_its_check(gate, name):
    checks, points, edits = CASES[gate]
    result = checks({**points, **edits[name]})
    assert [n for n, held in result.items() if not held] == [name]


def test_repro_tier_gates_on_the_frontier_clauses_only():
    points = {"domination_ok": True, "conservation_ok": False}
    assert frontier_checks(points) == points
    assert list(tiering_checks({**points, "rerun_identical": True,
                                "executor_identical": True})) == [
        "domination_ok", "conservation_ok", "rerun_identical",
        "executor_identical"]


def test_gate_verdict_lists_failed_checks_in_order():
    gate = ChaosGate("demo", {}, "", {"a": False, "b": True, "c": False})
    assert not gate.ok
    assert gate.failed == ["a", "c"]
    assert ChaosGate("demo", {}, "", {"a": True}).ok
