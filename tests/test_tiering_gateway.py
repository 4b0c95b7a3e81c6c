"""Tiered serving end to end: conservation, determinism, routing,
report shape, and the planner's accuracy axis."""

import math

import numpy as np
import pytest

from repro.fleet import BrownoutConfig, FleetGateway, build_fleet
from repro.tiering import TIER_DEEP, TieringConfig
from repro.workloads.agentic import agentic_suite

CONFIG = TieringConfig(seed=0)
TIER_MODELS = tuple(dict.fromkeys(
    CONFIG.fast_models + CONFIG.deep_models + CONFIG.verify_models))


def tiered_report(seed=0, devices=4, jobs=12, qps=2.0, deadline_s=60.0,
                  config=CONFIG):
    fleet = build_fleet(devices, mix="balanced", models=TIER_MODELS)
    gateway = FleetGateway(fleet, policy="least-outstanding", seed=seed)
    suite = agentic_suite(np.random.default_rng(seed), qps, jobs,
                          deadline_s=deadline_s)
    return gateway.run(suite, tiering=config)


@pytest.fixture(scope="module")
def report():
    return tiered_report()


class TestConservation:
    def test_exact_over_dag_children(self, report):
        assert report.lost == 0
        assert (report.offered
                == report.completed + report.shed + report.failed)

    def test_offered_counts_every_planned_child(self, report):
        tier = report.tiering
        assert report.offered == tier.children_offered
        assert tier.jobs == 12
        assert tier.jobs_completed + tier.jobs_shed <= tier.jobs

    def test_budget_shed_children_stay_conserved(self):
        # A starvation budget sheds most jobs whole; their planned
        # children must still reach terminal dispositions.
        config = TieringConfig(seed=0, session_token_budget=700)
        report = tiered_report(config=config)
        assert report.lost == 0
        assert report.tiering.budget_shed_jobs > 0


class TestDeterminism:
    def test_same_seed_byte_identical(self, report):
        rerun = tiered_report()
        assert rerun.to_json() == report.to_json()

    def test_different_seed_differs(self, report):
        other = tiered_report(seed=1)
        assert other.to_json() != report.to_json()


class TestReportShape:
    def test_tiering_section_present_and_canonical(self, report):
        tier = report.tiering
        payload = report.to_dict()["tiering"]
        assert payload == tier.to_dict()
        assert 0.0 <= tier.answer_accuracy <= 1.0
        assert tier.mean_branches >= 1.0
        assert set(tier.tier_counts) <= {"fast", "deep"}

    def test_untiered_report_has_no_tiering_key(self):
        from repro.fleet import poisson_stream

        fleet = build_fleet(2, mix="balanced")
        gateway = FleetGateway(fleet, policy="least-outstanding")
        stream = poisson_stream(np.random.default_rng(0), qps=4.0,
                                num_requests=8)
        report = gateway.run(stream)
        assert report.tiering is None
        assert "tiering" not in report.to_dict()

    def test_tiering_none_is_byte_identical_to_plain_run(self):
        from repro.fleet import poisson_stream

        def run(**kwargs):
            fleet = build_fleet(2, mix="balanced")
            gateway = FleetGateway(fleet, policy="least-outstanding")
            stream = poisson_stream(np.random.default_rng(0), qps=4.0,
                                    num_requests=8)
            return gateway.run(stream, **kwargs)

        assert run().to_json() == run(tiering=None).to_json()


class TestGatewayIntegration:
    def test_brownout_and_tiering_mutually_exclusive(self):
        fleet = build_fleet(2, mix="balanced", models=TIER_MODELS)
        gateway = FleetGateway(fleet, policy="least-outstanding",
                               brownout=BrownoutConfig())
        suite = agentic_suite(np.random.default_rng(0), 2.0, 4)
        with pytest.raises(ValueError, match="load ladder"):
            gateway.run(suite, tiering=CONFIG)

    def test_vector_mode_rejects_tiering(self):
        # Tiered DAGs only run on the scalar core; mode="vector" must
        # refuse them like every other ineligible configuration.
        fleet = build_fleet(2, mix="balanced", models=TIER_MODELS)
        gateway = FleetGateway(fleet, mode="vector")
        assert gateway.vector_eligible()
        suite = agentic_suite(np.random.default_rng(0), 2.0, 4)
        with pytest.raises(ValueError, match="tiering"):
            gateway.run(suite, tiering=CONFIG)
        assert gateway.last_mode is None

    def test_deep_branches_land_on_deep_devices(self, report):
        # With every device up, the tier preference filter is exact:
        # a Deep branch never runs on a Fast-pool-only device.
        # Recover tier per rid by replaying the deterministic admission
        # (branch stages of deep-tier DAGs sit at base+1..base+branches).
        from repro.tiering import DagRun

        deep_rids = set()

        coordinator = DagRun(CONFIG)
        suite = agentic_suite(np.random.default_rng(0), 2.0, 12,
                              deadline_s=60.0)
        for j in suite:
            coordinator.admit(j, j.arrival_s, 0.0)
        for dag in coordinator.dags.values():
            if dag.assignment.tier == TIER_DEEP:
                deep_rids.update(dag.branch_rids)
        assert deep_rids  # the suite must exercise the Deep tier
        served_on = {}
        for device in report.devices:
            for served in device.report.served:
                served_on.setdefault(served.request_id, device.model)
        deep_served = [rid for rid in deep_rids if rid in served_on]
        assert deep_served
        for rid in deep_served:
            assert served_on[rid] in CONFIG.deep_models

    def test_energy_budget_accounted(self):
        config = TieringConfig(seed=0, session_energy_budget_j=5000.0)
        report = tiered_report(config=config)
        assert report.lost == 0
        assert report.tiering.energy_reserved_j > 0.0


class TestPlannerAccuracyAxis:
    def test_plan_fleet_tiering_fills_accuracy(self):
        from repro.core.planner import fleet_pareto, plan_fleet

        points = plan_fleet(device_counts=(3,), mixes=("balanced",),
                            policies=("least-outstanding",),
                            qps=1.5, num_requests=8, tiering=CONFIG)
        assert len(points) == 1
        assert not math.isnan(points[0].accuracy)
        frontier = fleet_pareto(points, value_axis="accuracy")
        assert frontier == points

    def test_untiered_accuracy_is_nan(self):
        from repro.core.planner import plan_fleet

        points = plan_fleet(device_counts=(2,), mixes=("balanced",),
                            policies=("round-robin",), qps=4.0,
                            num_requests=8)
        assert all(math.isnan(p.accuracy) for p in points)

    def test_bad_value_axis_rejected(self):
        from repro.core.planner import fleet_pareto

        with pytest.raises(ValueError, match="value_axis"):
            fleet_pareto([], value_axis="vibes")
