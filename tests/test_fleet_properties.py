"""Property tests: fleet determinism under reordering and executors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import ROUTING_POLICIES, FleetGateway, build_fleet, poisson_stream


def _fleet_json(order, policy="latency-aware", seed=0, faults_seed=None):
    from repro.faults.injector import FleetFaultConfig, FleetFaultSchedule

    fleet = build_fleet(4, mix="balanced")
    fleet = [fleet[i] for i in order]
    schedule = None
    if faults_seed is not None:
        schedule = FleetFaultSchedule(
            [device.name for device in fleet],
            FleetFaultConfig(horizon_s=8.0, device_crashes=1,
                             crash_duration_s=(4.0, 8.0)),
            seed=faults_seed)
    gateway = FleetGateway(fleet, policy=policy, faults=schedule)
    stream = poisson_stream(np.random.default_rng(seed), 6.0, 20,
                            deadline_s=30.0)
    return gateway.run(stream).to_json()


class TestDeviceOrderInvariance:
    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(range(4)))
    def test_construction_order_never_changes_the_report(self, order):
        assert _fleet_json(list(order)) == _fleet_json([0, 1, 2, 3])

    @settings(max_examples=6, deadline=None)
    @given(order=st.permutations(range(4)))
    def test_order_invariance_holds_under_crashes(self, order):
        assert (_fleet_json(list(order), faults_seed=7)
                == _fleet_json([0, 1, 2, 3], faults_seed=7))

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_every_policy_is_order_invariant(self, policy):
        assert (_fleet_json([3, 1, 0, 2], policy=policy)
                == _fleet_json([0, 1, 2, 3], policy=policy))


class TestSeededConservation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_no_request_is_ever_lost(self, seed):
        fleet = build_fleet(3, mix="balanced")
        gateway = FleetGateway(fleet, policy="least-outstanding")
        stream = poisson_stream(np.random.default_rng(seed), 8.0, 15)
        report = gateway.run(stream)
        assert report.lost == 0
        assert report.completed == 15

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_chaos_conserves_requests_for_any_seed(self, seed):
        from repro.experiments.resilience import fleet_gate

        result = fleet_gate(devices=3, kill=1, qps=8.0, num_requests=20,
                            seed=seed).points
        assert result["lost"] == 0
        assert result["rerun_identical"]


class TestPipelineExecutorIdentity:
    """The fleet artifact is byte-identical through any executor."""

    def _artifact_text(self, jobs, executor):
        from repro.pipeline.runner import run_pipeline

        result = run_pipeline(("fleet",), smoke=True, jobs=jobs,
                              executor=executor)
        return result.outputs["fleet"].to_text()

    @pytest.fixture(scope="class")
    def reference(self):
        return self._artifact_text(jobs=1, executor="thread")

    def test_parallel_thread_sweep_matches(self, reference):
        assert self._artifact_text(jobs=4, executor="thread") == reference

    def test_process_executor_matches(self, reference):
        assert self._artifact_text(jobs=2, executor="process") == reference

    def test_reference_mentions_every_policy(self, reference):
        for policy in ROUTING_POLICIES:
            assert policy in reference
