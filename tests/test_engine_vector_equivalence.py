"""Scalar-vs-vector byte-identity: the vector fast path's contract.

The vector event loop (``engine/vector_run.py``) is only allowed to
exist because every report it produces is byte-identical to the scalar
oracle's.  This module sweeps that contract across scheduler policy,
fault schedules, self-healing (degradation / health breakers), and
seeds — hypothesis picks the corners — and additionally pins that
eligible configurations *genuinely* execute on the vector path
(``last_mode == "vector"``) rather than passing trivially through a
fallback.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.engine import InferenceEngine
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.server import ServingSimulator
from repro.experiments.resilience import (
    _fleet_capacity_qps,
    chaos_schedule,
    degradation_policy,
)
from repro.fleet import FleetGateway, build_fleet, poisson_stream
from repro.models.registry import get_model

MODEL = "dsr1-qwen-1.5b"


def _serving_json(mode, *, policy="fcfs", seed=0, qps=10.0, requests=80,
                  deadline_s=None, max_batch_size=8, max_span_steps=None,
                  faults=False, degradation=False, kv_mb=None):
    model = get_model(MODEL)
    kwargs = {}
    if faults:
        kwargs["faults"] = chaos_schedule(seed=seed)
    if degradation:
        kwargs["degradation"] = degradation_policy(deadline_s or 10.0)
    if kv_mb is not None:
        kwargs["kv_cache"] = PagedKVCache(KVCacheConfig(
            bytes_per_token=model.kv_bytes_per_token,
            capacity_bytes=kv_mb * 1e6))
    simulator = ServingSimulator(
        InferenceEngine(model), max_batch_size=max_batch_size,
        policy=policy, max_span_steps=max_span_steps, mode=mode, **kwargs)
    report = simulator.run_poisson(
        np.random.default_rng(seed), qps=qps, num_requests=requests,
        deadline_s=deadline_s)
    return report.to_json(), simulator.last_mode


class TestServingEquivalence:
    """ServingSimulator: scalar and auto modes agree byte-for-byte."""

    @settings(max_examples=12, deadline=None)
    @given(policy=st.sampled_from(["fcfs", "edf"]),
           seed=st.integers(min_value=0, max_value=2**16),
           faults=st.booleans(),
           degradation=st.booleans())
    def test_policy_x_faults_x_healing_x_seed(self, policy, seed, faults,
                                              degradation):
        deadline = 8.0 if policy == "edf" or degradation else None
        scalar, _ = _serving_json("scalar", policy=policy, seed=seed,
                                  deadline_s=deadline, faults=faults,
                                  degradation=degradation, requests=60)
        auto, last = _serving_json("auto", policy=policy, seed=seed,
                                   deadline_s=deadline, faults=faults,
                                   degradation=degradation, requests=60)
        assert scalar == auto
        # Fault-free, degradation-free FCFS runs must actually exercise
        # the fast path; anything stateful, and EDF admission, must stay
        # on the scalar core.
        expected = ("scalar" if (faults or degradation or policy == "edf")
                    else "vector")
        assert last == expected

    @pytest.mark.parametrize("span", [None, 1, 7])
    def test_span_configs_stay_identical(self, span):
        scalar, _ = _serving_json("scalar", max_span_steps=span, seed=3)
        auto, last = _serving_json("auto", max_span_steps=span, seed=3)
        assert scalar == auto
        assert last == "vector"

    def test_overloaded_stream_stays_identical(self):
        scalar, _ = _serving_json("scalar", qps=50.0, requests=120,
                                  deadline_s=5.0, max_batch_size=4, seed=2)
        auto, last = _serving_json("auto", qps=50.0, requests=120,
                                   deadline_s=5.0, max_batch_size=4, seed=2)
        assert scalar == auto
        assert last == "vector"

    def test_kv_pressure_falls_back_and_matches(self):
        """A tight paged cache trips VectorFallback, not divergence."""
        scalar, _ = _serving_json("scalar", qps=20.0, requests=80, kv_mb=8,
                                  seed=7)
        auto, last = _serving_json("auto", qps=20.0, requests=80, kv_mb=8,
                                   seed=7)
        assert scalar == auto
        assert last == "scalar"

    def test_vector_mode_rejects_ineligible_config(self):
        with pytest.raises(ValueError, match="vector"):
            _serving_json("vector", faults=True)

    def test_vector_mode_runs_eligible_config(self):
        forced, last = _serving_json("vector", seed=5)
        scalar, _ = _serving_json("scalar", seed=5)
        assert forced == scalar
        assert last == "vector"


def _fleet_json(mode, *, policy="round-robin", seed=0, qps=4.0,
                requests=120, deadline_s=None, max_batch_size=8,
                faults_seed=None):
    from repro.faults.injector import FleetFaultConfig, FleetFaultSchedule

    fleet = build_fleet(4, mix="balanced", max_batch_size=max_batch_size)
    schedule = None
    if faults_seed is not None:
        schedule = FleetFaultSchedule(
            [device.name for device in fleet],
            FleetFaultConfig(horizon_s=8.0, device_crashes=1,
                             crash_duration_s=(4.0, 8.0)),
            seed=faults_seed)
    gateway = FleetGateway(fleet, policy=policy, faults=schedule, mode=mode)
    stream = poisson_stream(np.random.default_rng(seed), qps, requests,
                            deadline_s=deadline_s)
    return gateway.run(stream).to_json(), gateway.last_mode


class TestFleetEquivalence:
    """FleetGateway: merged-partition vector drain equals the scalar loop."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_paced_round_robin_runs_vector(self, seed):
        scalar, _ = _fleet_json("scalar", seed=seed)
        auto, last = _fleet_json("auto", seed=seed)
        assert scalar == auto
        assert last == "vector"

    @pytest.mark.parametrize("seed", [31, 116, 65535])
    def test_admission_crossing_event_horizon_seeds(self, seed):
        """Regression: an admission prefill crossing a gateway event
        horizon must not let the scalar loop start a decode epoch
        before the next arrival is injected — these seeds diverged
        from the batch oracle (and the vector drain) before the
        ``run_until`` horizon re-check landed."""
        scalar, _ = _fleet_json("scalar", seed=seed)
        auto, last = _fleet_json("auto", seed=seed)
        assert scalar == auto
        assert last == "vector"

    def test_overloaded_stream_stays_vector(self):
        """Minutes of queueing move no breaker: the drain stays exact."""
        scalar, _ = _fleet_json("scalar", qps=40.0, requests=400,
                                deadline_s=8.0, seed=3)
        auto, last = _fleet_json("auto", qps=40.0, requests=400,
                                 deadline_s=8.0, seed=3)
        assert scalar == auto
        assert last == "vector"

    @settings(max_examples=10, deadline=None)
    @given(max_batch_size=st.integers(1, 8),
           policy=st.sampled_from(["round-robin", "prefix-affinity"]),
           load=st.floats(0.1, 2.0),
           seed=st.integers(min_value=0, max_value=2**16))
    @example(max_batch_size=1, policy="round-robin", load=2.0, seed=0)
    @example(max_batch_size=4, policy="prefix-affinity", load=2.0, seed=1)
    def test_fault_free_breakers_never_move(self, max_batch_size, policy,
                                            load, seed):
        """With no failure source and no derating, no breaker of the
        scalar loop ever transitions, however long the queues grow (up
        to 2x closed-form capacity), so ``auto`` drains on the vector
        core with the oracle's bytes."""
        reports = {}
        for mode in ("scalar", "auto"):
            fleet = build_fleet(4, mix="balanced",
                                max_batch_size=max_batch_size)
            qps = load * _fleet_capacity_qps(fleet, 150, 192)
            gateway = FleetGateway(fleet, policy=policy, mode=mode)
            reports[mode] = gateway.run(poisson_stream(
                np.random.default_rng(seed), qps, 160,
                sessions=8)).to_json()
            if mode == "scalar":
                assert all(not breaker.transitions
                           for breaker in gateway.breakers.values())
            else:
                assert gateway.last_mode == "vector"
        assert reports["auto"] == reports["scalar"]

    def test_fault_schedule_stays_identical(self):
        scalar, _ = _fleet_json("scalar", faults_seed=7, deadline_s=30.0)
        auto, last = _fleet_json("auto", faults_seed=7, deadline_s=30.0)
        assert scalar == auto
        assert last == "scalar"

    def test_single_stream_devices_run_vector(self):
        scalar, _ = _fleet_json("scalar", max_batch_size=1, qps=0.8,
                                requests=80, seed=11)
        auto, last = _fleet_json("auto", max_batch_size=1, qps=0.8,
                                 requests=80, seed=11)
        assert scalar == auto
        assert last == "vector"

    def test_vector_mode_rejects_non_round_robin(self):
        with pytest.raises(ValueError, match="vector"):
            _fleet_json("vector", policy="latency-aware")


def _session_gateway(mode, policy, prefix_cache_mb):
    fleet = build_fleet(4, mix="balanced", prefix_cache_mb=prefix_cache_mb)
    return FleetGateway(fleet, policy=policy, mode=mode)


def _session_stream(seed):
    return poisson_stream(np.random.default_rng(seed), 6.0, 48,
                          deadline_s=30.0, sessions=6, prefix_tokens=96)


class TestSessionStreamEquivalence:
    """Sticky-session streams: stream -> columns -> the vector drain."""

    @pytest.mark.parametrize("prefix_cache_mb", [0.0, 8.0, 256.0])
    @pytest.mark.parametrize("policy", ["round-robin", "prefix-affinity"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_matches_scalar(self, seed, policy, prefix_cache_mb):
        reports = {}
        for mode in ("auto", "scalar"):
            gateway = _session_gateway(mode, policy, prefix_cache_mb)
            reports[mode] = gateway.run(_session_stream(seed)).to_json()
            if mode == "auto":
                assert gateway.last_mode == "vector"
        assert reports["auto"] == reports["scalar"]

    def test_stateless_request_runs_scalar_under_affinity(self):
        stream = _session_stream(4)
        stream[5] = dataclasses.replace(stream[5], session=None,
                                        prefix_tokens=0)
        auto = _session_gateway("auto", "prefix-affinity", 8.0)
        report = auto.run(stream)
        assert auto.last_mode == "scalar"
        scalar = _session_gateway("scalar", "prefix-affinity", 8.0)
        assert report.to_json() == scalar.run(stream).to_json()
        forced = _session_gateway("vector", "prefix-affinity", 8.0)
        with pytest.raises(ValueError, match="session on every request"):
            forced.run(stream)
        assert forced.last_mode is None


class TestAcceptanceWorkloads:
    """The perf-harness workload shapes named in the acceptance gate."""

    def test_fleet_fixed_qps_shape(self):
        """4 devices, latency-aware, qps 8 — the fleet_fixed_qps bench."""
        scalar, _ = _fleet_json("scalar", policy="latency-aware", qps=8.0,
                                requests=64, deadline_s=30.0, seed=7)
        auto, _ = _fleet_json("auto", policy="latency-aware", qps=8.0,
                              requests=64, deadline_s=30.0, seed=7)
        assert scalar == auto

    def test_fleet_overload_shape(self):
        """The fleet_overload bench run, auto vs scalar."""
        from repro.experiments.resilience import _overload_run

        args = (4, 3.2, 70, 15, 96, 128, 20.0, 3, 0)
        auto = _overload_run(*args, mode="auto")[0]
        scalar = _overload_run(*args, mode="scalar")[0]
        assert auto.to_json() == scalar.to_json()

    def test_equivalence_probe_is_deterministic(self):
        """The ``vector-equivalence`` producer returns plain data that
        reruns reproduce exactly (no wall clock leaks into it)."""
        from repro.experiments.resilience import (
            run_vector_equivalence_points,
        )

        first = run_vector_equivalence_points(seed=0)
        assert first["identical"] and first["auto_mode"] == "vector"
        assert run_vector_equivalence_points(seed=0) == first


#: Request fields no validation rejects, each applied to every third
#: request of a sticky-session stream (prompts are 150 tokens).
MALFORMED = {
    "prefix_over_prompt": {"prefix_tokens": 200},
    "negative_prefix": {"prefix_tokens": -5},
    "nan_deadline": {"deadline_s": float("nan")},
    "negative_deadline": {"deadline_s": -1.0},
    "infinite_deadline": {"deadline_s": float("inf")},
}


class TestMalformedSessionRequests:
    """Malformed fields under prefix affinity with prefix caches: the
    vector drain still runs and matches the oracle byte for byte."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_auto_runs_vector_and_matches_scalar(self, case):
        stream = _session_stream(5)
        for i in range(0, len(stream), 3):
            stream[i] = dataclasses.replace(stream[i], **MALFORMED[case])
        auto = _session_gateway("auto", "prefix-affinity", 8.0)
        report = auto.run(stream)
        assert auto.last_mode == "vector"
        scalar = _session_gateway("scalar", "prefix-affinity", 8.0)
        assert report.to_json() == scalar.run(stream).to_json()
