"""Streaming trace driver: oracle equivalence, chunk/executor identity."""

import numpy as np
import pytest

from repro.faults import FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    ROUTING_POLICIES,
    FleetGateway,
    FleetTraceReport,
    HealthConfig,
    HedgeConfig,
    build_fleet,
    poisson_stream,
)
from repro.fleet.gateway import FleetGateway as _Gateway
from repro.workloads import PopulationConfig, population_trace, session_key

POLICIES = ("round-robin", "prefix-affinity")


def _trace(seed=7, requests=600):
    # The proven small-scale shape: diurnal session starts, multi-turn
    # sessions, regional prefixes that fit an 8 MB per-device cache.
    config = PopulationConfig(requests=requests, mean_turns=6.0, users=120,
                              base_sessions_per_s=0.4,
                              peak_sessions_per_s=0.56, period_s=600.0)
    return population_trace(np.random.default_rng(seed), config)


class VerifiedGateway(FleetGateway):
    """A gateway that checks its cached routing state on every use.

    Each routable-pool lookup is compared with an uncached scan of the
    up devices, and the outstanding-work counter behind ``_pressure``
    with a live per-device sum, so a stale cache fails at the lookup
    that used it.
    """

    checks = 0

    def _routable(self, t):
        pool = super()._routable(t)
        up = [d for d in self.devices if not d.is_down(t)]
        fresh = self._routable_scan(t, up)
        assert [d.name for d in pool] == [d.name for d in fresh]
        if up and self.autoscale is None:
            assert self._pressure(t) == (
                sum(d.outstanding_requests for d in up)
                / sum(d.spec.max_batch_size for d in up))
        self.checks += 1
        return pool


def _gateway(policy, cls=FleetGateway, **kwargs):
    faults = kwargs.get("faults")
    fleet = build_fleet(4, mix="balanced", max_batch_size=1,
                        prefix_cache_mb=8.0, faults=faults)
    # Diurnal-peak queues legitimately build minutes of latency on
    # batch-1 devices; the raised spike threshold keeps the breaker out
    # of the equivalence study (breaker dynamics are scalar-only).
    kwargs.setdefault("health", HealthConfig(latency_spike_s=3600.0))
    return cls(fleet, policy=policy, **kwargs)


class TestOracleEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_vector_trace_matches_scalar_oracle(self, policy):
        trace = _trace()
        fast = _gateway(policy)
        report = fast.run_trace(trace)
        assert fast.last_mode == "vector"

        oracle = _gateway(policy, mode="scalar")
        expected = oracle.run_trace(trace)
        assert oracle.last_mode == "scalar"

        assert isinstance(report, FleetTraceReport)
        assert report.to_json() == expected.to_json()
        assert report.completed == trace.n
        assert report.lost == 0

    def test_prefix_affinity_exercises_the_cache(self):
        report = _gateway("prefix-affinity").run_trace(_trace())
        hits = sum(d.prefix_hits for d in report.devices)
        misses = sum(d.prefix_misses for d in report.devices)
        assert hits > 0
        assert misses > 0
        # Affinity keeps every session on one device, so repeat turns
        # hit strictly more often than round-robin's scattered sessions.
        scattered = _gateway("round-robin").run_trace(_trace())
        assert hits > sum(d.prefix_hits for d in scattered.devices)


class TestStreamingIdentity:
    @pytest.mark.parametrize("chunk_size", [7, 64, 100_000])
    def test_chunk_size_is_invisible(self, chunk_size):
        trace = _trace()
        baseline = _gateway("prefix-affinity").run_trace(trace)
        chunked = _gateway("prefix-affinity").run_trace(
            trace, chunk_size=chunk_size)
        assert chunked.to_json() == baseline.to_json()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executor_choice_is_invisible(self, executor):
        trace = _trace()
        serial = _gateway("prefix-affinity").run_trace(trace)
        parallel = _gateway("prefix-affinity").run_trace(
            trace, jobs=3, executor=executor)
        assert parallel.to_json() == serial.to_json()

    def test_chunk_iterable_matches_trace_object(self):
        trace = _trace()
        from_trace = _gateway("round-robin").run_trace(trace)
        from_chunks = _gateway("round-robin").run_trace(trace.chunks(50))
        assert from_chunks.to_json() == from_trace.to_json()

    def test_parent_devices_stay_pristine(self):
        # Shares run on clones: the gateway's own devices must be
        # reusable (and byte-identical) for a second pass.
        gateway = _gateway("prefix-affinity")
        first = gateway.run_trace(_trace())
        second = _gateway("prefix-affinity").run_trace(_trace())
        assert first.to_json() == second.to_json()


class TestValidationAndEligibility:
    def test_argument_validation(self):
        gateway = _gateway("round-robin")
        trace = _trace(requests=8)
        with pytest.raises(ValueError):
            gateway.run_trace(trace, chunk_size=0)
        with pytest.raises(ValueError):
            gateway.run_trace(trace, jobs=0)
        with pytest.raises(ValueError):
            gateway.run_trace(trace, executor="fork")

    def test_mode_vector_rejects_ineligible_config(self):
        hedged = _gateway("round-robin", mode="vector",
                          hedge=HedgeConfig())
        assert not hedged.trace_eligible()
        with pytest.raises(ValueError):
            hedged.run_trace(_trace(requests=8))

    def test_least_outstanding_routes_through_the_scalar_core(self):
        gateway = _gateway("least-outstanding")
        assert not gateway.trace_eligible()
        report = gateway.run_trace(_trace(requests=40))
        assert gateway.last_mode == "scalar"
        assert report.completed == 40


class TestRoutingFastPath:
    def test_rendezvous_weight_caches_the_digest(self):
        gateway = _gateway("prefix-affinity")
        name = gateway.devices[0].name
        weight = gateway._rendezvous_weight("s42", name)
        assert weight == _Gateway._rendezvous_digest("s42", name)
        assert gateway._rdv_cache[("s42", name)] == weight
        # Repeat turns consume the cache, not sha256.
        gateway._rdv_cache[("s42", name)] = 1234
        assert gateway._rendezvous_weight("s42", name) == 1234

    def test_trace_winner_matches_scalar_rendezvous(self):
        gateway = _gateway("prefix-affinity")
        for session in (0, 1, 7, 123, 99999):
            winner = gateway.devices[gateway._trace_winner(session)]
            key = session_key(session)
            expected = max(
                gateway.devices,
                key=lambda d: (_Gateway._rendezvous_digest(key, d.name),
                               d.name))
            assert winner.name == expected.name

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_cached_views_survive_the_verify_cross_check(self, policy):
        # Every routable-pool lookup and pressure read is checked against
        # a fresh scan — a regression in the topology-version
        # invalidation fails here, not in a flaky report diff.  Crashes,
        # a flapping device and breaker trips make the caches invalidate.
        stream = poisson_stream(np.random.default_rng(0), 0.6, 120,
                                sessions=16, prefix_tokens=64)
        names = [f"edge-{i:02d}" for i in range(4)]
        faults = FleetFaultSchedule(
            names, FleetFaultConfig(horizon_s=stream[-1].arrival_s,
                                    device_crashes=2, flapping_devices=1),
            seed=0)
        gateway = _gateway(policy, faults=faults, cls=VerifiedGateway)
        report = gateway.run(stream)
        assert gateway.last_mode == "scalar"
        assert report.rerouted > 0 and report.breaker_opens > 0
        assert gateway.checks >= 120
        assert report.completed == 120
        assert gateway._outstanding_total == 0
        assert all(v == 0 for v in gateway._outstanding.values())
