"""Tests for fault injection and graceful degradation in the server."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.engine import InferenceEngine
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.request import GenerationRequest
from repro.engine.server import ResilienceReport, ServingSimulator, _ServingRun
from repro.faults.degradation import DegradationPolicy
from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultScheduleConfig,
)
from repro.generation.control import hard_budget
from repro.hardware.thermal import ThermalConfig
from repro.models.registry import get_model
from repro.workloads.arrivals import poisson_arrivals


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(get_model("dsr1-qwen-1.5b"))


def _requests(count, output=64, prompt=100):
    return [GenerationRequest(i, prompt, output) for i in range(count)]


def _tiny_cache(engine, tokens):
    """A paged cache holding roughly ``tokens`` tokens."""
    model = engine.model
    return PagedKVCache(KVCacheConfig(
        bytes_per_token=model.kv_bytes_per_token,
        capacity_bytes=model.kv_bytes_per_token * tokens))


def _quiet_faults(**overrides):
    base = dict(horizon_s=200.0, thermal_episodes=0, dvfs_drops=0,
                transient_slowdowns=0, kv_pressure_spikes=0)
    base.update(overrides)
    return FaultInjector(FaultScheduleConfig(**base), seed=0)


class TestReportType:
    def test_run_returns_resilience_report(self, engine):
        sim = ServingSimulator(engine, max_batch_size=4)
        report = sim.run(_requests(3), np.zeros(3))
        assert isinstance(report, ResilienceReport)
        assert report.offered == 3
        assert report.preemptions == 0
        assert report.retries == 0
        assert report.throttle_residency_s == 0.0

    def test_fault_free_run_unchanged_by_inert_policy(self, engine):
        plain = ServingSimulator(engine, max_batch_size=4)
        inert = ServingSimulator(engine, max_batch_size=4,
                                 degradation=DegradationPolicy())
        a = plain.run(_requests(4), np.zeros(4))
        b = inert.run(_requests(4), np.zeros(4))
        assert [r.finish_s for r in a.served] == [r.finish_s for r in b.served]


class TestPreemption:
    def test_kv_exhaustion_preempts_and_resumes(self, engine):
        # Cache fits ~2 full sequences; batch cap of 4 forces eviction
        # as contexts grow, and evicted requests must still complete.
        cache = _tiny_cache(engine, 2 * (100 + 64) + 32)
        sim = ServingSimulator(engine, max_batch_size=4, kv_cache=cache)
        report = sim.run(_requests(4), np.zeros(4))
        assert report.completed == 4
        assert report.preemptions >= 1
        assert report.resumes >= 1
        assert report.total_output_tokens == 4 * 64
        assert cache.used_blocks == 0          # cleaned up after the run

    def test_preempted_request_reports_multiple_attempts(self, engine):
        cache = _tiny_cache(engine, 2 * (100 + 64) + 32)
        sim = ServingSimulator(engine, max_batch_size=4, kv_cache=cache)
        report = sim.run(_requests(4), np.zeros(4))
        assert max(r.attempts for r in report.served) >= 2

    def test_unservable_request_fails_not_hangs(self, engine):
        # A prompt larger than the whole cache can never be admitted.
        cache = _tiny_cache(engine, 64)
        sim = ServingSimulator(engine, max_batch_size=2, kv_cache=cache)
        report = sim.run(_requests(1, prompt=5000, output=8), np.zeros(1))
        assert report.completed == 0
        assert report.failed == 1

    def test_kv_pressure_spike_forces_preemption(self, engine):
        faults = _quiet_faults(kv_pressure_spikes=1,
                               kv_pressure_fraction=0.9,
                               kv_pressure_duration_s=(100.0, 100.0))
        cache = _tiny_cache(engine, 8 * (100 + 64))
        sim = ServingSimulator(engine, max_batch_size=8, kv_cache=cache,
                               faults=faults)
        report = sim.run(_requests(8), np.zeros(8))
        assert report.completed == 8
        assert report.preemptions >= 1
        assert cache.used_blocks == 0
        assert cache.reserved_blocks == 0


def _bounded_run(sim, requests, arrivals):
    """Serve with a cap on decode epochs: ``sum(max(stop, 1))``.

    FCFS eviction never takes the oldest live sequence, so every epoch
    gives it a token (or fails it), and each request is the oldest for
    at most its own stop length.  Past the cap the run is thrashing.
    """
    limit = sum(max(max(r.stop_lengths()), 1) for r in requests)
    epochs = [0]
    decode = _ServingRun._decode_epoch

    def counted(run):
        epochs[0] += 1
        if epochs[0] > limit:
            raise AssertionError(f"no progress after {limit} decode epochs")
        decode(run)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ServingRun, "_decode_epoch", counted)
        return sim.run(requests, arrivals)


class TestPreemptionProgress:
    """KV thrash: two sequences must not evict each other forever."""

    @pytest.mark.parametrize("mode", ["scalar", "auto"])
    def test_batch2_thrash_repro_terminates(self, engine, mode):
        rng = np.random.default_rng(2)
        n = 40
        prompt = rng.integers(16, 601, n)
        output = rng.integers(2, 261, n)
        arrivals = poisson_arrivals(rng, 2.5, n)
        requests = [GenerationRequest(i, int(prompt[i]), int(output[i]))
                    for i in range(n)]
        model = engine.model
        cache = PagedKVCache(KVCacheConfig(
            bytes_per_token=model.kv_bytes_per_token, capacity_bytes=32e6))
        sim = ServingSimulator(engine, max_batch_size=2, kv_cache=cache,
                               mode=mode)
        report = _bounded_run(sim, requests, arrivals)
        assert sim.last_mode == "scalar"
        assert report.completed == n
        assert report.preemptions > 0
        assert cache.used_blocks == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           kv_tokens=st.integers(min_value=64, max_value=1500),
           max_batch_size=st.integers(min_value=1, max_value=4),
           n=st.integers(min_value=1, max_value=14))
    def test_every_run_ends_within_its_epoch_bound(self, engine, seed,
                                                   kv_tokens, max_batch_size,
                                                   n):
        rng = np.random.default_rng(seed)
        prompt = rng.integers(8, 400, n)
        output = rng.integers(1, 200, n)
        requests = [GenerationRequest(i, int(prompt[i]), int(output[i]))
                    for i in range(n)]
        arrivals = poisson_arrivals(rng, float(rng.uniform(0.5, 20.0)), n)
        sim = ServingSimulator(engine, max_batch_size=max_batch_size,
                               kv_cache=_tiny_cache(engine, kv_tokens),
                               mode="scalar")
        report = _bounded_run(sim, requests, arrivals)
        assert report.completed + report.failed + report.shed == n


class TestRetries:
    def test_injected_abort_fails_without_policy(self, engine):
        faults = _quiet_faults(abort_rate=1.0)
        sim = ServingSimulator(engine, max_batch_size=4, faults=faults)
        report = sim.run(_requests(3), np.zeros(3))
        assert report.completed == 0
        assert report.injected_aborts == 3
        assert report.failed == 3
        assert report.retries == 0

    def test_retry_recovers_injected_abort(self, engine):
        faults = _quiet_faults(abort_rate=1.0)
        sim = ServingSimulator(engine, max_batch_size=4, faults=faults,
                               degradation=DegradationPolicy(max_retries=2))
        report = sim.run(_requests(3), np.zeros(3))
        assert report.completed == 3
        assert report.injected_aborts == 3
        assert report.retries == 3
        assert report.successful_retries == 3
        assert report.failed == 0
        assert all(r.attempts == 2 for r in report.served)

    def test_zero_retry_budget_fails(self, engine):
        faults = _quiet_faults(abort_rate=1.0)
        sim = ServingSimulator(engine, max_batch_size=4, faults=faults,
                               degradation=DegradationPolicy(max_retries=0))
        report = sim.run(_requests(2), np.zeros(2))
        assert report.completed == 0
        assert report.failed == 2

    def test_backoff_delays_retry(self, engine):
        faults = _quiet_faults(abort_rate=1.0)
        slow = ServingSimulator(
            engine, max_batch_size=4, faults=faults,
            degradation=DegradationPolicy(max_retries=1,
                                          retry_backoff_s=5.0))
        fast = ServingSimulator(
            engine, max_batch_size=4, faults=faults,
            degradation=DegradationPolicy(max_retries=1,
                                          retry_backoff_s=0.1))
        a = slow.run(_requests(1), np.zeros(1))
        b = fast.run(_requests(1), np.zeros(1))
        assert a.served[0].finish_s > b.served[0].finish_s + 4.0


class TestTimeouts:
    def test_watchdog_aborts_long_attempts(self, engine):
        sim = ServingSimulator(
            engine, max_batch_size=2,
            degradation=DegradationPolicy(timeout_s=1.0))
        report = sim.run(_requests(2, output=2000), np.zeros(2))
        assert report.timeouts == 2
        assert report.failed == 2
        assert report.completed == 0

    def test_timeout_retry_opt_in(self, engine):
        sim = ServingSimulator(
            engine, max_batch_size=2,
            degradation=DegradationPolicy(timeout_s=1.0, max_retries=1,
                                          retry_on_timeout=True,
                                          retry_backoff_s=0.1))
        report = sim.run(_requests(1, output=2000), np.zeros(1))
        assert report.timeouts == 2        # both attempts time out
        assert report.retries == 1
        assert report.failed == 1


class TestAdmissionControl:
    def test_reject_mode_sheds_backlog(self, engine):
        policy = DegradationPolicy(shed_queue_depth=2, shed_mode="reject")
        sim = ServingSimulator(engine, max_batch_size=2, degradation=policy)
        report = sim.run(_requests(10), np.zeros(10))
        assert report.shed > 0
        assert report.completed + report.shed == 10

    def test_degrade_mode_shrinks_budgets(self, engine):
        policy = DegradationPolicy(shed_queue_depth=2, shed_mode="degrade",
                                   degraded_control=hard_budget(16))
        sim = ServingSimulator(engine, max_batch_size=2, degradation=policy)
        report = sim.run(_requests(10, output=64), np.zeros(10))
        assert report.completed == 10
        assert report.shed == 0
        assert report.degraded_requests > 0
        assert report.tokens_saved == report.degraded_requests * (64 - 16)
        degraded = [r for r in report.served if r.degraded]
        assert degraded
        assert all(r.output_tokens == 16 for r in degraded)

    def test_degraded_budget_is_sticky_across_preemption(self, engine):
        # A degraded request that later re-queues into an empty backlog
        # keeps its shrunken budget (and is not double-counted).
        cache = _tiny_cache(engine, 2 * (100 + 64) + 32)
        policy = DegradationPolicy(shed_queue_depth=1, shed_mode="degrade",
                                   degraded_control=hard_budget(16))
        sim = ServingSimulator(engine, max_batch_size=4, kv_cache=cache,
                               degradation=policy)
        report = sim.run(_requests(6, output=64), np.zeros(6))
        assert report.completed == 6
        assert report.tokens_saved == report.degraded_requests * (64 - 16)

    def test_light_load_never_degrades(self, engine):
        # Regression: future arrivals still in ``pending`` are not
        # backlog.  Widely spaced requests (queue always empty) must go
        # through untouched even with an aggressive shed threshold.
        policy = DegradationPolicy(shed_queue_depth=0, shed_mode="degrade",
                                   degraded_control=hard_budget(16))
        sim = ServingSimulator(engine, max_batch_size=2, degradation=policy)
        arrivals = np.arange(20, dtype=np.float64) * 1000.0
        report = sim.run(_requests(20, output=64), arrivals)
        assert report.completed == 20
        assert report.degraded_requests == 0
        assert report.tokens_saved == 0

    def test_light_load_never_rejects(self, engine):
        policy = DegradationPolicy(shed_queue_depth=0, shed_mode="reject")
        sim = ServingSimulator(engine, max_batch_size=2, degradation=policy)
        arrivals = np.arange(20, dtype=np.float64) * 1000.0
        report = sim.run(_requests(20), arrivals)
        assert report.completed == 20
        assert report.shed == 0

    def test_reject_mode_sheds_tail_not_head(self, engine):
        # Under EDF overload the controller must reject the requests
        # with the *latest* deadlines, keeping the most urgent ones.
        policy = DegradationPolicy(shed_queue_depth=2, shed_mode="reject")
        sim = ServingSimulator(engine, max_batch_size=1, policy="edf",
                               degradation=policy)
        deadlines = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        report = sim.run(_requests(6, output=8), np.zeros(6), deadlines)
        assert report.shed > 0
        served_ids = {r.request_id for r in report.served}
        # The tightest deadlines (earliest request ids) survive.
        assert served_ids == set(range(report.completed))

    def test_drop_expired_shed_counts_as_miss(self, engine):
        policy = DegradationPolicy(drop_expired=True)
        sim = ServingSimulator(engine, max_batch_size=1, degradation=policy)
        deadlines = np.array([100.0, 0.001])
        report = sim.run(_requests(2, output=400), np.zeros(2), deadlines)
        assert report.shed == 1
        assert report.completed == 1
        # The dropped request still counts against the offered hit rate.
        assert report.deadline_hit_rate == pytest.approx(0.5)


class TestThermalIntegration:
    def test_sustained_load_throttles(self, engine):
        thermal = ThermalConfig(heat_capacity_j_per_c=2.0,
                                conductance_w_per_c=0.2,
                                throttle_trip_c=55.0, resume_c=50.0)
        sim = ServingSimulator(engine, max_batch_size=8, thermal=thermal)
        report = sim.run(_requests(8, output=256), np.zeros(8))
        assert report.thermal_throttle_events >= 1
        assert report.throttle_residency_s > 0
        assert 0.0 < report.throttle_residency_frac <= 1.0

    def test_throttling_slows_completion(self, engine):
        thermal = ThermalConfig(heat_capacity_j_per_c=2.0,
                                conductance_w_per_c=0.2,
                                throttle_trip_c=55.0, resume_c=50.0,
                                throttle_derate=0.5)
        cool = ServingSimulator(engine, max_batch_size=8)
        hot = ServingSimulator(engine, max_batch_size=8, thermal=thermal)
        a = cool.run(_requests(8, output=256), np.zeros(8))
        b = hot.run(_requests(8, output=256), np.zeros(8))
        assert b.wallclock_s > a.wallclock_s

    def test_fault_slowdown_accumulates(self, engine):
        # horizon_s=1.0 pins the episode start inside the run window.
        faults = _quiet_faults(horizon_s=1.0, dvfs_drops=1, dvfs_speed=0.5,
                               dvfs_duration_s=(150.0, 150.0))
        sim = ServingSimulator(engine, max_batch_size=4, faults=faults)
        report = sim.run(_requests(4, output=128), np.zeros(4))
        assert report.fault_slowdown_s > 0
        assert report.throttle_residency_s > 0


class TestSlowdownAccounting:
    """``ServedRequest.slowdown_s``: the derating seconds inside the
    final attempt's service, the signal the fleet breakers read."""

    @pytest.mark.parametrize("mode", ["scalar", "auto"])
    @pytest.mark.parametrize("max_batch_size", [1, 4])
    def test_pure_runs_have_none(self, engine, mode, max_batch_size):
        sim = ServingSimulator(engine, max_batch_size=max_batch_size,
                               mode=mode)
        report = sim.run_poisson(np.random.default_rng(1), qps=8.0,
                                 num_requests=60)
        assert sim.last_mode == mode.replace("auto", "vector")
        assert report.completed == 60
        assert all(r.slowdown_s == 0.0 for r in report.served)

    def test_half_speed_doubles_service(self, engine):
        faults = FaultInjector.from_events(
            [FaultEvent(FaultKind.TRANSIENT, 0.0, 1e6, 0.5)])
        sim = ServingSimulator(engine, max_batch_size=4, faults=faults)
        (served,) = sim.run(_requests(1, output=96), np.zeros(1)).served
        assert served.slowdown_s == pytest.approx(served.service_s / 2,
                                                  rel=1e-12)


def check_run_counters(run):
    """Assert a serving run's counters equal a scan of its state: the
    decode backlog (live ``remaining`` plus queued stop lengths) and the
    live batch's summed context and prompt tokens."""
    queued = sum(max(run.requests[entry[2]].stop_lengths())
                 for heap in (run.ready, run.pending) for entry in heap)
    assert run.decode_backlog == queued + sum(
        seq.remaining for seq in run.live)
    assert run.ctx_sum == sum(seq.context for seq in run.live)
    assert run.prompt_sum == sum(seq.prompt_tokens for seq in run.live)


def _counted_run(engine, shape):
    """An incremental scalar run whose work moves along every path the
    counters follow; returns the run with its stream injected."""
    rng = np.random.default_rng(3)
    n = 16
    requests = [GenerationRequest(i, int(rng.integers(40, 160)),
                                  int(rng.integers(16, 300)))
                for i in range(n)]
    arrivals = np.sort(rng.uniform(0.0, 4.0, n))
    deadlines = rng.uniform(2.0, 30.0, n)
    if shape == "kv_tight":
        # Preemptions, resumes and admissions stalled on a full pool.
        sim = ServingSimulator(engine, max_batch_size=4, mode="scalar",
                               kv_cache=_tiny_cache(engine, 600))
    else:
        # Injected aborts and watchdog timeouts with retries, tail
        # sheds, expired drops and KV pressure spikes, under EDF.
        sim = ServingSimulator(
            engine, max_batch_size=3, policy="edf",
            faults=FaultInjector(FaultScheduleConfig(
                horizon_s=60.0, abort_rate=0.3, kv_pressure_spikes=2,
                kv_pressure_fraction=0.6), seed=9),
            degradation=DegradationPolicy(
                timeout_s=2.5, retry_on_timeout=True, max_retries=2,
                retry_backoff_s=0.2, shed_queue_depth=4, shed_mode="reject",
                drop_expired=True),
            kv_cache=_tiny_cache(engine, 900))
    run = _ServingRun(sim)
    for i in range(n):
        run.inject(requests[i], float(arrivals[i]),
                   deadline_s=float(deadlines[i]))
    return run


class TestRunCounters:
    """The backlog and span-key counters equal a scan after every step."""

    @pytest.mark.parametrize("shape", ["kv_tight", "degraded"])
    def test_counters_match_a_scan_at_every_step(self, engine, shape):
        run = _counted_run(engine, shape)
        t = 0.0
        while run.pending or run.ready or run.live:
            t += 0.05
            run.run_until(t)
            check_run_counters(run)
        report = run.report()
        run.release()
        if shape == "kv_tight":
            assert report.preemptions > 0 and report.resumes > 0
        else:
            assert report.injected_aborts > 0 and report.timeouts > 0
            assert report.retries > 0 and report.shed > 0
        assert (run.decode_backlog, run.ctx_sum, run.prompt_sum) == (0, 0, 0)

    def test_cancel_and_evacuate_keep_the_counters(self, engine):
        run = _counted_run(engine, "kv_tight")
        t = 0.0
        while not (len(run.live) > 1 and len(run.ready) > 1):
            t += 0.05
            run.run_until(t)
        queued = run.requests[run.ready[0][2]].request_id
        assert run.cancel(queued)
        check_run_counters(run)
        assert run.cancel(run.live[0].request_id)
        check_run_counters(run)
        orphans = run.evacuate()
        assert orphans
        check_run_counters(run)
        assert (run.decode_backlog, run.ctx_sum, run.prompt_sum) == (0, 0, 0)
        run.release()


class TestDeterminism:
    def test_chaos_run_bitwise_deterministic(self, engine):
        faults = FaultInjector(FaultScheduleConfig(
            horizon_s=120.0, abort_rate=0.3, kv_pressure_spikes=2,
            kv_pressure_fraction=0.7), seed=9)
        thermal = ThermalConfig(heat_capacity_j_per_c=5.0,
                                conductance_w_per_c=0.2,
                                throttle_trip_c=55.0, resume_c=50.0)
        policy = DegradationPolicy(max_retries=2, retry_backoff_s=0.2,
                                   shed_queue_depth=3,
                                   degraded_control=hard_budget(32))
        cache_tokens = 4 * (100 + 64)
        reports = []
        for _ in range(2):
            sim = ServingSimulator(
                engine, max_batch_size=4, policy="edf", faults=faults,
                thermal=thermal, degradation=policy,
                kv_cache=_tiny_cache(engine, cache_tokens))
            arrivals = np.linspace(0.0, 10.0, 12)
            deadlines = np.full(12, 60.0)
            reports.append(sim.run(_requests(12), arrivals, deadlines))
        assert reports[0] == reports[1]

    def test_shared_engine_cache_left_clean(self, engine):
        cache = engine.kv_cache
        sim = ServingSimulator(engine, max_batch_size=4,
                               faults=_quiet_faults(abort_rate=0.5),
                               degradation=DegradationPolicy(max_retries=1))
        sim.run(_requests(6), np.zeros(6))
        assert cache.used_blocks == 0
        assert cache.reserved_blocks == 0


class TestDegradationPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0},
        {"max_retries": -1},
        {"retry_backoff_s": 0.0},
        {"shed_mode": "panic"},
        {"shed_queue_depth": -1},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DegradationPolicy(**kwargs)

    def test_backoff_doubles(self):
        policy = DegradationPolicy(retry_backoff_s=0.5)
        assert policy.backoff_s(1) == pytest.approx(0.5)
        assert policy.backoff_s(2) == pytest.approx(1.0)
        assert policy.backoff_s(3) == pytest.approx(2.0)

    def test_degraded_budget_requires_enforcing_control(self):
        from repro.generation.control import base_control
        assert DegradationPolicy().degraded_budget() is None
        assert (DegradationPolicy(degraded_control=base_control())
                .degraded_budget() is None)
        assert (DegradationPolicy(degraded_control=hard_budget(64))
                .degraded_budget() == 64)
