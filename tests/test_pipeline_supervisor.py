"""Supervised execution: retries, watchdog, quarantine, chaos seams."""

import time

import pytest

from repro.experiments.runner import render
from repro.faults.injector import FaultInjector, PipelineFaultConfig
from repro.pipeline.graph import ArtifactSpec, DependencyGraph, ProducerSpec
from repro.pipeline.runner import PipelineError, run_pipeline
from repro.pipeline.store import ArtifactStore
from repro.pipeline.supervisor import (
    InjectedProducerFault,
    ProducerFailure,
    Supervisor,
    SupervisorPolicy,
    WatchdogTimeout,
    exception_digest,
)


def no_sleep(_seconds: float) -> None:
    """Backoff stub so retry tests spend zero wall time."""


def toy_graph() -> DependencyGraph:
    """base -> grid -> {a1, a2}, plus an independent solo artifact."""
    producers = {
        "base": ProducerSpec("base", lambda seed: {"v": 7 + seed}),
        "grid": ProducerSpec(
            "grid", lambda seed, base: [base["v"] * i for i in range(4)],
            deps={"base": "base"}),
    }
    artifacts = {
        "a1": ArtifactSpec("a1", lambda seed, grid: f"a1:{grid}",
                           deps={"grid": "grid"}),
        "a2": ArtifactSpec("a2", lambda seed, grid: f"a2:{sum(grid)}",
                           deps={"grid": "grid"}),
        "solo": ArtifactSpec("solo", lambda seed: f"solo:{seed}"),
    }
    return DependencyGraph(producers, artifacts)


class TestExceptionDigest:
    def test_stable(self):
        a = exception_digest(ValueError("boom"))
        b = exception_digest(ValueError("boom"))
        assert a == b and len(a) == 12

    def test_distinguishes_type_and_message(self):
        base = exception_digest(ValueError("boom"))
        assert exception_digest(ValueError("bang")) != base
        assert exception_digest(RuntimeError("boom")) != base


class TestBackoff:
    def test_seeded_and_deterministic(self):
        a = Supervisor(SupervisorPolicy(retries=3), seed=7)
        b = Supervisor(SupervisorPolicy(retries=3), seed=7)
        assert a.backoff_seconds("p", 1) == b.backoff_seconds("p", 1)
        assert a.backoff_seconds("p", 1) != a.backoff_seconds("q", 1)

    def test_exponential_growth_with_bounded_jitter(self):
        policy = SupervisorPolicy(retries=4, backoff_base_s=0.1,
                                  backoff_factor=2.0, jitter_frac=0.1)
        supervisor = Supervisor(policy, seed=0)
        for attempt, nominal in ((1, 0.1), (2, 0.2), (3, 0.4)):
            delay = supervisor.backoff_seconds("p", attempt)
            assert nominal * 0.9 <= delay <= nominal * 1.1

    def test_zero_jitter_is_exact(self):
        policy = SupervisorPolicy(retries=1, backoff_base_s=0.05,
                                  jitter_frac=0.0)
        assert Supervisor(policy).backoff_seconds("p", 2) == pytest.approx(0.1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(jitter_frac=1.5)
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout_s=0)


class TestRetry:
    def test_flaky_producer_recovers(self):
        supervisor = Supervisor(SupervisorPolicy(retries=3), sleep=no_sleep)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError(f"flake {len(calls)}")
            return 42

        assert supervisor.run_producer("p", flaky) == 42
        assert len(calls) == 3
        stats = supervisor.stats
        assert stats.attempts == 3 and stats.retries == 2
        assert stats.recovered == 1
        assert stats.wasted_seconds > 0
        outcomes = [r.outcome for r in supervisor.attempts_for("p")]
        assert outcomes == ["error", "error", "ok"]

    def test_attempt_records_carry_digests(self):
        supervisor = Supervisor(SupervisorPolicy(retries=1), sleep=no_sleep)
        with pytest.raises(ProducerFailure):
            supervisor.run_producer(
                "p", lambda: (_ for _ in ()).throw(ValueError("boom")))
        records = supervisor.attempts_for("p")
        assert [r.attempt for r in records] == [1, 2]
        assert all(r.error_type == "ValueError" for r in records)
        assert all(r.error_digest == exception_digest(ValueError("boom"))
                   for r in records)

    def test_exhausted_budget_raises_producer_failure(self):
        supervisor = Supervisor(SupervisorPolicy(retries=2), sleep=no_sleep)

        def always():
            raise RuntimeError("permanent")

        with pytest.raises(ProducerFailure) as excinfo:
            supervisor.run_producer("p", always)
        failure = excinfo.value
        assert failure.producer_id == "p"
        assert len(failure.attempts) == 3
        assert failure.error_type == "RuntimeError"
        assert "3 attempts" in str(failure)


class TestWatchdog:
    def test_hung_producer_times_out(self):
        supervisor = Supervisor(SupervisorPolicy(timeout_s=0.05),
                                sleep=no_sleep)
        with pytest.raises(ProducerFailure) as excinfo:
            supervisor.run_producer("p", lambda: time.sleep(1.0))
        assert excinfo.value.error_type == "WatchdogTimeout"
        stats = supervisor.stats
        assert stats.timeouts == 1
        assert supervisor.attempts_for("p")[0].outcome == "timeout"

    def test_fast_producer_unaffected(self):
        supervisor = Supervisor(SupervisorPolicy(timeout_s=5.0))
        assert supervisor.run_producer("p", lambda: 9) == 9

    def test_worker_exception_propagates_through_watchdog(self):
        supervisor = Supervisor(SupervisorPolicy(timeout_s=5.0))
        with pytest.raises(ProducerFailure) as excinfo:
            supervisor.run_producer(
                "p", lambda: (_ for _ in ()).throw(KeyError("inside")))
        assert excinfo.value.error_type == "KeyError"

    def test_timeout_retried_like_any_failure(self):
        supervisor = Supervisor(
            SupervisorPolicy(retries=1, timeout_s=0.05), sleep=no_sleep)
        calls = []

        def slow_then_fast():
            calls.append(1)
            if len(calls) == 1:
                time.sleep(1.0)
            return "ok"

        assert supervisor.run_producer("p", slow_then_fast) == "ok"
        assert supervisor.stats.timeouts == 1
        assert supervisor.stats.recovered == 1


class TestQuarantine:
    def test_second_request_fails_instantly(self):
        supervisor = Supervisor(SupervisorPolicy(retries=2), sleep=no_sleep)
        calls = []

        def always():
            calls.append(1)
            raise ValueError("permanent")

        with pytest.raises(ProducerFailure) as first:
            supervisor.run_producer("p", always)
        assert len(calls) == 3
        with pytest.raises(ProducerFailure) as second:
            supervisor.run_producer("p", always)
        # Quarantined: the original failure, no new attempts burned.
        assert second.value is first.value
        assert len(calls) == 3
        assert supervisor.stats.failed_producers == ("p",)
        assert supervisor.failure_for("p") is first.value

    def test_dependency_failure_not_retried_by_parent(self):
        supervisor = Supervisor(SupervisorPolicy(retries=3), sleep=no_sleep)
        with pytest.raises(ProducerFailure):
            supervisor.run_producer(
                "dep", lambda: (_ for _ in ()).throw(ValueError("root")))
        parent_calls = []

        def parent():
            parent_calls.append(1)
            # Resolving the dep re-raises its quarantined failure.
            supervisor.run_producer("dep", lambda: 1)

        with pytest.raises(ProducerFailure) as excinfo:
            supervisor.run_producer("parent", parent)
        # Retrying the parent cannot fix its dependency: one attempt only.
        assert len(parent_calls) == 1
        assert excinfo.value.producer_id == "dep"


class TestPipelineFailureHandling:
    def test_keep_going_quarantines_downstream(self):
        graph = toy_graph()
        producers = dict(graph.producers)
        producers["base"] = ProducerSpec(
            "base", lambda seed: (_ for _ in ()).throw(OSError("dead")))
        broken = DependencyGraph(producers, graph.artifacts)

        result = run_pipeline(("a1", "a2", "solo"), graph=broken,
                              keep_going=True, retries=1,
                              backoff_base_s=0.0)
        # The healthy artifact completed; both downstream ones quarantined.
        assert tuple(result.outputs) == ("solo",)
        failed = {f.artifact: f for f in result.report.failed}
        assert set(failed) == {"a1", "a2"}
        for failure in failed.values():
            assert failure.producer == "base"
            assert failure.error_type == "OSError"
        # The root producer burned its budget once, not once per artifact.
        assert len(failed["a1"].attempts) == 2
        assert result.report.supervisor_stats.attempts == 2
        statuses = {t.artifact: t.status for t in result.report.timings}
        assert statuses == {"a1": "failed", "a2": "failed", "solo": "built"}

    def test_artifact_function_failure_recorded_without_producer(self):
        graph = toy_graph()
        artifacts = dict(graph.artifacts)
        artifacts["bad"] = ArtifactSpec(
            "bad", lambda seed, grid: 1 / 0, deps={"grid": "grid"})
        broken = DependencyGraph(graph.producers, artifacts)
        result = run_pipeline(("a1", "bad"), graph=broken, keep_going=True)
        (failure,) = result.report.failed
        assert failure.artifact == "bad" and failure.producer is None
        assert failure.error_type == "ZeroDivisionError"

    def test_fail_fast_raises_pipeline_error_with_partial_report(self):
        graph = toy_graph()
        artifacts = dict(graph.artifacts)
        artifacts["bad"] = ArtifactSpec(
            "bad", lambda seed: (_ for _ in ()).throw(ValueError("nope")))
        broken = DependencyGraph(graph.producers, artifacts)

        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(("a1", "bad", "a2"), graph=broken, jobs=4)
        error = excinfo.value
        assert error.artifact == "bad"
        assert "ValueError" in str(error)
        # The partial report keeps completed work: every future drained.
        timed = {t.artifact: t.status for t in error.report.timings}
        assert timed["bad"] == "failed"
        assert timed["a1"] == "built" and timed["a2"] == "built"

    def test_fail_fast_serial_stops_at_first_failure(self):
        graph = toy_graph()
        artifacts = dict(graph.artifacts)
        artifacts["bad"] = ArtifactSpec(
            "bad", lambda seed: (_ for _ in ()).throw(ValueError("nope")))
        broken = DependencyGraph(graph.producers, artifacts)
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(("a1", "bad", "a2"), graph=broken, jobs=1)
        timed = [t.artifact for t in excinfo.value.report.timings]
        assert timed == ["a1", "bad"]  # a2 never started


class TestChaosInjection:
    def test_fault_decisions_deterministic_and_transient(self):
        cfg = PipelineFaultConfig(producer_fail_rate=0.5,
                                  producer_fail_attempts=2)
        a = FaultInjector(seed=3, pipeline=cfg)
        b = FaultInjector(seed=3, pipeline=cfg)
        for pid in ("alpha", "beta", "gamma"):
            for attempt in (1, 2, 3):
                assert (a.should_fail_producer(pid, attempt)
                        == b.should_fail_producer(pid, attempt))
            # Transient by construction: late attempts never fail.
            assert not a.should_fail_producer(pid, 3)

    def test_rate_one_always_fires_rate_zero_never(self):
        always = FaultInjector(pipeline=PipelineFaultConfig(
            producer_fail_rate=1.0, cache_corrupt_rate=1.0))
        off = FaultInjector(pipeline=None)
        assert always.should_fail_producer("p", 1)
        assert always.should_corrupt_cache("p")
        assert not off.should_fail_producer("p", 1)
        assert not off.should_corrupt_cache("p")

    def test_injected_faults_recover_with_identical_outputs(self):
        graph = toy_graph()
        clean = run_pipeline(("a1", "a2", "solo"), graph=graph)

        faults = FaultInjector(seed=0, pipeline=PipelineFaultConfig(
            producer_fail_rate=1.0, producer_fail_attempts=2))
        chaos = run_pipeline(("a1", "a2", "solo"), graph=graph,
                             retries=2, backoff_base_s=0.0, faults=faults)
        for artifact in ("a1", "a2", "solo"):
            assert (render(chaos.outputs[artifact])
                    == render(clean.outputs[artifact])), artifact
        sup = chaos.report.supervisor_stats
        # Both producers failed their first two attempts, then recovered.
        assert sup.injected_faults == 4
        assert sup.recovered == 2
        assert not chaos.report.failed

    def test_injected_fault_without_retries_quarantines(self):
        graph = toy_graph()
        faults = FaultInjector(seed=0, pipeline=PipelineFaultConfig(
            producer_fail_rate=1.0))
        result = run_pipeline(("a1", "solo"), graph=graph, keep_going=True,
                              faults=faults)
        (failure,) = result.report.failed
        assert failure.artifact == "a1"
        assert failure.error_type == InjectedProducerFault.__name__

    def test_hang_fault_trips_watchdog_then_recovers(self):
        cfg = PipelineFaultConfig(hang_rate=1.0, hang_seconds=5.0)
        faults = FaultInjector(seed=0, pipeline=cfg)
        supervisor = Supervisor(
            SupervisorPolicy(retries=1, timeout_s=0.05),
            faults=faults, sleep=no_sleep)
        assert supervisor.run_producer("p", lambda: "value") == "value"
        stats = supervisor.stats
        assert stats.timeouts == 1 and stats.recovered == 1

    def test_hang_without_watchdog_just_delays(self):
        cfg = PipelineFaultConfig(hang_rate=1.0, hang_seconds=0.01)
        faults = FaultInjector(seed=0, pipeline=cfg)
        supervisor = Supervisor(SupervisorPolicy(), faults=faults)
        assert supervisor.run_producer("p", lambda: 5) == 5

    def test_watchdog_timeout_exception_type(self):
        supervisor = Supervisor(SupervisorPolicy(timeout_s=0.02),
                                sleep=no_sleep)
        with pytest.raises(ProducerFailure) as excinfo:
            supervisor.run_producer("p", lambda: time.sleep(0.5))
        assert isinstance(excinfo.value.__cause__, WatchdogTimeout)


class TestPipelineChaosStudy:
    def test_small_study_passes_gate_with_real_injection(self, tmp_path):
        from repro.experiments.resilience import (
            PIPELINE_CHAOS_ARTIFACTS,
            pipeline_gate,
        )

        gate = pipeline_gate(
            artifact_ids=PIPELINE_CHAOS_ARTIFACTS,
            fail_rate=0.9, retries=3, cache_corrupt_rate=1.0,
            crash_after=2, seed=0, smoke=True, jobs=2,
            cache_dir=tmp_path)
        result = gate.points
        assert gate.ok
        assert result["artifacts"] == len(PIPELINE_CHAOS_ARTIFACTS)
        assert (result["completed"] == result["artifacts"]
                and result["failed"] == 0)
        # The gate must not be vacuous: chaos actually fired.
        assert result["injected_faults"] > 0
        assert result["disk_corruptions"] > 0
        assert result["chaos_identical"] and result["resume_identical"]
        assert (result["committed_before_crash"]
                + result["resume_recomputed"] == result["artifacts"])
        assert ("injected_faults" in gate.table
                and "resume_recomputed" in gate.table)


class TestStoreFaultSeam:
    def test_store_inherits_faults_from_run_pipeline(self, tmp_path):
        graph = toy_graph()
        faults = FaultInjector(seed=0, pipeline=PipelineFaultConfig(
            cache_corrupt_rate=1.0))
        store = ArtifactStore(cache_dir=tmp_path)
        run_pipeline(("solo", "a1"), graph=graph, store=store, faults=faults)
        assert store.faults is faults
        # Every fresh write was garbled; a cold store detects them all.
        cold = ArtifactStore(cache_dir=tmp_path)
        result = run_pipeline(("a1",), graph=graph, store=cold)
        assert cold.stats.disk_corruptions == 2  # base + grid
        assert result.outputs["a1"] == "a1:[0, 7, 14, 21]"
