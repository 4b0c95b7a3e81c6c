"""DAG expansion, rid scheme, dependency gating, the coordinator, and
the vote aggregation."""

import dataclasses

import numpy as np
import pytest

import repro.tiering.dag as dag_module
from repro.tiering import (
    MAX_STAGES,
    STAGE_BRANCH,
    STAGE_PLAN,
    STAGE_VERIFY,
    TIER_DEEP,
    DagRun,
    TierAssignment,
    TieringConfig,
    build_dag,
)
from repro.scaling.voting import (
    _validated_stats,
    majority_vote,
    sample_answer_matrix,
)
from repro.workloads.agentic import AGENTIC_KINDS, DagJob, agentic_suite
from tests.test_gateway_golden import tiered_fault_run


def job(job_id=0, difficulty=0.5, session="user-000", deadline_s=None):
    return DagJob(job_id=job_id, arrival_s=0.0, session=session,
                  difficulty=difficulty, kind="game24", prompt_tokens=80,
                  deadline_s=deadline_s)


class TestAgenticSuite:
    def test_shapes_and_determinism(self):
        import numpy as np

        a = agentic_suite(np.random.default_rng(3), qps=2.0, jobs=20)
        b = agentic_suite(np.random.default_rng(3), qps=2.0, jobs=20)
        assert a == b
        assert len(a) == 20
        assert all(j.kind in AGENTIC_KINDS for j in a)
        assert all(0.0 <= j.difficulty <= 1.0 for j in a)
        arrivals = [j.arrival_s for j in a]
        assert arrivals == sorted(arrivals)

    def test_bad_job_rejected(self):
        with pytest.raises(ValueError):
            DagJob(job_id=0, arrival_s=0.0, session="s", difficulty=1.5,
                   kind="game24", prompt_tokens=80)
        with pytest.raises(ValueError):
            DagJob(job_id=0, arrival_s=0.0, session="s", difficulty=0.5,
                   kind="no-such-kind", prompt_tokens=80)


class TestBuildDag:
    def assignment(self, branches=3, verify=True):
        return TierAssignment(TIER_DEEP, branches, verify, 0.7, False)

    def test_plan_branches_verify_shape(self):
        config = TieringConfig()
        dag = build_dag(job(), self.assignment(), 640, config)
        kinds = [s.kind for s in dag.stages]
        assert kinds == [STAGE_PLAN, STAGE_BRANCH, STAGE_BRANCH,
                         STAGE_BRANCH, STAGE_VERIFY]

    def test_rid_scheme_unique_and_job_scoped(self):
        config = TieringConfig()
        dag = build_dag(job(job_id=5), self.assignment(), 640, config)
        rids = [s.rid for s in dag.stages]
        assert len(set(rids)) == len(rids)
        assert all(5 * MAX_STAGES <= rid < 6 * MAX_STAGES for rid in rids)

    def test_dependency_edges(self):
        config = TieringConfig()
        dag = build_dag(job(), self.assignment(), 640, config)
        plan = dag.stages[0]
        assert plan.deps == ()
        for branch in dag.stages[1:-1]:
            assert branch.deps == (plan.rid,)
        verify = dag.stages[-1]
        assert verify.deps == dag.branch_rids

    def test_deterministic_rebuild(self):
        config = TieringConfig(seed=4)
        a = build_dag(job(job_id=9), self.assignment(), 640, config)
        b = build_dag(job(job_id=9), self.assignment(), 640, config)
        assert a == b

    def test_no_verify_shape(self):
        config = TieringConfig()
        dag = build_dag(job(), self.assignment(branches=1, verify=False),
                        256, config)
        assert [s.kind for s in dag.stages] == [STAGE_PLAN, STAGE_BRANCH]

    def test_too_many_branches_rejected(self):
        config = TieringConfig()
        with pytest.raises(ValueError):
            build_dag(job(), self.assignment(branches=MAX_STAGES), 640,
                      config)


class TestDagRunCoordinator:
    def test_admit_releases_only_roots(self):
        run = DagRun(TieringConfig(predict_noise=0.0))
        verdict, released = run.admit(job(difficulty=0.9), 0.0, 0.0)
        assert verdict == "go"
        assert len(released) == 1  # the plan stage
        assert run.children_offered == 5  # plan + 3 branches + verify
        assert not run.done()

    def test_dependency_gated_release_order(self):
        run = DagRun(TieringConfig(predict_noise=0.0))
        _, released = run.admit(job(difficulty=0.9), 0.0, 0.0)
        plan_rid = released[0].request.request_id
        # Nothing releases while the plan is in flight.
        assert run.ready_children({}, 1.0) == []
        run.note_served(plan_rid, 64)
        branches = run.ready_children({plan_rid: "served"}, 1.0)
        assert len(branches) == 3
        branch_rids = [r.request.request_id for r in branches]
        # Verify waits for every branch, not just one.
        partial = {plan_rid: "served", branch_rids[0]: "served"}
        assert run.ready_children(partial, 2.0) == []
        terminal = {plan_rid: "served"}
        terminal.update({rid: "served" for rid in branch_rids})
        verify = run.ready_children(terminal, 3.0)
        assert len(verify) == 1
        verify_rid = verify[0].request.request_id
        terminal[verify_rid] = "served"
        run.ready_children(terminal, 4.0)
        assert run.done()

    def test_release_and_refund_order_match_a_full_scan(self):
        """Interleaved admits and settles against the rule spelled out
        over every stage: each call refunds the released stages that
        turned terminal, then releases every waiting stage whose
        dependencies are all terminal, both in rid order."""
        import numpy as np

        rng = np.random.default_rng(5)
        run = DagRun(TieringConfig(predict_noise=0.0,
                                   session_token_budget=4000))
        refunds = []
        refund = run.budget.refund

        def recorded(session, rid, spent_tokens):
            refunds.append(rid)
            refund(session, rid, spent_tokens)

        run.budget.refund = recorded
        terminal, released, settled = {}, set(), set()
        job_id, calls, waits = 0, 0, 0
        while job_id < 16 or not run.done():
            if job_id < 16 and rng.random() < 0.4:
                verdict, out = run.admit(
                    job(job_id=job_id, difficulty=float(rng.random()),
                        session=f"u{job_id % 3}"), float(job_id), 0.0)
                job_id += 1
                if verdict == "go":
                    released.update(r.request.request_id for r in out)
                continue
            for rid in sorted(released - set(terminal)):
                if rng.random() < 0.3:
                    run.note_served(rid, int(rng.integers(8, 200)))
                    terminal[rid] = "served"
            stages = [s for dag in run.dags.values() if not dag.shed
                      for s in dag.stages]
            want_refunds = sorted(r for r in released - settled
                                  if r in terminal)
            want = sorted(s.rid for s in stages
                          if s.deps and s.rid not in released
                          and all(d in terminal for d in s.deps))
            waits += any(s.deps and s.rid not in released for s in stages)
            refunds.clear()
            got = [r.request.request_id
                   for r in run.ready_children(terminal, float(calls))]
            assert refunds == want_refunds
            assert got == want
            settled.update(want_refunds)
            released.update(got)
            calls += 1
        assert calls > 20 and waits > 10

    def test_ladder_shed_returns_all_rids(self):
        config = TieringConfig(enter_pressure=(0.1, 0.2, 0.3),
                               exit_pressure=(0.05, 0.1, 0.15))
        run = DagRun(config)
        # One step per observation: levels 1 and 2 still admit.
        for n in range(2):
            verdict, _ = run.admit(job(job_id=n, session=f"u{n}"),
                                   float(n), 99.0)
            assert verdict == "go"
        verdict, rids = run.admit(job(job_id=2, session="u2"), 2.0, 99.0)
        assert verdict == "shed"
        assert len(rids) >= 2  # the whole planned DAG is disposed
        assert run.jobs_shed == 1
        assert run.ladder.max_tier_reached() == 3

    def test_budget_shed_registers_children(self):
        run = DagRun(TieringConfig(session_token_budget=100))
        verdict, rids = run.admit(job(), 0.0, 0.0)
        assert verdict == "shed"
        # Shed children still count toward offered so conservation
        # stays exact at the fleet level.
        assert run.children_offered == len(rids) == 2

    def test_force_shed_remaining_empties_waiting(self):
        run = DagRun(TieringConfig(predict_noise=0.0))
        run.admit(job(difficulty=0.9), 0.0, 0.0)
        rids = run.force_shed_remaining()
        assert len(rids) == 4  # 3 branches + verify were dep-gated
        assert run.ready_children({}, 1.0) == []

    def test_deadline_shrinks_with_release_time(self):
        run = DagRun(TieringConfig(predict_noise=0.0))
        _, released = run.admit(job(difficulty=0.9, deadline_s=30.0),
                                0.0, 0.0)
        plan_req = released[0]
        assert plan_req.deadline_s == pytest.approx(30.0)
        plan_rid = plan_req.request.request_id
        run.note_served(plan_rid, 64)
        branches = run.ready_children({plan_rid: "served"}, 12.0)
        assert branches[0].deadline_s == pytest.approx(18.0)

    def test_refund_on_settle_tops_up_later_branch(self):
        # A tight session budget admits the first job trimmed; its
        # underspend refund then funds the branch's top-up at release.
        config = TieringConfig(session_token_budget=500, predict_noise=0.0)
        run = DagRun(config)
        _, released = run.admit(job(difficulty=0.1), 0.0, 0.0)
        plan_rid = released[0].request.request_id
        before = run.budget.tokens_redistributed
        run.note_served(plan_rid, 8)
        branches = run.ready_children({plan_rid: "served"}, 1.0)
        assert branches
        assert run.budget.tokens_refunded > 0
        assert run.budget.tokens_redistributed >= before


@pytest.fixture(scope="module")
def tiered_run():
    """A faulted tiered run: ``(DagRun, FleetReport)``."""
    gateway, report = tiered_fault_run()
    return gateway._dag, report


def _recorded_votes(monkeypatch):
    """Record each ``majority_vote`` call of ``DagRun.aggregate`` as
    ``(answers row, winner)``."""
    calls = []

    def recorded(answers, rng):
        winners = majority_vote(answers, rng)
        calls.append((answers.tolist(), winners.tolist()))
        return winners

    monkeypatch.setattr(dag_module, "majority_vote", recorded)
    return calls


class TestVoteAggregation:
    """``aggregate`` validates once, then draws exactly as one public
    ``sample_answer_matrix`` + ``majority_vote`` pass per job does."""

    def test_matches_the_per_job_public_reference(self, tiered_run,
                                                  monkeypatch):
        run, report = tiered_run
        _, ballots = run._ballots(report)
        kinds = {len({s[:4] for s in stats}) == 1 for stats, _ in ballots}
        assert kinds == {True, False}  # homogeneous and mixed jobs

        rng = np.random.default_rng((run.config.seed, 97))
        votes, correct, rescues = [], 0, 0
        for stats, p_verify in ballots:
            if len({s[:4] for s in stats}) == 1:
                p, w, g, det, choices = stats[0]
                answers = list(sample_answer_matrix(
                    np.array([p]), np.array([w]), choices, len(stats), rng,
                    garbage_share=np.array([g]),
                    determinism=np.array([det]))[0])
            else:
                answers = []
                for index, (p, w, g, _det, choices) in enumerate(stats):
                    answer = int(sample_answer_matrix(
                        np.array([p]), np.array([w]), choices, 1, rng,
                        garbage_share=np.array([g]))[0, 0])
                    answers.append(-(index + 1) if answer < 0 else answer)
            row = np.array([answers], dtype=np.int64)
            winner = majority_vote(row, rng)
            votes.append((row.tolist(), winner.tolist()))
            is_correct = int(winner[0]) == 0
            if (not is_correct and p_verify is not None
                    and float(rng.random()) < p_verify):
                is_correct = True
                rescues += 1
            correct += is_correct

        validations = []
        monkeypatch.setattr(dag_module, "_validated_stats",
                            lambda *args: validations.append(args)
                            or _validated_stats(*args))
        calls = _recorded_votes(monkeypatch)
        tiering = run.aggregate(report)
        assert calls == votes
        assert len(validations) == 1
        assert tiering.jobs_completed == len(ballots)
        assert tiering.answer_accuracy == correct / len(ballots)
        assert tiering.verify_rescues == rescues > 0
        assert tiering == report.tiering

    def test_curve_accuracy_is_memoized_for_the_process(self, tiered_run):
        run, report = tiered_run
        memo = dag_module._mode_accuracy
        ballots = run._ballots(report)
        before = memo.cache_info()
        assert run._ballots(report) == ballots
        after = memo.cache_info()
        assert after.misses == before.misses and after.hits > before.hits
        assert after.currsize <= after.maxsize
        benchmark = run.config.benchmark
        for outcome in report.devices:
            profile = dag_module.capability_profile(outcome.model, benchmark)
            for mode, tokens in (("hard", 97), ("completed", 4096)):
                assert memo(outcome.model, benchmark, mode, tokens) == (
                    profile.accuracy_for_mode(mode, tokens))

    @pytest.mark.parametrize("name", ["p_correct", "distractor_share",
                                      "determinism"])
    def test_out_of_range_stats_still_raise(self, tiered_run, monkeypatch,
                                            name):
        run, report = tiered_run
        if name == "p_correct":
            solve = dag_module.question_success_probabilities
            monkeypatch.setattr(
                dag_module, "question_success_probabilities",
                lambda *args: solve(*args) + 1.0)
        elif name == "distractor_share":
            monkeypatch.setattr(dag_module, "distractor_shares",
                                lambda profile, d: np.full(d.shape, 1.5))
        else:
            lookup = dag_module.capability_profile
            monkeypatch.setattr(
                dag_module, "capability_profile",
                lambda model, bench: dataclasses.replace(
                    lookup(model, bench), determinism_base=-0.1))
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            run.aggregate(report)
