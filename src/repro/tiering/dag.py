"""Request DAGs: plan → N parallel reasoning branches → vote/verify.

A :class:`DagRun` coordinates one tiered gateway run.  It expands each
:class:`~repro.workloads.agentic.DagJob` into gateway-routable child
requests with dependency-gated release times, meters them through the
:class:`~repro.tiering.policy.BudgetManager`, and — once the fleet
report is in — aggregates branch outcomes through
:mod:`repro.scaling.voting` so end-to-end *answer accuracy* joins
latency and energy in the report.

Child request ids are ``job_id * MAX_STAGES + stage_index``, so DAG
children stay globally unique and conservation
(``offered == served + shed + failed``) holds over children exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.engine.request import GenerationRequest
from repro.fleet.brownout import PressureLadder
from repro.models.capability import (
    capability_profile,
    distractor_shares,
    question_success_probabilities,
)
from repro.scaling.voting import (
    _validated_stats,
    check_num_choices,
    draw_answer_matrix,
    majority_vote,
)
from repro.tiering.policy import (
    TIER_DEEP,
    TIER_FAST,
    TIER_VERIFY,
    BudgetManager,
    EnergyQuote,
    TierAssignment,
    TieringConfig,
    TierPolicy,
)
from repro.tiering.report import TieringReport
from repro.workloads.agentic import DagJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.device import FleetDevice
    from repro.fleet.gateway import FleetRequest
    from repro.fleet.report import FleetReport

#: Request-id stride per job; a DAG may not exceed this many stages.
MAX_STAGES = 64

STAGE_PLAN = "plan"
STAGE_BRANCH = "branch"
STAGE_VERIFY = "verify"


@dataclass(frozen=True)
class DagStage:
    """One gateway-routable child request of a job's DAG."""

    rid: int
    kind: str
    tier: str
    #: Preferred serving models (tier pool); routing falls back to the
    #: whole fleet when no preferred device is up.
    models: tuple[str, ...]
    prompt_tokens: int
    natural_length: int
    #: Tokens reserved at admission (may be topped up at release).
    budget_tokens: int
    deps: tuple[int, ...]


@dataclass(frozen=True)
class RequestDAG:
    """A job expanded into its dependency-ordered stages."""

    job: DagJob
    assignment: TierAssignment
    stages: tuple[DagStage, ...]
    shed: bool = False

    @property
    def branch_rids(self) -> tuple[int, ...]:
        return tuple(s.rid for s in self.stages if s.kind == STAGE_BRANCH)


@functools.lru_cache(maxsize=1 << 12)
def _mode_accuracy(model: str, benchmark: str, mode: str,
                   tokens: int) -> float:
    """``accuracy_for_mode`` of a served stage, memoized for the process:
    capability profiles are constants, and solving a curve is costly."""
    return capability_profile(model, benchmark).accuracy_for_mode(mode,
                                                                  tokens)


def build_dag(job: DagJob, assignment: TierAssignment, branch_budget: int,
              config: TieringConfig, shed: bool = False) -> RequestDAG:
    """Deterministically expand a job into plan/branch/verify stages.

    Natural chain lengths are seeded per (config seed, job, stage) so the
    same job always produces the same DAG regardless of arrival order.
    """
    if assignment.branches + 2 > MAX_STAGES:
        raise ValueError(f"DAG exceeds {MAX_STAGES} stages")
    rng = np.random.default_rng((config.seed, job.job_id, 7))
    base = job.job_id * MAX_STAGES

    def natural(target: float) -> int:
        draw = rng.lognormal(np.log(max(target, 8.0)), 0.35)
        return int(min(max(draw, 8), 4 * max(target, 8.0)))

    stages: list[DagStage] = []
    plan_rid = base
    stages.append(DagStage(
        rid=plan_rid, kind=STAGE_PLAN, tier=TIER_FAST,
        models=config.fast_models, prompt_tokens=job.prompt_tokens,
        natural_length=natural(0.7 * config.plan_tokens),
        budget_tokens=config.plan_tokens, deps=()))
    # Harder questions want longer chains; easy ones finish early and
    # refund their reservation — that surplus funds later stages.
    target = branch_budget * (0.55 + 0.6 * job.difficulty)
    branch_prompt = job.prompt_tokens + config.plan_tokens
    for index in range(assignment.branches):
        stages.append(DagStage(
            rid=base + 1 + index, kind=STAGE_BRANCH, tier=assignment.tier,
            models=config.models_for_tier(assignment.tier),
            prompt_tokens=branch_prompt,
            natural_length=natural(target),
            budget_tokens=branch_budget, deps=(plan_rid,)))
    if assignment.verify:
        branch_rids = tuple(base + 1 + i for i in range(assignment.branches))
        stages.append(DagStage(
            rid=base + 1 + assignment.branches, kind=STAGE_VERIFY,
            tier=TIER_VERIFY, models=config.verify_models,
            prompt_tokens=job.prompt_tokens + 24 * assignment.branches,
            natural_length=natural(0.7 * config.verify_tokens),
            budget_tokens=config.verify_tokens, deps=branch_rids))
    return RequestDAG(job=job, assignment=assignment,
                      stages=tuple(stages), shed=shed)


class DagRun:
    """Coordinator state for one tiered gateway run."""

    def __init__(self, config: TieringConfig,
                 energy_quote: EnergyQuote | None = None) -> None:
        self.config = config
        self.policy = TierPolicy(config)
        self.budget = BudgetManager(config)
        self.ladder = PressureLadder(config)
        self._quote = energy_quote
        self.dags: dict[int, RequestDAG] = {}
        self._stage: dict[int, DagStage] = {}
        self._job_of: dict[int, DagJob] = {}
        self._granted: dict[int, int] = {}
        #: Generated tokens of each served stage, for budget refunds.
        self._out_tokens: dict[int, int] = {}
        #: Stage rids not yet released to the gateway.
        self._waiting: set[int] = set()
        #: Dependency rid -> the waiting stages it gates.
        self._children: dict[int, list[int]] = {}
        #: Released rids whose reservation has not been settled yet.
        self._unsettled: set[int] = set()
        self.jobs = 0
        self.jobs_shed = 0
        self.load_downgraded_jobs = 0
        self.tier_jobs: dict[str, int] = {TIER_FAST: 0, TIER_DEEP: 0}

    @property
    def children_offered(self) -> int:
        return len(self._stage)

    def _register(self, dag: RequestDAG) -> None:
        self.dags[dag.job.job_id] = dag
        for stage in dag.stages:
            self._stage[stage.rid] = stage
            self._job_of[stage.rid] = dag.job
            self._granted[stage.rid] = stage.budget_tokens

    def admit(self, job: DagJob, t: float,
              pressure: float) -> tuple[str, list]:
        """Classify, budget, and expand one arriving job.

        Returns ``("shed", rids)`` when the whole job is shed (its
        planned children must be disposed as gateway sheds), or
        ``("go", [FleetRequest, ...])`` with the root stages to inject
        now.
        """
        self.jobs += 1
        level = self.ladder.observe(t, pressure)
        assignment = self.policy.assign(job, level)
        if self.ladder.should_shed():
            dag = build_dag(job, assignment,
                            self.config.branch_tokens(assignment.tier),
                            self.config, shed=True)
            self._register(dag)
            self.jobs_shed += 1
            return ("shed", [s.rid for s in dag.stages])
        fitted = self.budget.fit(job.session, assignment, self._quote)
        if fitted is None:
            # Even the minimal shape exceeds the session budget: the
            # job is shed whole, counted as that minimal DAG.
            minimal = TierAssignment(TIER_FAST, 1, False,
                                     assignment.predicted_difficulty,
                                     assignment.load_downgraded)
            dag = build_dag(job, minimal, self.config.min_stage_tokens,
                            self.config, shed=True)
            self._register(dag)
            self.jobs_shed += 1
            return ("shed", [s.rid for s in dag.stages])
        fitted_assignment, branch_budget = fitted
        if fitted_assignment.load_downgraded:
            self.load_downgraded_jobs += 1
        self.tier_jobs[fitted_assignment.tier] += 1
        dag = build_dag(job, fitted_assignment, branch_budget, self.config)
        self._register(dag)
        for stage in dag.stages:
            energy = 0.0
            if (self._quote is not None
                    and self.config.session_energy_budget_j is not None):
                energy = self._quote(stage.models, stage.prompt_tokens,
                                     stage.budget_tokens)
            self.budget.reserve(job.session, stage.rid,
                                stage.budget_tokens, energy)
            if stage.deps:
                self._waiting.add(stage.rid)
                for dep in stage.deps:
                    self._children.setdefault(dep, []).append(stage.rid)
        roots = [s for s in dag.stages if not s.deps]
        out = []
        for stage in roots:
            self._unsettled.add(stage.rid)
            out.append(self._make_request(stage, t))
        return ("go", out)

    def _make_request(self, stage: DagStage, t: float) -> "FleetRequest":
        from repro.fleet.gateway import FleetRequest

        job = self._job_of[stage.rid]
        deadline = None
        if job.deadline_s is not None:
            deadline = max(job.arrival_s + job.deadline_s - t, 1e-6)
        request = GenerationRequest(
            request_id=stage.rid,
            prompt_tokens=stage.prompt_tokens,
            natural_length=stage.natural_length,
            max_new_tokens=self._granted[stage.rid])
        return FleetRequest(request=request, arrival_s=t,
                            deadline_s=deadline, session=job.session)

    def steer(self, rid: int,
              devices: "list[FleetDevice]") -> "list[FleetDevice]":
        """The devices carrying ``rid``'s stage pool, else all of them.

        A soft preference: Deep stages prefer the big-model devices,
        Fast stages the quantized replicas, and when no preferred device
        is routable the whole pool serves — availability beats affinity.
        """
        models = self._stage[rid].models
        return [d for d in devices if d.spec.model in models] or devices

    def note_served(self, rid: int, output_tokens: int) -> None:
        """Record a stage's first completion, for its budget refund."""
        self._out_tokens[rid] = output_tokens

    def ready_children(self, terminal: Mapping[int, object],
                       t: float) -> list:
        """Settle finished stages, then release newly unblocked ones.

        ``terminal`` maps rid → any terminal disposition (served, shed,
        failed); served stages refund what they did not generate (see
        :meth:`note_served`) to the session budget, in rid order.

        Every dependency is released (so unsettled) before it can turn
        terminal, so the stages this call can release are the children
        of the rids it settles.  They release in rid order.
        """
        settled = sorted(rid for rid in self._unsettled if rid in terminal)
        for rid in settled:
            session = self._job_of[rid].session
            self.budget.refund(session, rid, self._out_tokens.get(rid, 0))
            self._unsettled.discard(rid)
        candidates = {child for rid in settled
                      for child in self._children.pop(rid, ())}
        released = []
        for rid in sorted(candidates):
            stage = self._stage[rid]
            if not all(dep in terminal for dep in stage.deps):
                continue
            self._waiting.discard(rid)
            self._unsettled.add(rid)
            if stage.kind == STAGE_BRANCH:
                # Redistribute session surplus banked by earlier
                # under-spend stages to this one, up to its tier's
                # full budget.
                session = self._job_of[rid].session
                full = self.config.branch_tokens(stage.tier)
                self._granted[rid] = self.budget.top_up(
                    session, rid, self._granted[rid], full)
            released.append(self._make_request(stage, t))
        return released

    def done(self) -> bool:
        return not self._waiting and not self._unsettled

    def force_shed_remaining(self) -> list[int]:
        """Safety valve for the drain limit: shed unreleased stages."""
        rids = sorted(self._waiting)
        self._waiting.clear()
        self._children.clear()
        return rids

    # ------------------------------------------------------------------
    # outcome aggregation
    # ------------------------------------------------------------------
    def aggregate(self, report: "FleetReport") -> TieringReport:
        """Vote branch outcomes into end-to-end answer accuracy.

        The vote statistics of every completed job are validated in one
        call; each job then draws through the unvalidated core.  The
        draws stay per job: the tie-break of :func:`majority_vote` and
        the verify rescue draw from the same generator in between, and
        how many values each takes depends on the votes drawn so far.
        """
        branch_counts, ballots = self._ballots(report)
        homogeneous = [len({s[:4] for s in stats}) == 1
                       for stats, _ in ballots]
        # One row per draw: a homogeneous job draws k samples from one
        # row, a mixed job one sample per branch (its own stats, no
        # cross-branch determinism).
        rows = []
        for (stats, _), same in zip(ballots, homogeneous):
            if same:
                rows.append(stats[0])
            else:
                rows.extend((p, w, g, 0.0, choices)
                            for p, w, g, _det, choices in stats)
        if rows:
            columns = np.array([row[:4] for row in rows], dtype=np.float64)
            p, w, g, det = _validated_stats(*columns.T)
            for choices in {row[4] for row in rows}:
                check_num_choices(choices)

        rng = np.random.default_rng((self.config.seed, 97))
        correct_jobs = 0
        verify_rescues = 0
        row = 0
        for (stats, p_verify), same in zip(ballots, homogeneous):
            if same:
                # Homogeneous branches: one voting draw with k samples
                # keeps the determinism correlation across branches.
                cut = slice(row, row + 1)
                answers = list(draw_answer_matrix(
                    p[cut], w[cut], stats[0][4], len(stats), rng, g[cut],
                    det[cut])[0])
                row += 1
            else:
                answers = []
                for index, (*_, choices) in enumerate(stats):
                    cut = slice(row, row + 1)
                    answer = int(draw_answer_matrix(
                        p[cut], w[cut], choices, 1, rng, g[cut],
                        det[cut])[0, 0])
                    row += 1
                    # Unparseable outputs from different branches must
                    # not accumulate as agreeing votes.
                    answers.append(-(index + 1) if answer < 0 else answer)
            winner = int(majority_vote(
                np.array([answers], dtype=np.int64), rng)[0])
            is_correct = winner == 0
            if not is_correct and p_verify is not None:
                if float(rng.random()) < p_verify:
                    is_correct = True
                    verify_rescues += 1
            if is_correct:
                correct_jobs += 1

        jobs_completed = len(ballots)
        stages = list(self._stage.values())
        accuracy = (correct_jobs / jobs_completed
                    if jobs_completed else float("nan"))
        mean_branches = (float(np.mean(branch_counts))
                         if branch_counts else float("nan"))
        return TieringReport(
            jobs=self.jobs,
            jobs_completed=jobs_completed,
            jobs_shed=self.jobs_shed,
            children_offered=self.children_offered,
            fast_stages=sum(1 for s in stages if s.tier == TIER_FAST),
            deep_stages=sum(1 for s in stages if s.tier == TIER_DEEP),
            verify_stages=sum(1 for s in stages if s.tier == TIER_VERIFY),
            load_downgrades=self.load_downgraded_jobs,
            budget_downgrades=self.budget.downgrades,
            budget_shed_jobs=self.budget.shed_jobs,
            max_ladder_level=self.ladder.max_tier_reached(),
            ladder_transitions=tuple(self.ladder.transitions),
            tokens_reserved=self.budget.tokens_reserved,
            tokens_refunded=self.budget.tokens_refunded,
            tokens_redistributed=self.budget.tokens_redistributed,
            energy_reserved_j=self.budget.energy_reserved_j,
            answer_accuracy=accuracy,
            verify_rescues=verify_rescues,
            mean_branches=mean_branches,
            tier_counts=dict(self.tier_jobs),
        )

    def _ballots(self, report: "FleetReport") -> tuple[
            list[int], list[tuple[list[tuple], float | None]]]:
        """What each job votes with, before any draw.

        Returns the branch count of every unshed job, and for every
        completed job (one with a served branch), in job order, the
        ``(p_correct, distractor share, garbage, determinism, choices)``
        stats of its served branches and its verify stage's
        ``p_correct`` (None when no verify stage was served).
        """
        config = self.config
        served_model: dict[int, str] = {}
        served_tokens: dict[int, int] = {}
        for outcome, winners in zip(report.devices, report.winners):
            for record in winners:
                served_model[record.request_id] = outcome.model
                served_tokens[record.request_id] = int(record.output_tokens)

        job_ids = sorted(self.dags)
        job_pos = {job_id: idx for idx, job_id in enumerate(job_ids)}
        difficulties = np.array(
            [self.dags[j].job.difficulty for j in job_ids], dtype=np.float64)
        # The probabilities depend only on (accuracy, difficulty_beta)
        # and the fixed difficulty array, and token counts outside a
        # curve's anchored range all clamp to its end accuracy, so
        # every distinct curve of a served branch or verify stage is
        # solved once, all of them in one row-wise bisection.
        curve_of: dict[int, tuple[float, float]] = {}
        for job_id in job_ids:
            for stage in self.dags[job_id].stages:
                rid = stage.rid
                if stage.kind == STAGE_PLAN or rid not in served_model:
                    continue
                model = served_model[rid]
                mode = ("hard" if self._granted[rid] < stage.natural_length
                        else "completed")
                curve_of[rid] = (
                    _mode_accuracy(model, config.benchmark, mode,
                                   max(served_tokens[rid], 1)),
                    capability_profile(model,
                                       config.benchmark).difficulty_beta)
        curves = list(dict.fromkeys(curve_of.values()))
        row_of = {curve: row for row, curve in enumerate(curves)}
        probabilities = (question_success_probabilities(
            [acc for acc, _ in curves], difficulties,
            [beta for _, beta in curves]) if curves else None)
        share_cache: dict[str, np.ndarray] = {}

        def stage_stats(rid: int) -> tuple[float, float, float, float, int]:
            """(p_correct, distractor share, garbage, determinism, choices)."""
            stage = self._stage[rid]
            model = served_model[rid]
            truncated = self._granted[rid] < stage.natural_length
            profile = capability_profile(model, config.benchmark)
            if model not in share_cache:
                share_cache[model] = distractor_shares(profile, difficulties)
            pos = job_pos[self._job_of[rid].job_id]
            garbage = profile.parse_failure_severity if truncated else 0.0
            return (float(probabilities[row_of[curve_of[rid]], pos]),
                    float(share_cache[model][pos]),
                    float(min(garbage, 0.9)),
                    float(profile.determinism_base),
                    profile.num_choices)

        branch_counts: list[int] = []
        ballots: list[tuple[list[tuple], float | None]] = []
        for job_id in job_ids:
            dag = self.dags[job_id]
            if dag.shed:
                continue
            branch_counts.append(len(dag.branch_rids))
            served_branches = [r for r in dag.branch_rids if r in served_model]
            if not served_branches:
                continue
            verify_rid = next(
                (s.rid for s in dag.stages if s.kind == STAGE_VERIFY), None)
            p_verify = (stage_stats(verify_rid)[0]
                        if verify_rid in served_model else None)
            ballots.append(([stage_stats(rid) for rid in served_branches],
                            p_verify))
        return branch_counts, ballots
