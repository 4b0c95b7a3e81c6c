"""Budget-aware tier policy: Fast/Deep/Verify routing with hard budgets.

Serving-side counterpart of the offline test-time-scaling studies.  The
paper's Fig. 9 navigates the accuracy/latency frontier by *choosing*
between small and large reasoning models and by spending a token budget
on longer chains vs. more parallel chains; here those choices become
per-request decisions made under live load:

* :class:`TierPolicy` classifies each job's predicted difficulty
  (seeded, imperfect) into a **Fast** tier (small/quantized models) or a
  **Deep** tier (8B/14B models with parallel reasoning branches), with a
  small-model **Verify** re-check stage.
* The load ladder is the brownout controller's hysteretic
  :class:`~repro.fleet.brownout.PressureLadder` on this config's
  thresholds: it downgrades tiers one step at a time as gateway
  pressure rises and restores them (with a gap) as it falls.
* :class:`BudgetManager` enforces a hard per-session token (and
  optional energy) budget by walking a downgrade ladder until the
  planned DAG fits, and redistributes surplus from under-spend stages
  to later ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.fleet.brownout import MAX_TIER, check_ladder
from repro.models.capability import has_profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.agentic import DagJob

TIER_FAST = "fast"
TIER_DEEP = "deep"
TIER_VERIFY = "verify"

#: Ladder levels: 0 normal, 1 fewer deeps / one fewer branch,
#: 2 everything fast single-branch without verify, 3 shed new jobs.
MAX_LADDER_LEVEL = MAX_TIER


@dataclass(frozen=True)
class TieringConfig:
    """Knobs for tiered DAG serving.

    Model pools default to zoo members with capability profiles on the
    benchmark: quantized/small models serve Fast and Verify stages, the
    8B/14B models serve Deep branches.
    """

    benchmark: str = "mmlu-redux"
    fast_models: tuple[str, ...] = ("dsr1-qwen-1.5b", "dsr1-qwen-1.5b-awq-w4")
    deep_models: tuple[str, ...] = ("dsr1-llama-8b", "dsr1-qwen-14b")
    verify_models: tuple[str, ...] = ("dsr1-qwen-1.5b-awq-w4",)
    #: Predicted difficulty at/above which a job is classified Deep.
    deep_threshold: float = 0.55
    #: Std-dev of the seeded noise on the difficulty predictor.
    predict_noise: float = 0.08
    #: Parallel reasoning branches for Deep / Fast jobs.
    branches: int = 3
    fast_branches: int = 1
    #: Whether DAGs end with a small-model verify stage.
    verify: bool = True
    plan_tokens: int = 96
    fast_tokens: int = 256
    deep_tokens: int = 640
    verify_tokens: int = 96
    #: Floor the budget manager may trim a branch budget down to.
    min_stage_tokens: int = 32
    #: Hard per-session generation-token budget.
    session_token_budget: int = 4096
    #: Optional hard per-session energy budget (closed-form quote).
    session_energy_budget_j: float | None = None
    #: Hysteretic ladder thresholds on gateway pressure (queued work
    #: per device), mirroring the brownout controller.
    enter_pressure: tuple[float, float, float] = (2.0, 4.0, 6.0)
    exit_pressure: tuple[float, float, float] = (1.5, 3.0, 4.5)
    #: Extra difficulty margin required for Deep at ladder level 1.
    ladder_margin: float = 0.15
    #: Event-loop tick for dependency-release checks.
    tick_s: float = 0.25
    #: Force every job onto one tier ("fast"/"deep") — the fixed
    #: single-tier baselines the frontier study compares against.
    fixed_tier: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # ``not x > 0`` and the like also reject NaN, which fails every
        # comparison.
        if not (0.0 < self.deep_threshold < 1.0):
            raise ValueError("deep_threshold must lie in (0, 1)")
        if not self.predict_noise >= 0:
            raise ValueError("predict_noise must be non-negative")
        if self.branches < 1 or self.fast_branches < 1:
            raise ValueError("branch counts must be >= 1")
        if self.min_stage_tokens < 1:
            raise ValueError("min_stage_tokens must be >= 1")
        for name in ("plan_tokens", "fast_tokens", "deep_tokens", "verify_tokens"):
            if getattr(self, name) < self.min_stage_tokens:
                raise ValueError(f"{name} must be >= min_stage_tokens")
        if self.session_token_budget < 1:
            raise ValueError("session_token_budget must be positive")
        if (self.session_energy_budget_j is not None
                and not self.session_energy_budget_j > 0):
            raise ValueError("session_energy_budget_j must be positive when set")
        check_ladder(self.enter_pressure, self.exit_pressure)
        if not self.ladder_margin >= 0:
            raise ValueError("ladder_margin must be non-negative")
        if not 0 < self.tick_s < math.inf:
            raise ValueError("tick_s must be positive and finite")
        if self.fixed_tier not in (None, TIER_FAST, TIER_DEEP):
            raise ValueError("fixed_tier must be None, 'fast' or 'deep'")
        for pool_name in ("fast_models", "deep_models", "verify_models"):
            pool = getattr(self, pool_name)
            if not pool:
                raise ValueError(f"{pool_name} must not be empty")
            for model in pool:
                if not has_profile(model, self.benchmark):
                    raise ValueError(
                        f"{pool_name} entry {model!r} has no capability "
                        f"profile on benchmark {self.benchmark!r}")

    def models_for_tier(self, tier: str) -> tuple[str, ...]:
        if tier == TIER_FAST:
            return self.fast_models
        if tier == TIER_DEEP:
            return self.deep_models
        if tier == TIER_VERIFY:
            return self.verify_models
        raise ValueError(f"unknown tier {tier!r}")

    def branch_tokens(self, tier: str) -> int:
        return self.deep_tokens if tier == TIER_DEEP else self.fast_tokens


@dataclass(frozen=True)
class TierAssignment:
    """Resolved tier decision for one DAG job."""

    tier: str
    branches: int
    verify: bool
    predicted_difficulty: float
    #: True when the load ladder lowered this job below its
    #: difficulty-classified tier or trimmed its fan-out.
    load_downgraded: bool


class TierPolicy:
    """Seeded difficulty prediction and tier classification."""

    def __init__(self, config: TieringConfig) -> None:
        self.config = config

    def predict_difficulty(self, job: "DagJob") -> float:
        """Imperfect difficulty estimate, deterministic per job id."""
        rng = np.random.default_rng((self.config.seed, job.job_id, 3))
        noise = float(rng.normal(0.0, self.config.predict_noise))
        return float(min(1.0, max(0.0, job.difficulty + noise)))

    def assign(self, job: "DagJob", level: int) -> TierAssignment:
        config = self.config
        predicted = self.predict_difficulty(job)
        classified = (TIER_DEEP if predicted >= config.deep_threshold
                      else TIER_FAST)
        if config.fixed_tier is not None:
            # Fixed baselines keep their tier regardless of load; only
            # the level-3 shed valve still applies (in the scheduler).
            tier = config.fixed_tier
            branches = (config.branches if tier == TIER_DEEP
                        else config.fast_branches)
            return TierAssignment(tier, branches, config.verify, predicted,
                                  load_downgraded=False)
        if level >= 2:
            tier = TIER_FAST
        elif level == 1:
            tier = (TIER_DEEP
                    if predicted >= config.deep_threshold + config.ladder_margin
                    else TIER_FAST)
        else:
            tier = classified
        branches = config.branches if tier == TIER_DEEP else config.fast_branches
        if level == 1:
            branches = max(1, branches - 1)
        elif level >= 2:
            branches = 1
        verify = config.verify and level < 2
        downgraded = (tier != classified or level >= 1)
        return TierAssignment(tier, branches, verify, predicted,
                              load_downgraded=downgraded and level >= 1)


#: Closed-form energy quote: (model pool, prompt_tokens, budget_tokens) -> J.
EnergyQuote = Callable[[tuple[str, ...], int, int], float]


class BudgetManager:
    """Hard per-session token/energy budgets with surplus redistribution.

    ``fit`` walks a downgrade ladder (Deep→Fast, shrink fan-out, drop
    verify, trim branch budgets) until the planned DAG fits the
    session's remaining budget, or sheds the job when even the minimal
    shape does not fit.  ``refund`` returns unspent reservation to the
    session after a stage finishes; ``top_up`` hands that surplus to
    later stages that were admitted below their tier's full budget.
    """

    def __init__(self, config: TieringConfig) -> None:
        self.config = config
        self._tokens: dict[str, int] = {}
        self._energy: dict[str, float] = {}
        self._reserved_by_rid: dict[int, int] = {}
        self.tokens_reserved = 0
        self.tokens_refunded = 0
        self.tokens_redistributed = 0
        self.energy_reserved_j = 0.0
        self.downgrades = 0
        self.shed_jobs = 0

    def remaining_tokens(self, session: str) -> int:
        return self._tokens.setdefault(session, self.config.session_token_budget)

    def _remaining_energy(self, session: str) -> float:
        budget = self.config.session_energy_budget_j
        if budget is None:
            return float("inf")
        return self._energy.setdefault(session, budget)

    @staticmethod
    def _plan_cost(config: TieringConfig, assignment: TierAssignment,
                   branch_budget: int) -> int:
        cost = config.plan_tokens + assignment.branches * branch_budget
        if assignment.verify:
            cost += config.verify_tokens
        return cost

    def _candidates(self, assignment: TierAssignment):
        """Downgrade ladder, most capable shape first."""
        config = self.config
        seen: set[tuple[str, int, bool, int]] = set()

        def emit(tier: str, branches: int, verify: bool, budget: int):
            key = (tier, branches, verify, budget)
            if key not in seen:
                seen.add(key)
                yield (TierAssignment(tier, branches, verify,
                                      assignment.predicted_difficulty,
                                      assignment.load_downgraded), budget)

        tier, branches, verify = (assignment.tier, assignment.branches,
                                  assignment.verify)
        yield from emit(tier, branches, verify, config.branch_tokens(tier))
        if tier == TIER_DEEP:
            yield from emit(TIER_FAST, branches, verify, config.fast_tokens)
        yield from emit(TIER_FAST, 1, verify, config.fast_tokens)
        yield from emit(TIER_FAST, 1, False, config.fast_tokens)
        yield from emit(TIER_FAST, 1, False, config.min_stage_tokens)

    def fit(self, session: str, assignment: TierAssignment,
            quote: EnergyQuote | None = None
            ) -> tuple[TierAssignment, int] | None:
        """Shrink the plan until it fits; None means shed the job."""
        config = self.config
        tokens_left = self.remaining_tokens(session)
        energy_left = self._remaining_energy(session)
        for index, (candidate, branch_budget) in enumerate(
                self._candidates(assignment)):
            cost = self._plan_cost(config, candidate, branch_budget)
            if cost > tokens_left:
                continue
            if quote is not None and energy_left != float("inf"):
                energy = self._plan_energy(candidate, branch_budget, quote)
                if energy > energy_left:
                    continue
            if index > 0:
                self.downgrades += 1
            return candidate, branch_budget
        self.shed_jobs += 1
        return None

    def _plan_energy(self, assignment: TierAssignment, branch_budget: int,
                     quote: EnergyQuote) -> float:
        config = self.config
        energy = quote(config.fast_models, 0, config.plan_tokens)
        energy += assignment.branches * quote(
            config.models_for_tier(assignment.tier), 0, branch_budget)
        if assignment.verify:
            energy += quote(config.verify_models, 0, config.verify_tokens)
        return energy

    def reserve(self, session: str, rid: int, tokens: int,
                energy_j: float = 0.0) -> None:
        self._tokens[session] = self.remaining_tokens(session) - tokens
        self._reserved_by_rid[rid] = tokens
        self.tokens_reserved += tokens
        if self.config.session_energy_budget_j is not None:
            self._energy[session] = self._remaining_energy(session) - energy_j
        self.energy_reserved_j += energy_j

    def refund(self, session: str, rid: int, spent_tokens: int) -> None:
        reserved = self._reserved_by_rid.pop(rid, 0)
        surplus = max(0, reserved - max(0, spent_tokens))
        if surplus:
            self._tokens[session] = self.remaining_tokens(session) + surplus
            self.tokens_refunded += surplus

    def top_up(self, session: str, rid: int, granted: int, full: int) -> int:
        """Grant surplus tokens to a stage released below its full budget."""
        want = full - granted
        if want <= 0:
            return granted
        available = self.remaining_tokens(session)
        grant = min(want, max(0, available))
        if grant <= 0:
            return granted
        self._tokens[session] = available - grant
        self._reserved_by_rid[rid] = self._reserved_by_rid.get(rid, 0) + grant
        self.tokens_reserved += grant
        self.tokens_redistributed += grant
        return granted + grant
