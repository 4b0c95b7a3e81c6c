"""Tier policy, hysteretic load ladder, and the session budget manager.

The load ladder is the brownout controller's
:class:`~repro.fleet.brownout.PressureLadder` on tiering thresholds, as
:class:`~repro.tiering.dag.DagRun` builds it; ``test_fleet_health``
also drives it through both configs.
"""

import math

import pytest

from repro.fleet.brownout import PressureLadder
from repro.tiering import (
    TIER_DEEP,
    TIER_FAST,
    MAX_LADDER_LEVEL,
    BudgetManager,
    TierAssignment,
    TierPolicy,
    TieringConfig,
)
from repro.workloads.agentic import DagJob


def job(job_id=0, difficulty=0.5, session="user-000"):
    return DagJob(job_id=job_id, arrival_s=0.0, session=session,
                  difficulty=difficulty, kind="bbh", prompt_tokens=120)


class TestConfigValidation:
    def test_defaults_valid(self):
        TieringConfig()

    @pytest.mark.parametrize("kwargs", [
        {"deep_threshold": 0.0},
        {"deep_threshold": 1.0},
        {"predict_noise": -0.1},
        {"predict_noise": math.nan},
        {"branches": 0},
        {"fast_branches": 0},
        {"min_stage_tokens": 0},
        {"plan_tokens": 8, "min_stage_tokens": 32},
        {"session_token_budget": 0},
        {"session_energy_budget_j": 0.0},
        {"session_energy_budget_j": math.nan},
        {"enter_pressure": (2.0, 4.0)},
        {"enter_pressure": (6.0, 4.0, 2.0)},
        {"exit_pressure": (2.0, 4.0, 6.0)},  # not below enter
        {"ladder_margin": -0.5},
        {"ladder_margin": math.nan},
        {"tick_s": 0.0},
        {"tick_s": math.nan},
        {"tick_s": math.inf},
        {"fixed_tier": "verify"},
        {"fast_models": ()},
        {"deep_models": ("no-such-model",)},
        {"benchmark": "no-such-benchmark"},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TieringConfig(**kwargs)

    def test_models_for_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            TieringConfig().models_for_tier("bogus")


class TestLadderHysteresis:
    def config(self):
        return TieringConfig(enter_pressure=(0.5, 1.0, 1.5),
                             exit_pressure=(0.25, 0.5, 0.75))

    def test_one_step_per_observation(self):
        ladder = PressureLadder(self.config())
        # Pressure far above every rung still climbs one level at a time.
        assert ladder.observe(0.0, 99.0) == 1
        assert ladder.observe(1.0, 99.0) == 2
        assert ladder.observe(2.0, 99.0) == MAX_LADDER_LEVEL
        assert ladder.observe(3.0, 99.0) == MAX_LADDER_LEVEL  # saturates
        assert ladder.should_shed()
        assert ladder.max_tier_reached() == MAX_LADDER_LEVEL

    def test_exit_below_entry_no_oscillation(self):
        ladder = PressureLadder(self.config())
        ladder.observe(0.0, 0.6)  # enters level 1 (>= 0.5)
        assert ladder.tier == 1
        # Pressure between exit (0.25) and enter (0.5): holds level 1.
        ladder.observe(1.0, 0.4)
        assert ladder.tier == 1
        ladder.observe(2.0, 0.1)  # below exit: descends
        assert ladder.tier == 0

    def test_transitions_recorded(self):
        ladder = PressureLadder(self.config())
        ladder.observe(0.0, 2.0)
        ladder.observe(1.0, 0.0)
        assert ladder.transitions == [(0.0, 0, 1), (1.0, 1, 0)]


class TestTierPolicy:
    def test_prediction_deterministic_per_job(self):
        policy = TierPolicy(TieringConfig())
        assert (policy.predict_difficulty(job(7))
                == policy.predict_difficulty(job(7)))

    def test_hard_jobs_classified_deep(self):
        policy = TierPolicy(TieringConfig(predict_noise=0.0))
        assert policy.assign(job(difficulty=0.9), 0).tier == TIER_DEEP
        assert policy.assign(job(difficulty=0.1), 0).tier == TIER_FAST

    def test_ladder_level_two_forces_fast_single_branch_no_verify(self):
        policy = TierPolicy(TieringConfig(predict_noise=0.0))
        assignment = policy.assign(job(difficulty=0.95), 2)
        assert assignment.tier == TIER_FAST
        assert assignment.branches == 1
        assert not assignment.verify
        assert assignment.load_downgraded

    def test_fixed_tier_ignores_ladder(self):
        policy = TierPolicy(TieringConfig(predict_noise=0.0,
                                          fixed_tier="deep"))
        assignment = policy.assign(job(difficulty=0.1), 2)
        assert assignment.tier == TIER_DEEP
        assert not assignment.load_downgraded


class TestBudgetManager:
    def assignment(self, tier=TIER_DEEP, branches=3, verify=True):
        return TierAssignment(tier, branches, verify, 0.7, False)

    def test_fit_as_is_when_budget_ample(self):
        config = TieringConfig(session_token_budget=8000)
        manager = BudgetManager(config)
        fitted, branch_budget = manager.fit("s", self.assignment())
        assert fitted.tier == TIER_DEEP
        assert branch_budget == config.deep_tokens
        assert manager.downgrades == 0

    def test_fit_downgrades_under_tight_budget(self):
        # 96 plan + 3*640 deep + 96 verify = 2112 does not fit 600, but
        # a downgraded shape does.
        config = TieringConfig(session_token_budget=600)
        manager = BudgetManager(config)
        fitted, branch_budget = manager.fit("s", self.assignment())
        assert fitted.tier == TIER_FAST
        assert manager.downgrades == 1
        cost = (config.plan_tokens + fitted.branches * branch_budget
                + (config.verify_tokens if fitted.verify else 0))
        assert cost <= 600

    def test_fit_sheds_when_nothing_fits(self):
        config = TieringConfig(session_token_budget=100)
        manager = BudgetManager(config)
        assert manager.fit("s", self.assignment()) is None
        assert manager.shed_jobs == 1

    def test_reserve_refund_roundtrip(self):
        config = TieringConfig(session_token_budget=1000)
        manager = BudgetManager(config)
        manager.reserve("s", rid=1, tokens=400)
        assert manager.remaining_tokens("s") == 600
        manager.refund("s", rid=1, spent_tokens=150)
        assert manager.remaining_tokens("s") == 850
        assert manager.tokens_refunded == 250

    def test_refund_never_exceeds_reservation(self):
        manager = BudgetManager(TieringConfig(session_token_budget=1000))
        manager.reserve("s", rid=1, tokens=100)
        manager.refund("s", rid=1, spent_tokens=500)  # overspend: no refund
        assert manager.remaining_tokens("s") == 900
        assert manager.tokens_refunded == 0

    def test_top_up_grants_banked_surplus(self):
        manager = BudgetManager(TieringConfig(session_token_budget=500))
        manager.reserve("s", rid=1, tokens=400)  # 100 left
        granted = manager.top_up("s", rid=2, granted=32, full=256)
        assert granted == 132  # capped by the session's remaining 100
        assert manager.tokens_redistributed == 100
        assert manager.remaining_tokens("s") == 0

    def test_top_up_noop_at_full_budget(self):
        manager = BudgetManager(TieringConfig())
        assert manager.top_up("s", rid=2, granted=256, full=256) == 256
        assert manager.tokens_redistributed == 0

    def test_sessions_isolated(self):
        manager = BudgetManager(TieringConfig(session_token_budget=1000))
        manager.reserve("a", rid=1, tokens=900)
        assert manager.remaining_tokens("a") == 100
        assert manager.remaining_tokens("b") == 1000

    def test_energy_budget_gates_fit(self):
        config = TieringConfig(session_energy_budget_j=1.0,
                               session_token_budget=8000)
        manager = BudgetManager(config)
        # Every candidate quotes above the 1 J budget: shed.
        assert manager.fit("s", self.assignment(),
                           quote=lambda models, p, b: 50.0) is None
