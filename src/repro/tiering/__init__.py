"""Budget-aware model-tier routing and agentic request DAGs.

Turns the paper's test-time-scaling results (Fig. 9, hybrid scaling)
into live serving behavior: requests become plan → N parallel reasoning
branches → vote/verify DAGs, a tier policy routes stages across the
model zoo (quantized/small → Fast, 8B/14B → Deep, small re-check →
Verify), and a per-session budget manager enforces hard token/energy
budgets with hysteretic downgrades under load.

Entry point: ``FleetGateway.run(jobs, tiering=TieringConfig(...))``.
"""

from repro.tiering.dag import (
    MAX_STAGES,
    STAGE_BRANCH,
    STAGE_PLAN,
    STAGE_VERIFY,
    DagRun,
    DagStage,
    RequestDAG,
    build_dag,
)
from repro.tiering.policy import (
    MAX_LADDER_LEVEL,
    TIER_DEEP,
    TIER_FAST,
    TIER_VERIFY,
    BudgetManager,
    TierAssignment,
    TieringConfig,
    TierPolicy,
)
from repro.tiering.report import TieringReport

__all__ = [
    "MAX_LADDER_LEVEL",
    "MAX_STAGES",
    "STAGE_BRANCH",
    "STAGE_PLAN",
    "STAGE_VERIFY",
    "BudgetManager",
    "DagRun",
    "DagStage",
    "RequestDAG",
    "TIER_DEEP",
    "TIER_FAST",
    "TIER_VERIFY",
    "TierAssignment",
    "TierPolicy",
    "TieringConfig",
    "TieringReport",
    "build_dag",
]
