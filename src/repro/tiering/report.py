"""Accounting for a tiered serving run.

``TieringReport`` is the optional section attached to a
:class:`~repro.fleet.report.FleetReport` when the gateway serves a DAG
workload under a :class:`~repro.tiering.policy.TieringConfig`.  It keeps
the tier/budget bookkeeping separate from the per-device latency
accounting so untiered reports stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _num(value: float) -> float | None:
    """JSON-safe float: NaN renders as null instead of breaking parsers."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return float(value)


@dataclass(frozen=True)
class TieringReport:
    """What the tier policy and DAG scheduler did during one run."""

    #: DAG jobs offered to the gateway (each expands into children).
    jobs: int
    #: Jobs whose every stage reached a terminal disposition with at
    #: least one reasoning branch served — an answer was produced.
    jobs_completed: int
    #: Jobs shed whole at admission (load ladder level 3 or budget
    #: exhaustion); their planned children count as gateway sheds.
    jobs_shed: int
    #: Total child requests across every job's DAG — the fleet
    #: report's ``offered`` for a tiered run.
    children_offered: int
    fast_stages: int
    deep_stages: int
    verify_stages: int
    #: Stages whose tier was lowered by the load ladder relative to the
    #: difficulty classification.
    load_downgrades: int
    #: Stages downgraded/trimmed by the per-session budget manager.
    budget_downgrades: int
    #: Jobs shed because even the minimal DAG exceeded the session budget.
    budget_shed_jobs: int
    max_ladder_level: int
    ladder_transitions: tuple[tuple[float, int, int], ...]
    tokens_reserved: int
    tokens_refunded: int
    #: Surplus tokens granted to later stages out of earlier refunds.
    tokens_redistributed: int
    energy_reserved_j: float
    #: End-to-end voted answer accuracy over completed jobs (NaN if none).
    answer_accuracy: float
    #: Jobs whose small-model verify stage rescued a wrong majority vote.
    verify_rescues: int
    mean_branches: float
    tier_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "jobs": int(self.jobs),
            "jobs_completed": int(self.jobs_completed),
            "jobs_shed": int(self.jobs_shed),
            "children_offered": int(self.children_offered),
            "fast_stages": int(self.fast_stages),
            "deep_stages": int(self.deep_stages),
            "verify_stages": int(self.verify_stages),
            "load_downgrades": int(self.load_downgrades),
            "budget_downgrades": int(self.budget_downgrades),
            "budget_shed_jobs": int(self.budget_shed_jobs),
            "max_ladder_level": int(self.max_ladder_level),
            "ladder_transitions": [
                [round(float(t), 9), int(a), int(b)]
                for t, a, b in self.ladder_transitions
            ],
            "tokens_reserved": int(self.tokens_reserved),
            "tokens_refunded": int(self.tokens_refunded),
            "tokens_redistributed": int(self.tokens_redistributed),
            "energy_reserved_j": round(float(self.energy_reserved_j), 6),
            "answer_accuracy": _num(self.answer_accuracy),
            "verify_rescues": int(self.verify_rescues),
            "mean_branches": _num(self.mean_branches),
            "tier_counts": {k: int(v) for k, v in sorted(self.tier_counts.items())},
        }
