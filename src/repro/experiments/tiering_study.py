"""The tiering frontier: budget-aware tier routing vs fixed tiers.

Serves the same seeded agentic DAG suite through the fleet three ways —
budget-aware Fast/Deep/Verify tiering, everything pinned Fast, and
everything pinned Deep — on the same heterogeneous fleet, and compares
them on the accuracy-per-joule frontier at equal attainment.  The
budget-aware policy should strictly dominate at least one fixed
single-tier assignment: pinning Deep burns session budgets (and
joules) on easy questions, pinning Fast caps accuracy on hard ones.

The chaos gate re-runs the study for same-seed byte-identity and
re-executes the pipeline artifact under thread and process executors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.experiments.report import Table

#: Frontier variants: label -> fixed_tier value for TieringConfig.
VARIANTS: tuple[tuple[str, str | None], ...] = (
    ("budget-aware", None),
    ("fixed-fast", "fast"),
    ("fixed-deep", "deep"),
)


def _tiered_run(seed: int, devices: int, jobs: int, qps: float,
                deadline_s: float, fixed_tier: str | None,
                session_token_budget: int):
    """One fresh tiered fleet run; returns (FleetReport, job count)."""
    from repro.fleet import FleetGateway, build_fleet
    from repro.tiering import TieringConfig
    from repro.workloads.agentic import agentic_suite

    config = TieringConfig(fixed_tier=fixed_tier,
                           session_token_budget=session_token_budget,
                           seed=seed)
    tier_models = tuple(dict.fromkeys(
        config.fast_models + config.deep_models + config.verify_models))
    fleet = build_fleet(devices, mix="balanced", models=tier_models)
    gateway = FleetGateway(fleet, policy="least-outstanding", seed=seed)
    suite = agentic_suite(np.random.default_rng(seed), qps, jobs,
                          deadline_s=deadline_s)
    return gateway.run(suite, tiering=config), len(suite)


def _point(label: str, report, jobs: int) -> dict:
    tier = report.tiering
    energy_kj = report.energy_joules / 1000.0
    accuracy = tier.answer_accuracy
    return {
        "label": label,
        "jobs": jobs,
        "jobs_completed": tier.jobs_completed,
        "jobs_shed": tier.jobs_shed,
        "children_offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "failed": report.failed,
        "lost": report.lost,
        "attainment": tier.jobs_completed / jobs if jobs else float("nan"),
        "deadline_hit_rate": report.deadline_hit_rate,
        "answer_accuracy": accuracy,
        "energy_joules": report.energy_joules,
        "energy_per_job_j": (report.energy_joules / tier.jobs_completed
                             if tier.jobs_completed else float("nan")),
        "accuracy_per_kj": (accuracy / energy_kj
                            if energy_kj > 0 else float("nan")),
        "p95_latency_s": report.latency_percentile(95),
        "tokens_redistributed": tier.tokens_redistributed,
        "budget_downgrades": tier.budget_downgrades,
        "mean_branches": tier.mean_branches,
        "report_sha": hashlib.sha256(report.to_json().encode()).hexdigest(),
    }


def _dominates(aware: dict, fixed: dict) -> bool:
    """Strict accuracy-per-joule domination at equal-or-better attainment."""
    return (aware["attainment"] >= fixed["attainment"] - 1e-9
            and aware["accuracy_per_kj"] > fixed["accuracy_per_kj"])


def run_tiering_frontier_points(seed: int = 0, devices: int = 4,
                                jobs: int = 48, qps: float = 1.5,
                                deadline_s: float = 60.0,
                                session_token_budget: int = 6000) -> dict:
    """Pipeline producer: the three-variant frontier as plain data.

    A pure function of its arguments returning only picklable data, so
    the tiering gate can re-execute it under both thread and process
    pipeline executors and require byte-equal renderings.
    """
    points = []
    for label, fixed_tier in VARIANTS:
        report, offered_jobs = _tiered_run(
            seed, devices, jobs, qps, deadline_s, fixed_tier,
            session_token_budget)
        points.append(_point(label, report, offered_jobs))
    aware = points[0]
    dominated = [p["label"] for p in points[1:] if _dominates(aware, p)]
    return {
        "seed": seed,
        "devices": devices,
        "points": points,
        "dominated": dominated,
        "domination_ok": bool(dominated),
        "conservation_ok": all(p["lost"] == 0 for p in points),
    }


def tiering_frontier_table(points: dict | None = None, seed: int = 0) -> Table:
    """Format the frontier producer's summary (the pipeline artifact)."""
    points = (points if points is not None
              else run_tiering_frontier_points(seed=seed))
    table = Table(
        "Tiering frontier: budget-aware Fast/Deep/Verify routing vs "
        "fixed single-tier assignments (accuracy per joule at equal "
        "attainment)",
        ["Variant", "Jobs", "Done", "Shed", "Offered", "Lost", "Attain",
         "Accuracy", "Energy J", "Acc/kJ", "p95 s", "Redist", "Sha"],
    )
    for p in points["points"]:
        table.add_row(
            p["label"], p["jobs"], p["jobs_completed"], p["jobs_shed"],
            p["children_offered"], p["lost"],
            round(p["attainment"], 4), round(p["answer_accuracy"], 4),
            round(p["energy_joules"], 1), round(p["accuracy_per_kj"], 4),
            round(p["p95_latency_s"], 3), p["tokens_redistributed"],
            p["report_sha"][:12])
    dominated = ", ".join(points["dominated"]) or "none"
    table.add_row("dominates", dominated, "", "", "",
                  0 if points["conservation_ok"] else "LOST", "", "", "",
                  "", "", "", "")
    return table


@dataclass(frozen=True)
class TieringChaosResult:
    """Verdict of the tiering determinism + frontier gate."""

    seed: int
    devices: int
    jobs: int
    points: tuple[dict, ...]
    dominated: tuple[str, ...]
    domination_ok: bool
    conservation_ok: bool
    rerun_identical: bool
    executor_identical: bool
    report_sha: str

    @property
    def tiering_ok(self) -> bool:
        return (self.domination_ok and self.conservation_ok
                and self.rerun_identical and self.executor_identical)


def run_tiering_chaos_study(seed: int = 0, devices: int = 4,
                            jobs: int = 48, qps: float = 1.5,
                            deadline_s: float = 60.0,
                            session_token_budget: int = 6000,
                            check_executors: bool = True
                            ) -> TieringChaosResult:
    """The tiering gate: frontier domination plus determinism checks.

    Runs the frontier, re-runs the budget-aware variant from scratch
    for same-seed byte-identity, and (unless ``check_executors=False``)
    re-executes the ``tiering-frontier`` artifact through the pipeline
    under both thread and process executors, which must render
    byte-equal text.
    """
    result = run_tiering_frontier_points(
        seed=seed, devices=devices, jobs=jobs, qps=qps,
        deadline_s=deadline_s, session_token_budget=session_token_budget)
    rerun, _ = _tiered_run(seed, devices, jobs, qps, deadline_s, None,
                           session_token_budget)
    rerun_sha = hashlib.sha256(rerun.to_json().encode()).hexdigest()
    aware = result["points"][0]
    rerun_identical = rerun_sha == aware["report_sha"]

    executor_identical = True
    if check_executors:
        # Function-level import: the registry imports this module.
        from repro.experiments.runner import executors_agree
        executor_identical = executors_agree("tiering-frontier", seed)

    return TieringChaosResult(
        seed=seed,
        devices=devices,
        jobs=jobs,
        points=tuple(result["points"]),
        dominated=tuple(result["dominated"]),
        domination_ok=result["domination_ok"],
        conservation_ok=result["conservation_ok"],
        rerun_identical=rerun_identical,
        executor_identical=executor_identical,
        report_sha=aware["report_sha"],
    )
