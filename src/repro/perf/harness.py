"""Timed representative workloads + the perf-regression gate.

The repo's north star is "as fast as the hardware allows", but nothing
tracked the perf trajectory — a 10x pipeline slowdown would land
silently as long as tests stayed green.  This module times the hot
paths end to end:

* **pipeline_cold_smoke** — a cold smoke-tier sweep over the
  characterization artifact family (fresh store, no disk cache);
* **pipeline_warm_smoke** — the same sweep against a pre-warmed
  sha256-checksummed disk tier (measures cache/load overhead);
* **serving_fixed_qps** — the event-driven serving study at a fixed
  offered load (exercises multi-token span pricing);
* **serving_span_speedup** — span pricing vs forced per-token stepping
  on the identical workload: a *machine-independent ratio* gate
  (must stay >= its recorded minimum, currently 3x);
* **evaluator_mmlu_redux** — the vectorized evaluator on MMLU-Redux;
* **fleet_fixed_qps** — the multi-device fleet gateway at a fixed
  offered load (exercises the incremental co-simulation seam);
* **fleet_overload** — one overload-survival run (3x storm through
  brownout admission, circuit breakers, and hedging);
* **fleet_diurnal** — one diurnal+flash-crowd autoscaled run (drains,
  sleeps, cold wakes, and pressure ticks on the lifecycle hot path);
* **fleet_vector_speedup** — scalar vs vector gateway on the identical
  paced stream: a *machine-independent ratio* gate (floor 10x);
* **fleet_100k** — the population-scale flagship: 100k requests over a
  64-device single-stream fleet on the vector fast path, with a
  wall-clock budget;
* **fleet_routing_speedup** — the streaming trace driver vs the
  scalar oracle (``mode="scalar"``, the cached per-event loop that the
  trace driver falls back to) on the prefix-affinity population
  workload: a per-request-normalized ratio gate (floor 3x);
* **fleet_diurnal_1m** — the population flagship: 1M session requests
  (diurnal arrivals, heavy-tailed users, shared prefixes) streamed
  through :meth:`~repro.fleet.gateway.FleetGateway.run_trace` over 32
  devices, with a wall-clock budget;
* **fleet_tiered_dag** — one budget-aware tiered run of the agentic
  DAG suite (plan / branch / verify children, dependency-gated
  release, budget ladder, vote aggregation) through the gateway.

``run_benchmarks`` reports medians over ``repeats``;
``write_bench_files`` emits ``BENCH_pipeline.json`` /
``BENCH_engine.json``; ``compare_to_baseline`` fails on >25%
regressions against the committed baselines in
``benchmarks/baselines/`` (absolute times) and on ratio workloads
falling below their recorded floor.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

#: Artifact subset for the pipeline workloads: the Section IV
#: characterization family — one expensive shared producer plus four
#: formatting artifacts, representative of the DAG shape without the
#: full registry's multi-minute cold cost.
PIPELINE_ARTIFACTS = ("table2", "fig2", "fig3a", "fig3b")

#: Regression threshold for absolute-time workloads (fractional).
DEFAULT_THRESHOLD = 0.25

#: Absolute slack added on top of the fractional threshold so
#: micro-workloads (sub-millisecond warm-cache loads) don't flap on
#: scheduler jitter: limit = baseline * (1 + threshold) + slack.
ABSOLUTE_SLACK_S = 0.05

#: Floor for the serving span-pricing speedup ratio (the perf_opt
#: acceptance gate; measured ~13x on a 1-core container).
SPAN_SPEEDUP_MIN = 3.0

#: Floor for the scalar/vector fleet-gateway speedup ratio (measured
#: ~20x; machine-independent because both paths run in-process).
FLEET_VECTOR_SPEEDUP_MIN = 10.0

#: Wall-clock budget for the 100k-request flagship workload (vector
#: mode; measured ~6s on a 1-core container).
FLEET_100K_BUDGET_S = 30.0

#: Wall-clock budget for the 1M-request population flagship (the
#: streaming trace driver, serial; measured ~35-43s best-of-3 on a
#: 1-core container).
FLEET_DIURNAL_1M_BUDGET_S = 60.0

#: Floor for the streaming-trace vs scalar-oracle speedup ratio on the
#: prefix-affinity population workload (measured ~30x; the scalar side
#: is the cached per-event loop, ``mode="scalar"``).
FLEET_ROUTING_SPEEDUP_MIN = 3.0

BENCH_FILES = {
    "pipeline": "BENCH_pipeline.json",
    "engine": "BENCH_engine.json",
    "fleet": "BENCH_fleet.json",
    "overload": "BENCH_overload.json",
    "fleet100k": "BENCH_fleet100k.json",
    "diurnal": "BENCH_diurnal.json",
    "diurnal1m": "BENCH_diurnal1m.json",
    "tiering": "BENCH_tiering.json",
}

#: ``(name, group, unit)`` for every workload, in execution order — the
#: CLI ``--list`` flag and the unknown-``--only`` error read this.
WORKLOAD_CATALOG = (
    ("pipeline_cold_smoke", "pipeline", "s"),
    ("pipeline_warm_smoke", "pipeline", "s"),
    ("serving_fixed_qps", "engine", "s"),
    ("serving_span_speedup", "engine", "x"),
    ("evaluator_mmlu_redux", "engine", "s"),
    ("fleet_fixed_qps", "fleet", "s"),
    ("fleet_overload", "overload", "s"),
    ("fleet_diurnal", "diurnal", "s"),
    ("fleet_vector_speedup", "fleet100k", "x"),
    ("fleet_100k", "fleet100k", "s"),
    ("fleet_routing_speedup", "diurnal1m", "x"),
    ("fleet_diurnal_1m", "diurnal1m", "s"),
    ("fleet_tiered_dag", "tiering", "s"),
)


def list_workloads() -> tuple[tuple[str, str, str], ...]:
    """The workload catalog: ``(name, group, unit)`` rows, in run order."""
    return WORKLOAD_CATALOG


@dataclass(frozen=True)
class BenchResult:
    """One timed (or ratio) workload outcome."""

    name: str
    #: Which BENCH file this belongs to: "pipeline" or "engine".
    group: str
    #: Median over repeats: seconds for unit "s", a ratio for unit "x".
    value: float
    repeats: tuple[float, ...]
    #: "s" (lower is better) or "x" (higher is better).
    unit: str = "s"
    meta: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "unit": self.unit,
            "repeats": list(self.repeats),
            "meta": dict(self.meta),
        }


def _median_time(fn: Callable[[], Any], repeats: int
                 ) -> tuple[float, tuple[float, ...]]:
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(statistics.median(times)), tuple(times)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def bench_pipeline_cold(repeats: int, artifacts: tuple[str, ...],
                        jobs: int = 1,
                        executor: str = "thread") -> BenchResult:
    """Cold smoke sweep: every producer computes from scratch."""
    from repro.pipeline.runner import run_pipeline

    def sweep() -> None:
        run_pipeline(artifacts, seed=0, smoke=True, jobs=jobs,
                     executor=executor)

    median, times = _median_time(sweep, repeats)
    return BenchResult("pipeline_cold_smoke", "pipeline", median, times,
                       meta={"artifacts": list(artifacts), "jobs": jobs,
                             "executor": executor})


def bench_pipeline_warm(repeats: int, artifacts: tuple[str, ...],
                        cache_dir: Path) -> BenchResult:
    """Warm sweep: fresh in-memory store over a populated disk tier."""
    from repro.pipeline.runner import run_pipeline
    from repro.pipeline.store import ArtifactStore

    # Populate the disk tier once, untimed.
    run_pipeline(artifacts, seed=0, smoke=True,
                 store=ArtifactStore(cache_dir=cache_dir))

    def sweep() -> None:
        run_pipeline(artifacts, seed=0, smoke=True,
                     store=ArtifactStore(cache_dir=cache_dir))

    median, times = _median_time(sweep, repeats)
    return BenchResult("pipeline_warm_smoke", "pipeline", median, times,
                       meta={"artifacts": list(artifacts)})


def _serving_study(max_span_steps: int | None) -> None:
    import numpy as np

    from repro.engine.engine import InferenceEngine
    from repro.engine.server import ServingSimulator
    from repro.models.registry import get_model

    engine = InferenceEngine(get_model("dsr1-qwen-1.5b"))
    # Pinned to the scalar path: serving_fixed_qps tracks the scalar
    # event loop's absolute time, and serving_span_speedup compares
    # span pricing against per-token stepping *within* that path — the
    # vector core has its own ratio gate (fleet_vector_speedup).
    simulator = ServingSimulator(engine, max_batch_size=8,
                                 max_span_steps=max_span_steps,
                                 mode="scalar")
    rng = np.random.default_rng(7)
    simulator.run_poisson(rng, qps=1.0, num_requests=100,
                          output_tokens=256)


def bench_serving(repeats: int) -> BenchResult:
    """Serving study at fixed QPS (span pricing on)."""
    median, times = _median_time(lambda: _serving_study(None), repeats)
    return BenchResult("serving_fixed_qps", "engine", median, times,
                       meta={"model": "dsr1-qwen-1.5b", "qps": 1.0,
                             "requests": 100, "output_tokens": 256})


def bench_serving_span_speedup(repeats: int) -> BenchResult:
    """Span pricing vs per-token stepping: a machine-independent ratio.

    Absolute-time baselines drift across runner hardware; this ratio
    pits the two code paths against each other on the same machine in
    the same process, so a regression here means the optimization
    itself degraded.
    """
    span, _ = _median_time(lambda: _serving_study(None), repeats)
    per_step, _ = _median_time(lambda: _serving_study(1), repeats)
    ratio = per_step / span if span > 0 else float("inf")
    return BenchResult("serving_span_speedup", "engine", ratio, (ratio,),
                       unit="x",
                       meta={"min": SPAN_SPEEDUP_MIN,
                             "span_s": span, "per_step_s": per_step})


def bench_evaluator(repeats: int) -> BenchResult:
    """Vectorized evaluator over MMLU-Redux (two configurations)."""
    from repro.evaluation.evaluator import Evaluator
    from repro.generation.control import base_control, hard_budget
    from repro.models.registry import get_model
    from repro.workloads.mmlu_redux import mmlu_redux

    benchmark = mmlu_redux(seed=0)
    model = get_model("dsr1-llama-8b")
    controls = (base_control(), hard_budget(1024))

    def evaluate() -> None:
        evaluator = Evaluator(benchmark, seed=0)
        for control in controls:
            evaluator.evaluate(model, control)

    median, times = _median_time(evaluate, repeats)
    return BenchResult("evaluator_mmlu_redux", "engine", median, times,
                       meta={"model": "dsr1-llama-8b",
                             "benchmark": "mmlu-redux",
                             "configs": len(controls)})


def bench_fleet(repeats: int) -> BenchResult:
    """Fleet gateway at fixed QPS: 4 devices, latency-aware routing."""
    import numpy as np

    from repro.fleet import FleetGateway, build_fleet, poisson_stream

    def fleet_run() -> None:
        fleet = build_fleet(4, mix="balanced")
        gateway = FleetGateway(fleet, policy="latency-aware")
        stream = poisson_stream(np.random.default_rng(7), qps=8.0,
                                num_requests=64, deadline_s=30.0)
        gateway.run(stream)

    median, times = _median_time(fleet_run, repeats)
    return BenchResult("fleet_fixed_qps", "fleet", median, times,
                       meta={"devices": 4, "mix": "balanced",
                             "policy": "latency-aware", "qps": 8.0,
                             "requests": 64})


def bench_fleet_overload(repeats: int) -> BenchResult:
    """One overload-survival run: 3x storm, brownouts, breakers, hedges.

    Times the self-healing gateway's full hot path — health polling,
    brownout admission, hedging, and the tick-drain — so a slowdown in
    the resilience layer shows up here rather than only in CI wallclock.
    """
    from repro.experiments.resilience import _overload_run

    def overload_run() -> None:
        _overload_run(4, 3.2, 140, 30, 96, 128, 20.0, 3, 0)

    median, times = _median_time(overload_run, repeats)
    return BenchResult("fleet_overload", "overload", median, times,
                       meta={"devices": 4, "overload_factor": 3.2,
                             "storm_requests": 140, "tail_requests": 30})


def bench_fleet_diurnal(repeats: int) -> BenchResult:
    """One diurnal+crowd autoscaled run: drains, sleeps, and cold wakes.

    Times the autoscaler's full hot path — pressure ticks, lifecycle
    transitions, drain evacuation checks, and cold-start routing — on
    the same shape the ``chaos --autoscale`` gate uses, so a slowdown
    in the lifecycle layer surfaces here before it surfaces in CI.
    """
    from repro.experiments.resilience import _autoscale_run

    def diurnal_run() -> None:
        report, _, _ = _autoscale_run(6, 0.08, 0.55, 100.0, 320, 1.8, 70,
                                      96, 96, 45.0, 0)
        if report.lost:
            raise RuntimeError(
                f"fleet_diurnal lost {report.lost} requests; the timing "
                "would cover a broken run")

    median, times = _median_time(diurnal_run, repeats)
    return BenchResult("fleet_diurnal", "diurnal", median, times,
                       meta={"devices": 6, "period_s": 100.0,
                             "diurnal_requests": 320,
                             "crowd_requests": 70, "crowd_factor": 1.8})


def _paced_fleet_run(mode: str, devices: int, requests: int,
                     utilization: float = 0.6, seed: int = 7):
    """One single-stream fleet run paced below closed-form capacity.

    Pacing keeps every completion latency under the breaker spike
    threshold, which is what keeps the vector fast path eligible end to
    end (an overloaded stream would fall back to the scalar oracle).
    Returns ``(report, last_mode, qps)``.
    """
    import numpy as np

    from repro.experiments.resilience import _fleet_capacity_qps
    from repro.fleet import FleetGateway, build_fleet, poisson_stream

    fleet = build_fleet(devices, mix="balanced", max_batch_size=1)
    qps = utilization * _fleet_capacity_qps(fleet, 150, 192)
    gateway = FleetGateway(fleet, policy="round-robin", mode=mode)
    stream = poisson_stream(np.random.default_rng(seed), qps=qps,
                            num_requests=requests)
    report = gateway.run(stream)
    return report, gateway.last_mode, qps


def bench_fleet_vector_speedup(repeats: int) -> BenchResult:
    """Scalar vs vector gateway on the identical paced stream.

    Both paths produce byte-identical reports (the equivalence tests
    pin that); this ratio gates that the vector fast path keeps paying
    for itself.  In-process and same-machine, so the floor is
    hardware-independent.
    """
    devices, requests = 8, 2000

    def run(mode: str) -> None:
        report, last_mode, _ = _paced_fleet_run(mode, devices, requests)
        if mode == "vector" and last_mode != "vector":
            raise RuntimeError(
                "fleet_vector_speedup stream fell back to scalar; "
                "the ratio would be meaningless")
        if report.completed != requests:
            raise RuntimeError(
                f"fleet_vector_speedup served {report.completed} of "
                f"{requests} requests")

    # Best-of, not median: timing noise is strictly additive, and a
    # scheduler stall inside the ~0.1 s vector window would deflate the
    # ratio far more than the same stall inflates the scalar side.
    scalar_s = min(_median_time(lambda: run("scalar"), repeats)[1])
    vector_s = min(_median_time(lambda: run("vector"), repeats)[1])
    ratio = scalar_s / vector_s if vector_s > 0 else float("inf")
    return BenchResult("fleet_vector_speedup", "fleet100k", ratio, (ratio,),
                       unit="x",
                       meta={"min": FLEET_VECTOR_SPEEDUP_MIN,
                             "devices": devices, "requests": requests,
                             "scalar_s": scalar_s, "vector_s": vector_s})


def bench_fleet_100k(repeats: int) -> BenchResult:
    """The population-scale flagship: 100k requests, 64 devices.

    Runs the vector fast path only (the scalar oracle would take
    minutes at this scale — its correctness is pinned at smaller sizes
    by the equivalence tests and the fleet_vector_speedup ratio).  The
    run must genuinely stay on the vector path and serve every request,
    else the timing is rejected rather than silently recorded.
    """
    devices, requests = 64, 100_000
    qps_box: list[float] = []

    def run() -> None:
        report, last_mode, qps = _paced_fleet_run("vector", devices,
                                                  requests)
        qps_box.append(qps)
        if last_mode != "vector":
            raise RuntimeError("fleet_100k fell back to the scalar path")
        if report.completed != requests:
            raise RuntimeError(
                f"fleet_100k served {report.completed} of {requests}")

    median, times = _median_time(run, repeats)
    return BenchResult("fleet_100k", "fleet100k", median, times,
                       meta={"devices": devices, "requests": requests,
                             "max_batch_size": 1, "qps": qps_box[0],
                             "mode": "vector",
                             "budget_s": FLEET_100K_BUDGET_S})


#: The shared shape of the diurnal session-population workload: a
#: 32-device single-stream fleet with warm prefix caches, paced at a
#: fraction of its closed-form capacity for the population's mean
#: prompt (regional prefix + suffix, ~527 tokens) and output (~210).
_POP_DEVICES = 32
_POP_MEAN_TURNS = 10.0
_POP_UTILIZATION = 0.4


def _population_fleet():
    from repro.fleet import build_fleet

    return build_fleet(_POP_DEVICES, mix="balanced", max_batch_size=1,
                       prefix_cache_mb=32.0)


def _population_gateway(fleet, **kwargs):
    """A prefix-affinity gateway tolerant of diurnal-peak latencies.

    The population workload's per-request service time is several
    seconds, so queueing at the diurnal peak legitimately reaches
    minutes; the default breaker spike threshold (30 s) would treat
    that as device failure and force the scalar oracle.  The raised
    threshold is part of the committed workload shape.
    """
    from repro.fleet import FleetGateway
    from repro.fleet.health import HealthConfig

    return FleetGateway(fleet, policy="prefix-affinity",
                        health=HealthConfig(latency_spike_s=3600.0),
                        **kwargs)


def _population_trace(requests: int, seed: int = 11):
    """The seeded diurnal session-population trace at bench shape."""
    import numpy as np

    from repro.experiments.resilience import _fleet_capacity_qps
    from repro.workloads.population import (PopulationConfig,
                                            population_trace)

    base = (_POP_UTILIZATION
            * _fleet_capacity_qps(_population_fleet(), 527, 210)
            / _POP_MEAN_TURNS)
    config = PopulationConfig(
        requests=requests, mean_turns=_POP_MEAN_TURNS, users=50_000,
        base_sessions_per_s=base, peak_sessions_per_s=1.4 * base,
        period_s=3600.0)
    return population_trace(np.random.default_rng(seed), config)


def bench_fleet_routing_speedup(repeats: int) -> BenchResult:
    """Streaming trace driver vs the scalar oracle, same workload.

    The scalar side is ``mode="scalar"``: the per-event loop with its
    cached routing views, the path a trace falls back to when the
    vector core cannot serve it.  At ~2 ms/request it serves a
    10k-request prefix of the trace, once (repeated full-length runs
    would dominate the whole suite), normalized per request; the
    streaming side serves the full 100k trace, best-of over
    ``repeats``.  Both sides route prefix-affinity over identical
    fleets.
    """
    requests, scalar_requests = 100_000, 10_000
    trace = _population_trace(requests)

    def streaming_run() -> None:
        gateway = _population_gateway(_population_fleet())
        report = gateway.run_trace(trace)
        if gateway.last_mode != "vector":
            raise RuntimeError(
                "fleet_routing_speedup trace fell back to scalar; "
                "the ratio would be meaningless")
        if report.completed != requests:
            raise RuntimeError(
                f"fleet_routing_speedup served {report.completed} of "
                f"{requests} requests")

    trace_s = min(_median_time(streaming_run, repeats)[1])

    stream = trace.materialize(stop=scalar_requests)
    oracle = _population_gateway(_population_fleet(), mode="scalar")
    start = time.perf_counter()
    scalar_report = oracle.run(stream)
    scalar_s = time.perf_counter() - start
    if scalar_report.completed != scalar_requests:
        raise RuntimeError(
            f"fleet_routing_speedup scalar side served "
            f"{scalar_report.completed} of {scalar_requests} requests")
    ratio = ((scalar_s / scalar_requests) / (trace_s / requests)
             if trace_s > 0 else float("inf"))
    return BenchResult("fleet_routing_speedup", "diurnal1m", ratio,
                       (ratio,), unit="x",
                       meta={"min": FLEET_ROUTING_SPEEDUP_MIN,
                             "devices": _POP_DEVICES,
                             "requests": requests,
                             "scalar_requests": scalar_requests,
                             "scalar_s": scalar_s, "trace_s": trace_s,
                             "normalization": "per-request"})


def bench_fleet_diurnal_1m(repeats: int) -> BenchResult:
    """The population flagship: 1M session requests, 32 devices.

    ``repeats`` serial passes of the streaming trace driver (serial —
    the committed budget must hold with no parallelism assumption),
    with trace generation outside the timed region.  The recorded
    value is the *best* pass, not the median: the budget gate asks
    whether the code can complete 1M requests inside the wall-clock
    budget, and on a shared single-core runner min-of-N is the
    statistic that measures the code rather than the scheduler.
    Every pass must stay on the vector path and serve every request,
    else the timing is rejected rather than silently recorded.
    """
    requests = 1_000_000
    generate_start = time.perf_counter()
    trace = _population_trace(requests)
    generate_s = time.perf_counter() - generate_start
    times = []
    for _ in range(max(repeats, 1)):
        gateway = _population_gateway(_population_fleet())
        start = time.perf_counter()
        report = gateway.run_trace(trace)
        times.append(time.perf_counter() - start)
        if gateway.last_mode != "vector":
            raise RuntimeError("fleet_diurnal_1m fell back to the "
                               "scalar path")
        if report.completed != requests:
            raise RuntimeError(
                f"fleet_diurnal_1m served {report.completed} of "
                f"{requests}")
    return BenchResult("fleet_diurnal_1m", "diurnal1m", min(times),
                       tuple(times),
                       meta={"devices": _POP_DEVICES,
                             "requests": requests,
                             "max_batch_size": 1,
                             "mean_turns": _POP_MEAN_TURNS,
                             "users": 50_000,
                             "utilization": _POP_UTILIZATION,
                             "prefix_cache_mb": 32.0,
                             "mode": "vector", "jobs": 1,
                             "generate_s": generate_s,
                             "p99_latency_s": report.p99_latency_s,
                             "budget_s": FLEET_DIURNAL_1M_BUDGET_S})


def bench_fleet_tiered_dag(repeats: int) -> BenchResult:
    """One budget-aware tiered run of the agentic DAG suite.

    Times the tiering hot path end to end — difficulty prediction,
    budget fitting, DAG expansion, dependency-gated child release,
    refunds/top-ups, and the closing vote/verify aggregation — at the
    same shape the ``chaos --tiering`` gate serves, so a slowdown in
    the tier scheduler surfaces here before it surfaces in CI.
    """
    from repro.experiments.tiering_study import _tiered_run

    devices, jobs = 4, 48

    def tiered_run() -> None:
        report, _ = _tiered_run(0, devices, jobs, 1.5, 60.0, None, 6000)
        if report.lost:
            raise RuntimeError(
                f"fleet_tiered_dag lost {report.lost} DAG children; the "
                "timing would cover a broken run")

    median, times = _median_time(tiered_run, repeats)
    return BenchResult("fleet_tiered_dag", "tiering", median, times,
                       meta={"devices": devices, "dag_jobs": jobs,
                             "qps": 1.5, "deadline_s": 60.0,
                             "session_token_budget": 6000})


# ----------------------------------------------------------------------
# driver / files / gate
# ----------------------------------------------------------------------
def run_benchmarks(repeats: int = 3,
                   artifacts: tuple[str, ...] = PIPELINE_ARTIFACTS,
                   jobs: int = 1, executor: str = "thread",
                   only: Iterable[str] | None = None,
                   log: Callable[[str], None] | None = None,
                   ) -> list[BenchResult]:
    """Run the perf workload suite; ``only`` filters by workload name."""
    import tempfile

    known = tuple(name for name, _, _ in WORKLOAD_CATALOG)
    selected = set(only) if only else None
    if selected is not None:
        unknown = selected.difference(known)
        if unknown:
            raise ValueError(
                f"unknown perf workload(s) {sorted(unknown)}; "
                f"choose from {list(known)}")

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    results: list[BenchResult] = []

    def record(result: BenchResult) -> None:
        results.append(result)
        if log is not None:
            log(f"{result.name:28s} {result.value:10.4f} {result.unit}")

    if wanted("pipeline_cold_smoke"):
        record(bench_pipeline_cold(repeats, artifacts, jobs, executor))
    if wanted("pipeline_warm_smoke"):
        with tempfile.TemporaryDirectory(prefix="repro-perf-") as scratch:
            record(bench_pipeline_warm(repeats, artifacts, Path(scratch)))
    if wanted("serving_fixed_qps"):
        record(bench_serving(repeats))
    if wanted("serving_span_speedup"):
        record(bench_serving_span_speedup(repeats))
    if wanted("evaluator_mmlu_redux"):
        record(bench_evaluator(repeats))
    if wanted("fleet_fixed_qps"):
        record(bench_fleet(repeats))
    if wanted("fleet_overload"):
        record(bench_fleet_overload(repeats))
    if wanted("fleet_diurnal"):
        record(bench_fleet_diurnal(repeats))
    if wanted("fleet_vector_speedup"):
        record(bench_fleet_vector_speedup(repeats))
    if wanted("fleet_100k"):
        record(bench_fleet_100k(repeats))
    if wanted("fleet_routing_speedup"):
        record(bench_fleet_routing_speedup(repeats))
    if wanted("fleet_diurnal_1m"):
        record(bench_fleet_diurnal_1m(repeats))
    if wanted("fleet_tiered_dag"):
        record(bench_fleet_tiered_dag(repeats))
    return results


def _environment() -> dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_bench_files(results: list[BenchResult],
                      out_dir: str | Path = ".") -> dict[str, Path]:
    """Write ``BENCH_pipeline.json`` / ``BENCH_engine.json``.

    Only groups with at least one result are written, so a filtered run
    never clobbers the other group's file with an empty shell.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for group, filename in BENCH_FILES.items():
        grouped = {r.name: r.to_record() for r in results
                   if r.group == group}
        if not grouped:
            continue
        path = out_dir / filename
        payload = {"schema": 1, "environment": _environment(),
                   "workloads": grouped}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written[group] = path
    return written


def load_baseline(baseline_dir: str | Path) -> dict[str, dict[str, Any]]:
    """Workload name -> record, merged across both committed files."""
    merged: dict[str, dict[str, Any]] = {}
    for filename in BENCH_FILES.values():
        path = Path(baseline_dir) / filename
        if not path.is_file():
            continue
        payload = json.loads(path.read_text())
        merged.update(payload.get("workloads", {}))
    return merged


def compare_to_baseline(results: list[BenchResult],
                        baseline_dir: str | Path,
                        threshold: float = DEFAULT_THRESHOLD,
                        ) -> list[str]:
    """Regression messages (empty = gate passes).

    Absolute-time workloads fail when the current median exceeds the
    baseline by more than ``threshold``; ratio workloads fail when they
    drop below their recorded ``meta.min`` floor (hardware-independent,
    so the floor gates even when the absolute baseline machine differs
    from the runner).  Workloads carrying a ``meta.budget_s`` also fail
    outright past that wall-clock budget, baseline or not.
    """
    baseline = load_baseline(baseline_dir)
    problems: list[str] = []
    for result in results:
        base = baseline.get(result.name)
        budget = result.meta.get("budget_s")
        if budget is not None and result.value > budget:
            problems.append(
                f"{result.name}: {result.value:.3f}s blew the "
                f"{budget:.0f}s wall-clock budget")
        if result.unit == "x":
            floor = result.meta.get("min")
            if base is not None:
                floor = max(filter(None, (
                    floor, base.get("meta", {}).get("min"))), default=floor)
            if floor is not None and result.value < floor:
                problems.append(
                    f"{result.name}: ratio {result.value:.2f}x fell below "
                    f"the {floor:.2f}x floor")
            continue
        if base is None:
            continue
        limit = base["value"] * (1.0 + threshold) + ABSOLUTE_SLACK_S
        if result.value > limit:
            problems.append(
                f"{result.name}: {result.value:.3f}s exceeds baseline "
                f"{base['value']:.3f}s by more than "
                f"{threshold:.0%} (limit {limit:.3f}s)")
    return problems
