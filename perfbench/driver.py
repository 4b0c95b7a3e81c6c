"""Measure one workload: untraced for end-to-end metrics, traced for layers.

An untraced run serves ``rounds`` independent seeded rounds plus one
repeat of round 0, timing only the gateway call, and reports the
end-to-end metrics.  A traced run serves every round twice, untraced
then with spans on the program's entry points, and reports the
per-layer metrics plus the tracing overhead.  Both runs check the
program's outputs and exit with code 1, printing no result, when a
check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from fleet_workloads import WORKLOADS
from measure import (
    CheckFailed,
    check_conservation,
    from_fleet_report,
    from_trace_report,
    layer_counts,
    pool,
)
from spans import Tracer

#: Seed used when ``--seed`` is omitted, and the seed held out for
#: confirming a claimed gain (never used while tuning a change).
DEFAULT_SEED = 1
HELD_OUT_SEED = 20251

#: (name, unit) of the end-to-end metrics, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("p50_latency_s", "s"),
    ("p99_latency_s", "s"),
    ("slo_attainment", "share"),
    ("energy_per_request_j", "J"),
    ("served_share", "share"),
)

#: (name, unit) of the per-layer metrics, in output order.
PER_LAYER = (
    ("workloads.generate_s", "s"),
    ("gateway.self_s", "s"),
    ("gateway.scalar_fallbacks", "count"),
    ("gateway.offered_imbalance", "ratio"),
    ("gateway.rerouted", "count"),
    ("vector_run.busy_s", "s"),
    ("vector_run.calls", "count"),
    ("vector_run.requests", "count"),
    ("trace.assemble_s", "s"),
    ("prefix_cache.hit_rate", "share"),
    ("engine.batch_occupancy", "seqs"),
    ("device.queue_wait_p99_s", "s"),
    ("device.ttft_p99_s", "s"),
    ("device.advance_s", "s"),
    ("device.advance_calls", "count"),
    ("device.inject_s", "s"),
    ("device.inject_calls", "count"),
    ("tiering.admit_s", "s"),
    ("tiering.release_s", "s"),
    ("tiering.release_calls", "count"),
    ("tiering.aggregate_s", "s"),
    ("tiering.fast_stages", "count"),
    ("tiering.deep_stages", "count"),
    ("tiering.verify_stages", "count"),
    ("tiering.load_downgrades", "count"),
    ("tiering.budget_downgrades", "count"),
    ("tiering.budget_shed_jobs", "count"),
    ("tiering.mean_branches", "count"),
    ("tiering.verify_rescues", "count"),
    ("tiering.answer_accuracy", "share"),
    ("health.breaker_opens", "count"),
    ("faults.device_crashes", "count"),
    ("trace.untraced_serve_s", "s"),
    ("trace.traced_serve_s", "s"),
    ("trace.overhead", "share"),
    ("trace.spans", "count"),
)


def plan_rounds(workload, seconds: int) -> int:
    """Rounds for a run of about ``seconds``: a positive multiple of
    the workload's ``round_multiple``, and at least two."""
    step = workload.round_multiple
    return max(2, step * max(1, round(seconds / (workload.round_s * step))))


def serve(workload, prepared, span=contextlib.nullcontext):
    """Time one gateway call; returns (outcome, seconds, fell_back)."""
    with workload.capture() as rows:
        gc.collect()
        with span():
            start = time.perf_counter()
            report = prepared.call()
            elapsed = time.perf_counter() - start
    if rows is None:
        outcome = from_fleet_report(report)
    elif len(rows) == 1:
        outcome = from_trace_report(report, rows[0])
    else:
        raise CheckFailed(f"expected one trace assembly, saw {len(rows)}")
    check_conservation(outcome)
    fell_back = (workload.expects_vector
                 and prepared.gateway.last_mode != "vector")
    return outcome, elapsed, fell_back


def check_scalar_oracle(workload, inputs) -> int:
    """Serve a prefix on both cores; the reports must match byte for byte.

    Returns the prefix length (0 when the workload has no vector path).
    """
    if not workload.oracle_requests:
        return 0
    prefix = workload.prefix(inputs, workload.oracle_requests)
    vector = workload.build(prefix)
    report = vector.call()
    if vector.gateway.last_mode != "vector":
        raise CheckFailed("scalar-oracle check: the prefix did not run on "
                          "the vector path")
    scalar = workload.build(prefix, mode="scalar")
    if scalar.call().to_json() != report.to_json():
        raise CheckFailed("scalar-oracle check: vector and scalar reports "
                          f"differ on a {report.offered}-request prefix")
    return report.offered


def run_untraced(workload, seed: int, seconds: int) -> dict:
    rounds = plan_rounds(workload, seconds)
    setups, outcomes = [], []
    serve_s = 0.0
    fallbacks = 0
    for index in range(rounds):
        gc.collect()
        start = time.perf_counter()
        inputs = workload.generate(seed, index)
        prepared = workload.build(inputs)
        setups.append(time.perf_counter() - start)
        outcome, elapsed, fell_back = serve(workload, prepared)
        outcomes.append(outcome)
        serve_s += elapsed
        fallbacks += fell_back
        if index == 0:
            first_inputs = inputs
    repeat, _, fell_back = serve(workload, workload.build(first_inputs))
    if repeat.digest != outcomes[0].digest:
        raise CheckFailed("repeat of round 0 produced a different report "
                          f"({repeat.digest[:12]} != "
                          f"{outcomes[0].digest[:12]})")
    fallbacks += fell_back
    oracle = check_scalar_oracle(workload, first_inputs)

    offered = sum(o.offered for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        # Rounds differ in work per request (a tiered round with a
        # crashed 14B device runs more events), so the rate is total
        # requests over total time, not a median of per-round rates.
        "sim_req_per_s": offered / serve_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
    }
    metrics.update(pool(outcomes))
    return {"rounds": rounds, "outcomes": outcomes, "fallbacks": fallbacks,
            "oracle": oracle, "attempted": offered + repeat.offered,
            "metrics": metrics}


def run_traced(workload, seed: int, seconds: int, trace_path: Path) -> dict:
    # Every round is served twice, so half as many rounds keep the
    # traced run about as long as the untraced one.
    rounds = plan_rounds(workload, max(1, seconds // 2))
    tracer = Tracer()
    outcomes = []
    fallbacks = 0
    untraced_s = traced_s = 0.0
    for index in range(rounds):
        with tracer.installed(), tracer.span("bench.generate"):
            inputs = workload.generate(seed, index)
        plain, elapsed, _ = serve(workload, workload.build(inputs))
        untraced_s += elapsed
        with tracer.installed():
            with tracer.span("bench.build"):
                prepared = workload.build(inputs)
            outcome, elapsed, fell_back = serve(
                workload, prepared, lambda: tracer.span("bench.serve"))
        traced_s += elapsed
        if outcome.digest != plain.digest:
            raise CheckFailed(f"round {index}: the traced run's report "
                              "differs from the untraced run's")
        outcomes.append(outcome)
        fallbacks += fell_back
        if index == 0:
            first_inputs = inputs
    oracle = check_scalar_oracle(workload, first_inputs)
    tracer.write_chrome_trace(trace_path)

    totals = tracer.totals()

    def stat(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def both(names: tuple[str, ...], key: str) -> float:
        return sum(stat(name, key) for name in names)

    vector = ("VectorServingRun.execute_arrays", "VectorServingRun.execute")
    metrics = {
        "workloads.generate_s": stat("bench.generate", "total_s"),
        "gateway.self_s": both(("FleetGateway.run_trace",
                                "FleetGateway.run"), "self_s"),
        "gateway.scalar_fallbacks": fallbacks,
        "vector_run.busy_s": both(vector, "total_s"),
        "vector_run.calls": both(vector, "calls"),
        "vector_run.requests": both(vector, "count"),
        "trace.assemble_s": stat("assemble_trace_report", "total_s"),
        "device.advance_s": stat("FleetDevice.advance_to", "total_s"),
        "device.advance_calls": stat("FleetDevice.advance_to", "calls"),
        "device.inject_s": stat("FleetDevice.inject", "total_s"),
        "device.inject_calls": stat("FleetDevice.inject", "calls"),
        "tiering.admit_s": stat("DagRun.admit", "total_s"),
        "tiering.release_s": stat("DagRun.ready_children", "total_s"),
        "tiering.release_calls": stat("DagRun.ready_children", "calls"),
        "tiering.aggregate_s": stat("DagRun.aggregate", "total_s"),
        "trace.untraced_serve_s": untraced_s,
        "trace.traced_serve_s": traced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        "trace.spans": len(tracer.spans),
    }
    metrics.update(layer_counts(outcomes))
    return {"rounds": rounds, "outcomes": outcomes, "fallbacks": fallbacks,
            "oracle": oracle, "attempted": 2 * sum(o.offered
                                                   for o in outcomes),
            "metrics": metrics}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Fleet-simulator benchmark: one workload per run.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str], root: Path) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    trace_path = root / ".perfbench" / f"trace-{workload.name}.json"
    try:
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds,
                                trace_path)
            names = PER_LAYER
        else:
            result = run_untraced(workload, args.seed, args.seconds)
            names = END_TO_END
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return 1

    outcomes = result["outcomes"]
    sent = sum(o.offered for o in outcomes)
    served = sum(o.completed for o in outcomes)
    shed = sum(o.shed for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"workload {workload.name} seed {args.seed} rounds "
          f"{result['rounds']} {'traced' if args.trace else 'untraced'}")
    print(f"requests sent {sent} served {served} shed {shed} failed "
          f"{failed} failed_share {(shed + failed) / sent:.6f}")
    print(f"scalar fallbacks {result['fallbacks']}")
    print("checks: conservation ok, "
          + ("traced == untraced sha ok" if args.trace
             else "repeat sha ok")
          + (f", scalar oracle ok on {result['oracle']} requests"
             if result["oracle"] else ""))
    if args.trace:
        print(f"trace written to {trace_path}")
    metrics = result["metrics"]
    for name, unit in names:
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": sum(o.lost for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0

