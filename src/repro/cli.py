"""Command-line interface: simulate, characterize, plan, reproduce.

Examples::

    python -m repro list
    python -m repro run table11
    python -m repro run --all --jobs 4 --timing
    python -m repro simulate --model dsr1-llama-8b --prompt 150 --output 800
    python -m repro plan --budget 5 --prompt 128
    python -m repro models

The artifact pipeline caches expensive intermediates in memory for the
duration of a command; set ``--cache-dir`` (or the ``REPRO_CACHE_DIR``
environment variable) to also persist them on disk across invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.characterize import characterize_model
from repro.core.persistence import save_characterization
from repro.core.planner import build_planner
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.request import GenerationRequest
from repro.experiments.runner import (
    list_experiments,
    render,
    run_all_timed,
    run_experiment,
)
from repro.models.registry import get_model, list_models
from repro.pipeline.store import ArtifactStore


def _cmd_list(args: argparse.Namespace) -> int:
    for artifact in list_experiments():
        print(artifact)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    for name in list_models():
        model = get_model(name)
        print(f"{name:26s} {model.param_count / 1e9:6.2f}B "
              f"{model.family.value:<13s} "
              f"{model.quantization or 'fp16'}")
    return 0


def _cache_dir(args: argparse.Namespace) -> str | None:
    """The configured disk-cache directory, if any."""
    return getattr(args, "cache_dir", None) or os.environ.get(
        "REPRO_CACHE_DIR")


def _make_store(args: argparse.Namespace) -> ArtifactStore:
    """One shared store per CLI invocation (disk tier when configured)."""
    return ArtifactStore(cache_dir=_cache_dir(args))


def _print_timing(report) -> None:
    """Human-readable timing/cache summary of a pipeline run."""
    from repro.experiments.report import Table

    table = Table(
        f"Pipeline timing (jobs={report.jobs}, seed={report.seed}"
        f"{', smoke' if report.smoke else ''})",
        ["Artifact", "Seconds", "Status", "Producers"],
    )
    for timing in sorted(report.timings, key=lambda t: -t.seconds):
        table.add_row(timing.artifact, timing.seconds, timing.status,
                      ", ".join(timing.producers) or "-")
    print(table.to_text())
    stats = report.store_stats
    print(f"\nwall time    {report.wall_seconds:.2f} s")
    print(f"cache        {stats.hits} hits / {stats.misses} misses "
          f"({stats.disk_hits} from disk, "
          f"{stats.disk_corruptions} corrupt entries recomputed)")
    for producer, count in sorted(stats.corruptions_by_producer.items()):
        print(f"corruption   {producer:28s} {count}x")
    sup = report.supervisor_stats
    if sup.retries or sup.timeouts or sup.failed_producers:
        print(f"supervisor   {sup.retries} retries "
              f"({sup.recovered} producers recovered), "
              f"{sup.timeouts} watchdog timeouts, "
              f"{sup.wasted_seconds:.2f} s wasted")
    if report.resumed:
        print(f"resumed      {len(report.resumed)} artifacts "
              f"from journal (run {report.run_id})")
    slowest = sorted(stats.compute_seconds.items(), key=lambda kv: -kv[1])
    for producer, seconds in slowest[:5]:
        print(f"producer     {producer:28s} {seconds:7.2f} s "
              f"(computed {stats.misses_by_producer.get(producer, 0)}x)")


def _print_failures(report) -> None:
    """Quarantine summary of a ``--keep-going`` run."""
    print(f"\n{len(report.failed)} artifact(s) quarantined:",
          file=sys.stderr)
    for failure in report.failed:
        origin = (f"producer {failure.producer!r}" if failure.producer
                  else "artifact function")
        attempts = len(failure.attempts)
        detail = f" after {attempts} attempts" if attempts > 1 else ""
        print(f"  {failure.artifact:20s} {origin}{detail}: "
              f"{failure.error_type}: {failure.error} "
              f"[{failure.error_digest}]", file=sys.stderr)
    completed = sum(1 for t in report.timings if t.status != "failed")
    print(f"partial results: {completed} of "
          f"{len(report.timings)} artifacts completed", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.pipeline.journal import RunJournal
    from repro.pipeline.runner import PipelineError

    if not args.all and args.artifact is None and not args.resume:
        print("error: provide an artifact id, --all, or --resume RUN_ID",
              file=sys.stderr)
        return 2
    cache_dir = _cache_dir(args)
    store = _make_store(args)
    seed, smoke = args.seed, args.smoke

    journal = None
    if args.resume:
        if cache_dir is None:
            print("error: --resume needs --cache-dir (or $REPRO_CACHE_DIR), "
                  "the journal lives under the cache", file=sys.stderr)
            return 2
        try:
            journal = RunJournal.open(cache_dir, args.resume)
        except FileNotFoundError as exc:
            known = ", ".join(RunJournal.list_runs(cache_dir)) or "(none)"
            print(f"error: {exc}\nknown runs: {known}", file=sys.stderr)
            return 2
        # Resume under the interrupted run's parameters, not the flags.
        meta = journal.meta
        seed = meta.get("seed", seed)
        smoke = bool(meta.get("smoke", smoke))
        if journal.torn_tail:
            print("journal had a torn tail (crash mid-append); "
                  "recovered to the last complete event", file=sys.stderr)
        print(f"resuming run {journal.run_id}: "
              f"{len(journal.committed_artifacts)} committed, "
              f"{len(journal.in_flight_artifacts)} in flight, "
              f"{len(journal.failed_artifacts)} failed", file=sys.stderr)
    elif args.all and cache_dir is not None:
        journal = RunJournal.create(cache_dir, seed=seed, smoke=smoke)
        print(f"run id: {journal.run_id} "
              f"(resume with: repro run --resume {journal.run_id} "
              f"--cache-dir {cache_dir})", file=sys.stderr)

    if args.all or args.resume:
        try:
            outputs, report = run_all_timed(
                seed=seed, jobs=args.jobs, store=store, smoke=smoke,
                keep_going=args.keep_going, retries=args.retries,
                timeout_s=args.timeout, journal=journal,
                resume=bool(args.resume), executor=args.executor)
        except PipelineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if args.timing:
                _print_timing(exc.report)
            if args.timing_json:
                from repro.evaluation.export import write_timing_json

                path = write_timing_json(exc.report, args.timing_json)
                print(f"partial timing records -> {path}", file=sys.stderr)
            return 1
        for artifact, output in outputs.items():
            print(f"=== {artifact} ===")
            print(render(output))
            print()
        if args.timing:
            _print_timing(report)
        if args.timing_json:
            from repro.evaluation.export import write_timing_json

            path = write_timing_json(report, args.timing_json)
            print(f"timing records -> {path}", file=sys.stderr)
        if report.failed:
            _print_failures(report)
            return 1
        return 0
    output = run_experiment(args.artifact, seed=seed, store=store,
                            smoke=smoke)
    print(render(output))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    engine = InferenceEngine(model, config=EngineConfig(
        framework=args.framework))
    result = engine.generate(GenerationRequest(
        request_id=0,
        prompt_tokens=args.prompt,
        natural_length=args.output,
        n=args.parallel,
    ))
    report = result.energy
    print(f"model     {model.display_name}")
    print(f"framework {engine.framework.name} {engine.framework.version}")
    print(f"prefill   {result.prefill_seconds * 1e3:.1f} ms")
    print(f"decode    {result.decode_seconds:.2f} s "
          f"({result.tokens_per_second:.1f} tok/s, "
          f"batch {result.batch})")
    print(f"total     {result.total_seconds:.2f} s")
    print(f"energy    {report.total_energy_joules:.1f} J "
          f"(mean {report.mean_power_w:.1f} W)")
    return 0


def _render_artifact(output, charts: bool) -> str:
    """Render an artifact, optionally drawing Figures as ASCII charts."""
    from repro.experiments.report import Figure

    if isinstance(output, tuple):
        return "\n\n".join(_render_artifact(part, charts) for part in output)
    if charts and isinstance(output, Figure):
        return output.to_chart()
    return render(output)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.pipeline.runner import run_pipeline

    selected = (tuple(args.only.split(",")) if args.only
                else tuple(list_experiments()))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = _make_store(args)
    result = run_pipeline(selected, seed=args.seed, jobs=args.jobs,
                          store=store, smoke=args.smoke,
                          executor=args.executor)
    for artifact, output in result.outputs.items():
        target = out_dir / f"{artifact}.txt"
        target.write_text(_render_artifact(output, args.charts) + "\n")
        print(f"[{artifact}] -> {target}", file=sys.stderr)
    if args.timing:
        _print_timing(result.report)
    print(f"wrote {len(selected)} artifacts to {out_dir}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    print(f"Characterizing {model.display_name}...", file=sys.stderr)
    result = characterize_model(model, seed=args.seed)
    latency = result.latency
    print(f"prefill  L = {latency.prefill.a:.3e}*I_pad^2 + "
          f"{latency.prefill.b:.3e}*I_pad + {latency.prefill.c:.4f}")
    print(f"decode   TBT = {latency.decode.m:.3e}*I + {latency.decode.n:.4f}")
    print(f"power    decode: {result.decode_power.w:.2f}*ln(O) "
          f"{result.decode_power.x0:+.2f} (floor {result.decode_power.u:.1f} W)")
    if args.output:
        path = save_characterization(result, args.output)
        print(f"saved    {path}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run one fleet simulation and print the fleet report."""
    import numpy as np

    from repro.fleet import (
        ROUTING_POLICIES,
        FleetGateway,
        build_fleet,
        poisson_stream,
    )

    if args.policy is None:
        # Traces carry sticky sessions, so prefix-affinity is the
        # natural default there; interactive streams keep latency-aware.
        args.policy = ("prefix-affinity" if args.trace is not None
                       else "latency-aware")
    if args.policy not in ROUTING_POLICIES:
        print(f"repro fleet: unknown routing policy {args.policy!r}; "
              f"choose from {', '.join(sorted(ROUTING_POLICIES))}",
              file=sys.stderr)
        return 2
    if args.trace is not None:
        return _cmd_fleet_trace(args)
    fleet = build_fleet(args.devices, mix=args.mix, model=args.model,
                        prefix_cache_mb=args.prefix_cache_mb)
    gateway = FleetGateway(fleet, policy=args.policy)
    stream = poisson_stream(
        np.random.default_rng(args.seed), args.qps, args.requests,
        deadline_s=args.deadline, sessions=args.sessions,
        prefix_tokens=args.prefix_tokens)
    report = gateway.run(stream)
    if args.json:
        print(report.to_json())
        return 0 if report.lost == 0 else 1
    print(f"fleet      {args.devices}x {args.mix} ({args.model}), "
          f"policy {args.policy} [{gateway.last_mode}]")
    print(f"offered    {report.offered} requests at {args.qps:g} QPS "
          f"(seed {args.seed})")
    print(f"completed  {report.completed}  shed {report.shed}  "
          f"failed {report.failed}  lost {report.lost}")
    if args.deadline is not None:
        print(f"SLO        {report.deadline_hit_rate * 100:.1f}% within "
              f"{args.deadline:g} s")
    print(f"latency    p50 {report.latency_percentile(50):.2f} s, "
          f"p95 {report.latency_percentile(95):.2f} s")
    print(f"throughput {report.tokens_per_second:.1f} tok/s over "
          f"{report.wallclock_s:.1f} s makespan")
    print(f"energy     {report.energy_joules:.0f} J "
          f"({report.energy_per_request_j:.1f} J/request)")
    print(f"cost       ${report.cost_per_mtok():.4f} / 1M tokens")
    for device in report.devices:
        print(f"  {device.name}  {device.power_mode:>4}  "
              f"completed {device.report.completed:3d}  "
              f"energy {device.report.energy_joules:7.1f} J")
    return 0 if report.lost == 0 else 1


def _cmd_fleet_trace(args: argparse.Namespace) -> int:
    """Drive a population-scale trace through the streaming gateway
    (``fleet --trace population``)."""
    import numpy as np

    from repro.fleet import FleetGateway, build_fleet
    from repro.workloads.population import PopulationConfig, population_trace

    if args.trace != "population":
        print(f"repro fleet: unknown trace {args.trace!r}; "
              "the only generator is 'population'", file=sys.stderr)
        return 2
    if args.requests < 1:
        print("repro fleet: --requests must be positive", file=sys.stderr)
        return 2
    try:
        config = PopulationConfig(requests=args.requests,
                                  deadline_s=args.deadline)
    except ValueError as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return 2
    trace = population_trace(np.random.default_rng(args.seed), config)
    fleet = build_fleet(args.devices, mix=args.mix, model=args.model,
                        prefix_cache_mb=args.prefix_cache_mb)
    gateway = FleetGateway(fleet, policy=args.policy)
    report = gateway.run_trace(trace)
    if args.json:
        print(report.to_json())
        return 0 if report.lost == 0 else 1
    print(f"trace      population: {args.requests} requests over "
          f"{trace.num_sessions} sessions (seed {args.seed})")
    print(f"fleet      {args.devices}x {args.mix} ({args.model}), "
          f"policy {args.policy} [{gateway.last_mode}]")
    print(f"completed  {report.completed}  shed {report.shed}  "
          f"failed {report.failed}  lost {report.lost}")
    if args.deadline is not None:
        print(f"SLO        {report.deadline_hit_rate * 100:.1f}% within "
              f"{args.deadline:g} s")
    print(f"latency    p50 {report.p50_latency_s:.2f} s, "
          f"p95 {report.p95_latency_s:.2f} s, "
          f"p99 {report.p99_latency_s:.2f} s")
    print(f"throughput {report.tokens_per_second:.1f} tok/s over "
          f"{report.wallclock_s:.1f} s makespan")
    print(f"energy     {report.energy_joules:.0f} J "
          f"({report.energy_per_request_j:.2f} J/request)")
    return 0 if report.lost == 0 else 1


def _cmd_tier(args: argparse.Namespace) -> int:
    """Run the tiering frontier study (``repro tier``)."""
    if args.devices < 1:
        print("repro tier: --devices must be positive", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("repro tier: --jobs must be positive", file=sys.stderr)
        return 2
    if args.qps <= 0:
        print("repro tier: --qps must be positive", file=sys.stderr)
        return 2
    if args.budget < 1:
        print("repro tier: --budget must be positive", file=sys.stderr)
        return 2
    from repro.experiments.tiering_study import (
        frontier_checks,
        run_tiering_frontier_points,
        tiering_frontier_table,
    )

    points = run_tiering_frontier_points(
        seed=args.seed, devices=args.devices, jobs=args.jobs,
        qps=args.qps, session_token_budget=args.budget)
    ok = all(frontier_checks(points).values())
    if args.json:
        print(json.dumps(points, sort_keys=True, separators=(",", ":")))
        return 0 if ok else 1
    print(tiering_frontier_table(points).to_text())
    print()
    dominated = ", ".join(points["dominated"]) or "none"
    line = (f"tier frontier: {'PASS' if ok else 'FAIL'} "
            f"(dominates {dominated}, "
            f"conservation {'exact' if points['conservation_ok'] else 'LOST'})")
    print(line, file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one chaos gate; print its table and one line per check.

    PASS goes to stdout with exit 0; FAIL goes to stderr, naming every
    failed check, with exit 1.
    """
    from repro.experiments import resilience, tiering_study

    if args.pipeline:
        gate = resilience.pipeline_gate(
            fail_rate=args.fail_rate, retries=args.retries, seed=args.seed,
            executor=args.executor)
    elif args.fleet:
        gate = resilience.fleet_gate(
            devices=args.devices, kill=args.kill, qps=args.qps,
            num_requests=args.requests, deadline_s=args.deadline,
            seed=args.seed)
    elif args.overload:
        gate = resilience.overload_gate(
            seed=args.seed, devices=args.devices,
            overload_factor=args.overload_factor)
    elif args.autoscale:
        gate = resilience.autoscale_gate(seed=args.seed)
    elif args.tiering:
        gate = tiering_study.tiering_gate(seed=args.seed)
    else:
        gate = resilience.serving_gate(
            model_name=args.model, qps=args.qps, num_requests=args.requests,
            deadline_s=args.deadline, seed=args.seed)
    print(gate.table)
    print()
    for name, held in gate.checks.items():
        print(f"  [{'ok' if held else 'FAIL'}] {name}")
    if gate.ok:
        print(f"chaos gate ({gate.variant}): PASS")
        return 0
    print(f"chaos gate ({gate.variant}): FAIL ({', '.join(gate.failed)})",
          file=sys.stderr)
    return 1


def _cmd_perf(args: argparse.Namespace) -> int:
    """Time the representative workloads; optionally gate on baselines."""
    from repro.perf.harness import (
        PIPELINE_ARTIFACTS,
        compare_to_baseline,
        list_workloads,
        run_benchmarks,
        write_bench_files,
    )

    if args.list:
        for name, group, unit in list_workloads():
            kind = "ratio" if unit == "x" else "time"
            print(f"{name:28s} {kind:5s} -> BENCH_{group}.json")
        return 0
    artifacts = (tuple(args.artifacts.split(","))
                 if args.artifacts else PIPELINE_ARTIFACTS)
    only = tuple(args.only.split(",")) if args.only else None
    if args.profile is not None:
        if only is None or len(only) != 1:
            print("perf: --profile requires exactly one workload via "
                  "--only <name>", file=sys.stderr)
            return 2
        if args.profile < 1:
            print("perf: --profile must be positive", file=sys.stderr)
            return 2
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run_benchmarks(repeats=args.repeats, artifacts=artifacts,
                           jobs=args.jobs, executor=args.executor,
                           only=only)
        except ValueError as exc:
            print(f"perf: {exc}", file=sys.stderr)
            return 2
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.profile)
        return 0
    try:
        results = run_benchmarks(
            repeats=args.repeats, artifacts=artifacts, jobs=args.jobs,
            executor=args.executor, only=only,
            log=lambda line: print(line, file=sys.stderr))
    except ValueError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 2
    written = write_bench_files(results, args.out)
    for group, path in sorted(written.items()):
        print(f"{group} benchmarks -> {path}")
    if args.check:
        problems = compare_to_baseline(results, args.baseline,
                                       threshold=args.threshold)
        if problems:
            print(f"\nperf gate: FAIL vs baseline {args.baseline}",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"perf gate: PASS vs baseline {args.baseline}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    print("Characterizing candidate models (one-time)...", file=sys.stderr)
    planner = build_planner(seed=args.seed)
    decision = planner.plan(args.budget, prompt_tokens=args.prompt)
    if not decision.feasible:
        print(f"No configuration fits a {args.budget:.2f}s budget.")
        return 1
    chosen = decision.chosen
    print(f"budget    {args.budget:.2f} s (prompt {args.prompt} tokens)")
    print(f"config    {chosen.label}")
    print(f"tokens    {chosen.expected_output_tokens:.0f} expected")
    print(f"latency   {decision.predicted_latency_s:.2f} s predicted")
    print(f"accuracy  {decision.predicted_accuracy * 100:.1f}% predicted "
          f"(MMLU-Redux)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EdgeReasoning reproduction: simulate, characterize, "
                    "plan, and regenerate the paper's artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifacts").set_defaults(
        func=_cmd_list)
    sub.add_parser("models", help="list the model zoo").set_defaults(
        func=_cmd_models)

    run = sub.add_parser(
        "run", help="regenerate paper artifacts through the pipeline")
    run.add_argument("artifact", nargs="?", default=None,
                     help="artifact id, e.g. table11 or fig7")
    run.add_argument("--all", action="store_true",
                     help="run every registered artifact")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel artifact jobs for --all (default 1)")
    run.add_argument("--executor", choices=("thread", "process"),
                     default="thread",
                     help="concurrency substrate for --jobs > 1: threads "
                          "share one in-memory store; processes sidestep "
                          "the GIL, coordinating through the disk cache "
                          "(default thread)")
    run.add_argument("--timing", action="store_true",
                     help="print per-artifact wall time and cache stats")
    run.add_argument("--timing-json", default=None, metavar="FILE",
                     help="write machine-readable timing records to FILE")
    run.add_argument("--smoke", action="store_true",
                     help="small-size producer params (fast CI profile)")
    run.add_argument("--cache-dir", default=None,
                     help="on-disk artifact cache (default: $REPRO_CACHE_DIR)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--keep-going", action="store_true",
                     help="quarantine failing artifacts and finish the "
                          "sweep (exit nonzero, partial summary)")
    run.add_argument("--retries", type=int, default=0,
                     help="extra supervised attempts per producer "
                          "(seeded exponential backoff; default 0)")
    run.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="wall-clock watchdog per producer attempt "
                          "(default: none)")
    run.add_argument("--resume", default=None, metavar="RUN_ID",
                     help="resume an interrupted --all run from its "
                          "journal (requires the same cache dir)")
    run.set_defaults(func=_cmd_run)

    simulate = sub.add_parser("simulate", help="simulate one generation")
    simulate.add_argument("--model", default="dsr1-llama-8b")
    simulate.add_argument("--prompt", type=int, default=150)
    simulate.add_argument("--output", type=int, default=800)
    simulate.add_argument("--parallel", type=int, default=1)
    simulate.add_argument("--framework", default="vllm")
    simulate.set_defaults(func=_cmd_simulate)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate artifacts into an output directory")
    reproduce.add_argument("--output", default="outputs")
    reproduce.add_argument("--only", default=None,
                           help="comma-separated artifact ids (default: all)")
    reproduce.add_argument("--seed", type=int, default=0)
    reproduce.add_argument("--charts", action="store_true",
                           help="render figures as ASCII charts")
    reproduce.add_argument("--jobs", type=int, default=1,
                           help="parallel artifact jobs (default 1)")
    reproduce.add_argument("--executor", choices=("thread", "process"),
                           default="thread",
                           help="thread or process pool for --jobs > 1")
    reproduce.add_argument("--timing", action="store_true",
                           help="print per-artifact wall time and cache stats")
    reproduce.add_argument("--smoke", action="store_true",
                           help="small-size producer params (fast profile)")
    reproduce.add_argument("--cache-dir", default=None,
                           help="on-disk artifact cache "
                                "(default: $REPRO_CACHE_DIR)")
    reproduce.set_defaults(func=_cmd_reproduce)

    characterize = sub.add_parser(
        "characterize", help="fit the analytical models for one model")
    characterize.add_argument("--model", default="dsr1-llama-8b")
    characterize.add_argument("--seed", type=int, default=0)
    characterize.add_argument("--output", default=None,
                              help="write fitted models to this JSON file")
    characterize.set_defaults(func=_cmd_characterize)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection sweep of the serving path "
             "(or, with --pipeline, of the artifact pipeline)")
    chaos.add_argument("--model", default="dsr1-qwen-1.5b")
    chaos.add_argument("--qps", type=float, default=4.0)
    chaos.add_argument("--requests", type=int, default=50)
    chaos.add_argument("--deadline", type=float, default=40.0,
                       help="per-request deadline in seconds")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--pipeline", action="store_true",
                       help="chaos-test the supervised artifact pipeline "
                            "(transient producer faults, cache corruption, "
                            "crash/resume) instead of the serving path")
    chaos.add_argument("--fail-rate", type=float, default=0.3,
                       help="per-attempt producer fault probability "
                            "(--pipeline only; default 0.3)")
    chaos.add_argument("--retries", type=int, default=3,
                       help="supervised retries per producer "
                            "(--pipeline only; default 3)")
    chaos.add_argument("--executor", choices=("thread", "process"),
                       default="thread",
                       help="pipeline executor under chaos "
                            "(--pipeline only; default thread)")
    chaos.add_argument("--fleet", action="store_true",
                       help="kill --kill of --devices fleet devices "
                            "mid-run and gate on zero lost requests and "
                            "a byte-identical rerun")
    chaos.add_argument("--devices", type=int, default=4,
                       help="fleet size (--fleet only; default 4)")
    chaos.add_argument("--kill", type=int, default=2,
                       help="device crashes to schedule "
                            "(--fleet only; default 2)")
    chaos.add_argument("--overload", action="store_true",
                       help="drive a 3x-capacity flash crowd into a "
                            "flapping, thermally throttled fleet and "
                            "gate on conservation, brownout recovery, "
                            "and byte-identical reruns")
    chaos.add_argument("--overload-factor", type=float, default=3.2,
                       help="storm rate as a multiple of fleet "
                            "capacity (--overload only; default 3.2)")
    chaos.add_argument("--autoscale", action="store_true",
                       help="drive a diurnal cycle plus flash crowd "
                            "into an autoscaled fleet, crash devices "
                            "mid-drain and mid-wake, and gate on zero "
                            "loss, bounded flapping, energy below "
                            "always-on, and byte-identical reruns")
    chaos.add_argument("--tiering", action="store_true",
                       help="serve the agentic DAG suite under "
                            "budget-aware tier routing and gate on "
                            "frontier domination, exact conservation "
                            "over DAG children, and byte-identical "
                            "reruns across pipeline executors")
    chaos.set_defaults(func=_cmd_chaos)

    fleet = sub.add_parser(
        "fleet",
        help="simulate a multi-device fleet behind a routing gateway")
    fleet.add_argument("--devices", type=int, default=4,
                       help="number of edge devices (default 4)")
    fleet.add_argument("--mix", default="balanced",
                       help="power-mode mix: maxn, balanced, or "
                            "efficiency (default balanced)")
    fleet.add_argument("--model", default="dsr1-qwen-1.5b")
    fleet.add_argument("--policy", default=None,
                       help="routing policy: round-robin, "
                            "least-outstanding, latency-aware, "
                            "energy-aware, or prefix-affinity "
                            "(default latency-aware; prefix-affinity "
                            "with --trace)")
    fleet.add_argument("--trace", default=None, metavar="NAME",
                       help="drive a generated column trace through the "
                            "streaming gateway instead of a Poisson "
                            "stream; the only generator is 'population'")
    fleet.add_argument("--qps", type=float, default=8.0,
                       help="offered Poisson load (default 8)")
    fleet.add_argument("--requests", type=int, default=64,
                       help="requests in the stream (default 64)")
    fleet.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")
    fleet.add_argument("--prefix-cache-mb", type=float, default=0.0,
                       help="per-device prefix cache capacity (MB)")
    fleet.add_argument("--sessions", type=int, default=0,
                       help="sticky sessions sharing prompt prefixes")
    fleet.add_argument("--prefix-tokens", type=int, default=96,
                       help="shared prefix length per session "
                            "(with --sessions)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--json", action="store_true",
                       help="print the canonical FleetReport JSON")
    fleet.set_defaults(func=_cmd_fleet)

    perf = sub.add_parser(
        "perf",
        help="time representative workloads; write BENCH_*.json and "
             "optionally gate against committed baselines")
    perf.add_argument("--repeats", type=int, default=3,
                      help="timing repeats per workload; the median is "
                           "recorded (default 3)")
    perf.add_argument("--out", default=".",
                      help="directory for BENCH_pipeline.json / "
                           "BENCH_engine.json (default .)")
    perf.add_argument("--baseline", default="benchmarks/baselines",
                      help="committed baseline directory "
                           "(default benchmarks/baselines)")
    perf.add_argument("--check", action="store_true",
                      help="fail (exit 1) on >threshold regressions vs "
                           "the baseline, or on ratio floors broken")
    perf.add_argument("--threshold", type=float, default=0.25,
                      help="fractional regression tolerance for "
                           "absolute-time workloads (default 0.25)")
    perf.add_argument("--only", default=None,
                      help="comma-separated workload names to run "
                           "(default: all)")
    perf.add_argument("--list", action="store_true",
                      help="print the workload catalog (name, kind, "
                           "bench file) without running anything")
    perf.add_argument("--artifacts", default=None,
                      help="comma-separated artifact ids for the pipeline "
                           "workloads (default: characterization family)")
    perf.add_argument("--jobs", type=int, default=1,
                      help="pipeline jobs for the sweep workloads")
    perf.add_argument("--executor", choices=("thread", "process"),
                      default="thread",
                      help="pipeline executor for the sweep workloads")
    perf.add_argument("--profile", type=int, default=None, metavar="N",
                      help="run one workload (--only <name>) under "
                           "cProfile and print the top-N cumulative "
                           "functions instead of recording timings")
    perf.set_defaults(func=_cmd_perf)

    plan = sub.add_parser("plan", help="pick a config for a latency budget")
    plan.add_argument("--budget", type=float, required=True,
                      help="latency budget in seconds")
    plan.add_argument("--prompt", type=int, default=128)
    plan.add_argument("--seed", type=int, default=0)
    plan.set_defaults(func=_cmd_plan)

    tier = sub.add_parser(
        "tier",
        help="serve the agentic DAG suite under budget-aware "
             "Fast/Deep/Verify tier routing and print the "
             "accuracy-per-joule frontier vs fixed tiers")
    tier.add_argument("--seed", type=int, default=0)
    tier.add_argument("--devices", type=int, default=4,
                      help="fleet size (default 4)")
    tier.add_argument("--jobs", type=int, default=48,
                      help="agentic DAG jobs in the suite (default 48)")
    tier.add_argument("--qps", type=float, default=1.5,
                      help="offered job arrival rate (default 1.5)")
    tier.add_argument("--budget", type=int, default=6000,
                      help="per-session token budget (default 6000)")
    tier.add_argument("--json", action="store_true",
                      help="print the frontier points as canonical JSON")
    tier.set_defaults(func=_cmd_tier)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
