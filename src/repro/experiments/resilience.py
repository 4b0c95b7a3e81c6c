"""Chaos sweep: fault injection and graceful degradation under overload.

The serving ablation (:mod:`repro.experiments.serving_study`) assumes a
fault-free edge box.  This study drops that assumption: a seeded fault
schedule derates clocks (thermal episodes, a DVFS drop, transient
slowdowns), pressures the paged KV cache, and aborts a fraction of
requests, while an aggressive passive-cooling thermal model throttles
under sustained draw.  An overload Poisson stream with uniform deadlines
is then served twice — degradation disabled versus enabled — and the
resulting :class:`~repro.faults.ResilienceReport` pair quantifies what
the resilience hooks buy: recovered aborts, shed/ shrunken work, and a
strictly better deadline hit rate.

The rest of the module turns the same fault model loose on the
*artifact pipeline itself* (``repro chaos --pipeline``) and on the
fleet: device kills, a flash crowd into a flapping fleet, and an
autoscaled diurnal cycle.  Every ``repro chaos`` variant is one
:class:`ChaosGate`: a producer's plain-data points, their table, and an
ordered map of named checks, one per clause of the gate.

Everything is deterministic given ``seed``: the same chaos replays
bit-for-bit, which is what makes the sweep usable as a regression gate.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.engine import InferenceEngine
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.request import GenerationRequest
from repro.engine.server import ResilienceReport, ServingSimulator
from repro.experiments.report import Table
from repro.faults.degradation import DegradationPolicy
from repro.faults.injector import FaultInjector, FaultScheduleConfig
from repro.generation.control import hard_budget
from repro.hardware.thermal import ThermalConfig
from repro.models.registry import get_model
from repro.workloads.arrivals import poisson_arrivals


@dataclass(frozen=True)
class ChaosPoint:
    """Outcome of one chaos run (degradation on or off)."""

    label: str
    report: ResilienceReport

    @property
    def deadline_hit_rate(self) -> float:
        """Offered-population deadline hit rate."""
        return self.report.deadline_hit_rate


@dataclass(frozen=True)
class ChaosGate:
    """One ``repro chaos`` verdict: a run's points plus named checks.

    ``points`` is the run's plain data and ``table`` its rendering;
    ``checks`` maps each clause of the gate, in order, to whether it
    held, so a failing gate names exactly what broke.
    """

    variant: str
    points: dict
    table: str
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def failed(self) -> list[str]:
        """The checks that did not hold, in check order."""
        return [name for name, held in self.checks.items() if not held]


def points_table(title: str, points: dict, keys=None) -> Table:
    """A Metric/Value table of ``points`` (every key, or ``keys``)."""
    table = Table(title, ["Metric", "Value"])
    for key in keys or points:
        value = points[key]
        table.add_row(key, value if value is not None else "never")
    return table


def _gate(variant: str, title: str, points: dict, checks) -> ChaosGate:
    return ChaosGate(variant, points, points_table(title, points).to_text(),
                     checks(points))


def report_sha(report) -> str:
    """sha256 of a report's canonical JSON."""
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def with_identity(points: dict, rerun_sha: str, artifact_id: str,
                  seed: int, check_executors: bool) -> dict:
    """``points`` plus the two identity verdicts a fleet gate requires.

    ``rerun_identical``: the scalar-oracle rerun's sha equals
    ``points["report_sha"]``.  ``executor_identical``: thread and
    process pipelines render ``artifact_id`` alike (skipped, and
    vacuously true, when ``check_executors`` is false).
    """
    # Function-level import: the registry imports this module.
    from repro.experiments.runner import executors_agree

    return {**points,
            "rerun_identical": rerun_sha == points["report_sha"],
            "executor_identical": (not check_executors
                                   or executors_agree(artifact_id, seed))}


def chaos_schedule(seed: int = 0, horizon_s: float = 90.0,
                   abort_rate: float = 0.12) -> FaultInjector:
    """The default chaos fault schedule for the sweep."""
    return FaultInjector(FaultScheduleConfig(
        horizon_s=horizon_s,
        thermal_episodes=2,
        thermal_speed=0.6,
        thermal_duration_s=(8.0, 20.0),
        dvfs_drops=1,
        dvfs_speed=0.48,
        dvfs_duration_s=(6.0, 15.0),
        transient_slowdowns=3,
        transient_speed=0.8,
        transient_duration_s=(1.0, 4.0),
        kv_pressure_spikes=2,
        kv_pressure_fraction=0.5,
        kv_pressure_duration_s=(5.0, 12.0),
        abort_rate=abort_rate,
    ), seed=seed)


def passive_cooling() -> ThermalConfig:
    """A fanless-enclosure thermal model that throttles within a run.

    Small thermal mass and poor conductance put the 1.5B decode draw
    well above the trip point's equilibrium, so sustained overload
    service reliably enters the THROTTLED state.
    """
    return ThermalConfig(
        ambient_c=35.0,
        heat_capacity_j_per_c=8.0,
        conductance_w_per_c=0.2,
        throttle_trip_c=55.0,
        resume_c=50.0,
        throttle_derate=0.6,
        throttle_power_scale=0.7,
    )


def degradation_policy(deadline_s: float) -> DegradationPolicy:
    """The degradation knobs the chaos sweep enables."""
    return DegradationPolicy(
        timeout_s=2.0 * deadline_s,
        max_retries=2,
        retry_backoff_s=0.25,
        shed_queue_depth=4,
        shed_mode="degrade",
        degraded_control=hard_budget(96),
        drop_expired=True,
    )


def run_chaos_study(model_name: str = "dsr1-qwen-1.5b",
                    qps: float = 4.0,
                    num_requests: int = 50,
                    prompt_tokens: int = 150,
                    output_tokens: int = 192,
                    deadline_s: float = 40.0,
                    max_batch_size: int = 16,
                    seed: int = 0) -> list[ChaosPoint]:
    """Serve one overload chaos stream with degradation off, then on."""
    if qps <= 0:
        raise ValueError("qps must be positive")
    if num_requests < 0:
        raise ValueError("num_requests must be non-negative")
    if deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    model = get_model(model_name)
    engine = InferenceEngine(model)
    # A deliberately tight paged cache: the full batch at worst-case
    # context does not fit, so pressure spikes force preemptions.
    worst_context = prompt_tokens + output_tokens
    kv_cache = PagedKVCache(KVCacheConfig(
        bytes_per_token=model.kv_bytes_per_token,
        capacity_bytes=model.kv_bytes_per_token * worst_context
        * max_batch_size * 0.5,
    ))
    faults = chaos_schedule(seed=seed)
    rng = np.random.default_rng(seed + 17)
    arrivals = poisson_arrivals(rng, qps, num_requests)
    requests = [GenerationRequest(i, prompt_tokens, output_tokens)
                for i in range(num_requests)]
    deadlines = np.full(num_requests, deadline_s)

    points = []
    for label, degradation in (
        ("degradation off", None),
        ("degradation on", degradation_policy(deadline_s)),
    ):
        simulator = ServingSimulator(
            engine, max_batch_size=max_batch_size, policy="edf",
            faults=faults, thermal=passive_cooling(),
            degradation=degradation, kv_cache=kv_cache,
        )
        report = simulator.run(requests, arrivals, deadlines)
        points.append(ChaosPoint(label=label, report=report))
    return points


def serving_checks(points: dict) -> dict[str, bool]:
    return {"degradation-on hit rate >= degradation-off":
            points["hit_rate_on"] >= points["hit_rate_off"]}


def serving_gate(seed: int = 0, **params) -> ChaosGate:
    """The serving gate: degradation must not lower the hit rate."""
    runs = run_chaos_study(seed=seed, **params)
    off, on = (run.report for run in runs)
    points = {"hit_rate_off": off.deadline_hit_rate,
              "hit_rate_on": on.deadline_hit_rate}
    return ChaosGate("serving", points, resilience_table(runs).to_text(),
                     serving_checks(points))


# ----------------------------------------------------------------------
# pipeline chaos: supervised sweep under injected producer faults
# ----------------------------------------------------------------------

#: Cheap smoke-tier artifacts sharing the tradeoff grid — enough DAG
#: structure to exercise quarantine/retry without a full 45-way sweep.
PIPELINE_CHAOS_ARTIFACTS = ("fig6", "fig7", "fig8", "table10", "table11",
                            "optimizations", "power-modes")


def run_pipeline_chaos_study(artifact_ids: tuple[str, ...] | None = None,
                             fail_rate: float = 0.3,
                             retries: int = 3,
                             cache_corrupt_rate: float = 0.3,
                             crash_after: int = 3,
                             seed: int = 0,
                             smoke: bool = True,
                             jobs: int = 4,
                             cache_dir: str | Path | None = None,
                             executor: str = "thread",
                             ) -> dict:
    """Chaos-test the supervised pipeline, then a crash/resume cycle.

    Three sweeps over the same artifacts (default: the *entire*
    registry, every paper table/figure, at the smoke tier):

    1. a fault-free baseline (reference outputs);
    2. a chaos run — every producer attempt fails with probability
       ``fail_rate`` (transient, first two attempts only) and fresh
       disk-cache entries are garbled with ``cache_corrupt_rate`` —
       which must complete every artifact with byte-identical rendered
       outputs given ``retries``, followed by a cold replay over the
       same disk tier to prove corrupted entries are detected and
       recomputed rather than trusted;
    3. a crash/resume cycle — a journaled sequential run is killed
       after ``crash_after`` commits, relaunched with ``resume``, and
       must recompute exactly the uncommitted artifacts while matching
       the baseline byte-for-byte.
    """
    # Function-level imports: this module is imported by the pipeline
    # registry, so importing the runner at module scope would be cyclic.
    from repro.experiments.runner import list_experiments, render
    from repro.faults.injector import FaultInjector, PipelineFaultConfig
    from repro.pipeline.journal import RunJournal
    from repro.pipeline.runner import PipelineError, run_pipeline
    from repro.pipeline.store import ArtifactStore

    artifact_ids = artifact_ids or list_experiments()
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(cache_dir) if cache_dir is not None else Path(scratch)

        baseline = run_pipeline(artifact_ids, seed=seed, smoke=smoke,
                                jobs=jobs, executor=executor)
        reference = {a: render(o) for a, o in baseline.outputs.items()}

        # --- chaos run: transient producer faults + cache corruption.
        faults = FaultInjector(seed=seed, pipeline=PipelineFaultConfig(
            producer_fail_rate=fail_rate,
            producer_fail_attempts=min(2, retries),
            cache_corrupt_rate=cache_corrupt_rate,
        ))
        chaos_dir = root / "chaos"
        chaos_store = ArtifactStore(cache_dir=chaos_dir, faults=faults)
        chaos = run_pipeline(
            artifact_ids, seed=seed, smoke=smoke, jobs=jobs,
            store=chaos_store, executor=executor,
            keep_going=True, retries=retries, backoff_base_s=0.01,
            faults=faults,
            journal=RunJournal.create(chaos_dir, seed=seed, smoke=smoke,
                                      artifact_ids=artifact_ids))
        chaos_identical = all(
            render(chaos.outputs.get(a)) == reference[a]
            for a in artifact_ids if a in chaos.outputs
        ) and len(chaos.outputs) + len(chaos.report.failed) == len(
            artifact_ids)
        # A corrupted entry is only *detected* on a cold load: replay
        # the sweep through a fresh store over the same disk tier.
        reread = ArtifactStore(cache_dir=chaos_dir)
        replay = run_pipeline(artifact_ids, seed=seed, smoke=smoke,
                              jobs=jobs, store=reread, retries=retries,
                              backoff_base_s=0.01, executor=executor)
        chaos_identical = chaos_identical and all(
            render(replay.outputs[a]) == reference[a] for a in artifact_ids)
        disk_corruptions = reread.stats.disk_corruptions

        # --- crash/resume: kill a journaled sequential run after N
        # commits (sequential, so nothing past the crash point starts).
        resume_dir = root / "resume"
        journal = RunJournal.create(resume_dir, seed=seed, smoke=smoke,
                                    artifact_ids=artifact_ids)
        crash_after = max(1, min(crash_after, len(artifact_ids) - 1))

        class SimulatedCrash(RuntimeError):
            pass

        commits = 0

        def crash_on_commit(artifact_id: str) -> None:
            nonlocal commits
            commits += 1
            if commits >= crash_after:
                raise SimulatedCrash(f"killed after {artifact_id}")

        journal.on_commit = crash_on_commit
        try:
            run_pipeline(artifact_ids, seed=seed, smoke=smoke,
                         store=ArtifactStore(cache_dir=resume_dir),
                         journal=journal)
        except PipelineError:
            pass  # the simulated crash
        reopened = RunJournal.open(resume_dir, journal.run_id)
        committed = len(reopened.verified_committed())
        resumed = run_pipeline(artifact_ids, seed=seed, smoke=smoke,
                               jobs=jobs, executor=executor,
                               store=ArtifactStore(cache_dir=resume_dir),
                               journal=reopened, resume=True)
        resume_identical = all(
            render(resumed.outputs[a]) == reference[a]
            for a in artifact_ids)
        resume_recomputed = sum(
            1 for t in resumed.report.timings if t.status == "built")

    sup = chaos.report.supervisor_stats
    return {
        "artifacts": len(artifact_ids),
        "completed": len(chaos.outputs),
        "failed": len(chaos.report.failed),
        "injected_faults": sup.injected_faults,
        "retries": sup.retries,
        "recovered_producers": sup.recovered,
        "wasted_seconds": sup.wasted_seconds,
        "disk_corruptions": disk_corruptions,
        "chaos_identical": chaos_identical,
        "committed_before_crash": committed,
        "resume_recomputed": resume_recomputed,
        "resume_identical": resume_identical,
    }


def pipeline_checks(points: dict) -> dict[str, bool]:
    """``injected_faults > 0`` keeps the gate honest: a sweep whose
    seeded fault draws never fire proves nothing about recovery."""
    return {
        "failed == 0": points["failed"] == 0,
        "chaos_identical": points["chaos_identical"],
        "injected_faults > 0": points["injected_faults"] > 0,
        "resume_identical": points["resume_identical"],
        "resume_recomputed == artifacts - committed_before_crash":
            points["resume_recomputed"]
            == points["artifacts"] - points["committed_before_crash"],
    }


def pipeline_gate(**params) -> ChaosGate:
    """The pipeline gate over :func:`run_pipeline_chaos_study`."""
    return _gate("pipeline",
                 "Pipeline chaos: supervised smoke sweep under injected "
                 "producer faults, then a crash/resume cycle",
                 run_pipeline_chaos_study(**params), pipeline_checks)


def resilience_table(points: list[ChaosPoint] | None = None,
                     seed: int = 0) -> Table:
    """Format the chaos sweep."""
    points = points if points is not None else run_chaos_study(seed=seed)
    table = Table(
        "Resilience ablation: seeded chaos (throttling, KV pressure, "
        "aborts) under overload, DSR1-Qwen-1.5B @ EDF",
        ["Mode", "Served", "Hit rate (%)", "p95 (s)", "Throttled (%)",
         "Preempt", "Retries OK", "Timeouts", "Shed", "Failed",
         "Tokens saved"],
    )
    for point in points:
        report = point.report
        table.add_row(
            point.label,
            report.completed,
            report.deadline_hit_rate * 100.0,
            report.latency_percentile(95),
            report.throttle_residency_frac * 100.0,
            report.preemptions,
            report.successful_retries,
            report.timeouts,
            report.shed,
            report.failed,
            report.tokens_saved,
        )
    return table


# ----------------------------------------------------------------------
# Fleet chaos (``repro chaos --fleet``): kill K of N devices mid-run.
# ----------------------------------------------------------------------
def run_fleet_chaos_study(devices: int = 4, kill: int = 2,
                          policy: str = "latency-aware",
                          qps: float = 8.0, num_requests: int = 60,
                          deadline_s: float = 30.0, seed: int = 0,
                          mode: str = "auto") -> dict:
    """Kill ``kill`` of ``devices`` devices mid-run, as plain data.

    A seeded :class:`~repro.faults.FleetFaultSchedule` crashes devices
    in the middle of the offered stream, with outages long enough that
    evacuation and re-routing must actually happen.
    """
    from repro.faults.injector import FleetFaultConfig, FleetFaultSchedule
    from repro.fleet import FleetGateway, build_fleet, poisson_stream

    fleet = build_fleet(devices, mix="balanced")
    schedule = FleetFaultSchedule(
        [device.name for device in fleet],
        FleetFaultConfig(horizon_s=12.0, device_crashes=kill,
                         crash_duration_s=(8.0, 15.0)),
        seed=seed)
    gateway = FleetGateway(fleet, policy=policy, faults=schedule, mode=mode)
    report = gateway.run(poisson_stream(np.random.default_rng(seed), qps,
                                        num_requests, deadline_s=deadline_s))
    return {
        "devices": devices,
        "kill": kill,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "failed": report.failed,
        "lost": report.lost,
        "killed": report.device_crashes,
        "evacuated": report.evacuated,
        "rerouted": report.rerouted,
        "deadline_hit_rate": report.deadline_hit_rate,
        "p95_latency_s": report.latency_percentile(95),
        "report_sha": report_sha(report),
    }


def fleet_checks(points: dict) -> dict[str, bool]:
    """Every request reaches a terminal outcome despite the crashes, at
    least one kill actually fired (a chaos run without chaos proves
    nothing), and the scalar oracle reproduces the report."""
    return {
        "lost == 0": points["lost"] == 0,
        "killed >= 1": points["killed"] >= 1,
        "rerun_identical": points["rerun_identical"],
    }


def fleet_gate(**params) -> ChaosGate:
    """The fleet gate: one ``auto`` run, rerun on the scalar oracle."""
    points = run_fleet_chaos_study(**params)
    rerun = run_fleet_chaos_study(**params, mode="scalar")
    points["rerun_identical"] = rerun["report_sha"] == points["report_sha"]
    return _gate("fleet",
                 "Fleet chaos: seeded mid-run device kills with evacuation "
                 "and gateway re-routing", points, fleet_checks)


# ----------------------------------------------------------------------
# Overload survival (``repro chaos --overload``): 3x flash crowd into a
# flapping, thermally throttled fleet with brownout admission + hedging.
# ----------------------------------------------------------------------
def _fleet_capacity_qps(fleet, prompt_tokens: int,
                        output_tokens: int) -> float:
    """Closed-form aggregate request rate the fleet can sustain.

    Per device: a full batch of B requests turns around in one batched
    decode span plus B serialized prefills, so the sustained rate is
    ``B / (span + B * prefill)``.  Power-mode derating is inherent —
    each device's kernels price its own scaled SoC.
    """
    total = 0.0
    for device in fleet:
        profile = device.engine.profile
        kernels = device.engine.kernels
        batch = device.spec.max_batch_size
        span = kernels.decode_span_seconds(
            profile, prompt_tokens, output_tokens, batch=float(batch))
        prefill = kernels.prefill(profile, prompt_tokens).seconds
        total += batch / (span + batch * prefill)
    return total


def _overload_run(devices: int, overload_factor: float,
                  storm_requests: int, tail_requests: int,
                  prompt_tokens: int, output_tokens: int,
                  deadline_s: float, max_reroutes: int, seed: int,
                  mode: str = "auto"):
    """One seeded overload run; returns (report, schedule, storm_end)."""
    from repro.faults.injector import FleetFaultConfig, FleetFaultSchedule
    from repro.fleet import (
        BrownoutConfig,
        FleetGateway,
        FleetRequest,
        HedgeConfig,
        build_fleet,
    )

    # Heterogeneous fleet with quantized downgrade replicas so brownout
    # tier 2 has somewhere cheaper to steer.
    models = ("dsr1-qwen-1.5b", "dsr1-qwen-1.5b-awq-w4")
    capacity = _fleet_capacity_qps(
        build_fleet(devices, mix="balanced", models=models),
        prompt_tokens, output_tokens)
    storm_qps = overload_factor * capacity
    tail_qps = 0.25 * capacity

    rng = np.random.default_rng(seed)
    storm = poisson_arrivals(rng, storm_qps, storm_requests)
    storm_end = float(storm[-1])
    tail = poisson_arrivals(rng, tail_qps, tail_requests,
                            start_s=storm_end)
    arrivals = np.concatenate([storm, tail])

    names = [f"edge-{i:02d}" for i in range(devices)]
    schedule = FleetFaultSchedule(names, FleetFaultConfig(
        horizon_s=storm_end,
        device_crashes=0,
        brownouts=0,
        flapping_devices=2,
        flap_cycles=2,
        flap_down_s=(1.0, 2.5),
        flap_up_s=(2.0, 5.0),
        flap_window=(0.15, 0.5),
        thermal_throttles=1,
        thermal_mode="15W",
        thermal_duration_s=(0.5 * storm_end, 0.8 * storm_end),
    ), seed=seed)

    fleet = build_fleet(devices, mix="balanced", models=models,
                        faults=schedule)
    gateway = FleetGateway(
        fleet, policy="least-outstanding", faults=schedule, mode=mode,
        max_reroutes=max_reroutes,
        brownout=BrownoutConfig(
            downgrade_models=("dsr1-qwen-1.5b-awq-w4",)),
        hedge=HedgeConfig(min_age_s=0.4 * deadline_s, age_factor=1.3),
        seed=seed)
    stream = [
        FleetRequest(
            request=GenerationRequest(i, prompt_tokens, output_tokens),
            arrival_s=float(arrivals[i]),
            deadline_s=deadline_s,
        )
        for i in range(len(arrivals))
    ]
    report = gateway.run(stream)
    max_attempts = max(gateway._attempts.values(), default=0)
    return report, schedule, storm_end, capacity, storm_qps, max_attempts


def run_overload_points(seed: int = 0, devices: int = 4,
                        overload_factor: float = 3.2,
                        storm_requests: int = 140,
                        tail_requests: int = 30,
                        prompt_tokens: int = 96,
                        output_tokens: int = 128,
                        deadline_s: float = 20.0,
                        max_reroutes: int = 3,
                        mode: str = "auto") -> dict:
    """Pipeline producer: one overload run as a plain (picklable) dict.

    The storm phase offers ``overload_factor`` times the fleet's
    closed-form capacity while two devices flap through down/up cycles
    and one device is pinned to a 15W thermal cap; a post-storm trickle
    at a quarter of capacity lets the brownout controller walk back
    down the tier ladder so time-to-SLO-recovery is observable.  This
    is also the executor-identity probe the overload gate runs under
    both thread and process pipelines — it must stay a pure function of
    its arguments, returning only plain data.
    """
    report, schedule, storm_end, capacity, storm_qps, max_attempts = (
        _overload_run(devices, overload_factor, storm_requests,
                      tail_requests, prompt_tokens, output_tokens,
                      deadline_s, max_reroutes, seed, mode=mode))
    by_name = {d.name: d for d in report.devices}
    recovered = report.recovered_s
    return {
        "devices": devices,
        "capacity_qps": capacity,
        "storm_qps": storm_qps,
        "overload_factor": overload_factor,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "failed": report.failed,
        "lost": report.lost,
        "flapping_devices": len(schedule.flapping()),
        # Thermal episodes whose device actually ran through them
        # (delivery, not just scheduling).
        "thermal_delivered": sum(
            1 for event in schedule.thermal_events()
            if event.device in by_name
            and by_name[event.device].report.wallclock_s > event.start_s),
        "throttle_residency_s": sum(
            d.report.throttle_residency_s for d in report.devices),
        "breaker_opens": report.breaker_opens,
        "max_brownout_tier": report.max_brownout_tier,
        "budget_trims": report.budget_trims,
        "hedged": report.hedged,
        "hedge_wins": report.hedge_wins,
        "max_attempts": max_attempts,
        "max_reroutes": max_reroutes,
        "recovered_s": recovered,
        "storm_end_s": storm_end,
        "time_to_slo_recovery_s": (None if recovered is None
                                   else max(recovered - storm_end, 0.0)),
        "report_sha": report_sha(report),
    }


def overload_checks(points: dict) -> dict[str, bool]:
    """Conservation exact with ``failed`` bounded by the re-route cap;
    non-vacuous chaos (a true >=3x storm, >=2 flapping devices, >=1
    thermal throttle *delivered*); a brownout tier engaged and later
    recovered; byte-reproducible on the scalar oracle and across
    pipeline executors."""
    p = points
    return {
        "lost == 0": p["lost"] == 0,
        "offered == completed + shed + failed":
            p["offered"] == p["completed"] + p["shed"] + p["failed"],
        "max_attempts <= max_reroutes + 1":
            p["max_attempts"] <= p["max_reroutes"] + 1,
        "overload_factor >= 3": p["overload_factor"] >= 3.0,
        "flapping_devices >= 2": p["flapping_devices"] >= 2,
        "thermal_delivered >= 1": p["thermal_delivered"] >= 1,
        "throttle_residency_s > 0": p["throttle_residency_s"] > 0.0,
        "max_brownout_tier >= 1": p["max_brownout_tier"] >= 1,
        "recovered_s is not None": p["recovered_s"] is not None,
        "rerun_identical": p["rerun_identical"],
        "executor_identical": p["executor_identical"],
    }


def overload_gate(seed: int = 0, check_executors: bool = True,
                  **params) -> ChaosGate:
    """The overload gate over :func:`run_overload_points`.

    The ``auto`` run is repeated on the scalar oracle and (unless
    ``check_executors=False``) the ``fleet-overload`` artifact is
    re-rendered under thread and process pipelines.
    """
    points = run_overload_points(seed=seed, **params)
    rerun = run_overload_points(seed=seed, mode="scalar", **params)
    points = with_identity(points, rerun["report_sha"], "fleet-overload",
                           seed, check_executors)
    return _gate("overload",
                 "Overload survival: 3x flash crowd into a flapping fleet "
                 "with brownout admission, breakers, and hedging",
                 points, overload_checks)


def fleet_overload_table(points: dict | None = None, seed: int = 0) -> Table:
    """Format the overload producer's summary (the pipeline artifact)."""
    points = points if points is not None else run_overload_points(seed=seed)
    return points_table(
        "Fleet overload: flash crowd served through brownout admission, "
        "circuit breakers, and hedging", points,
        ("devices", "capacity_qps", "storm_qps", "offered", "completed",
         "shed", "failed", "lost", "flapping_devices", "breaker_opens",
         "max_brownout_tier", "budget_trims", "hedged", "recovered_s",
         "storm_end_s", "report_sha"))


def run_vector_equivalence_points(seed: int = 0, devices: int = 6,
                                  requests: int = 600,
                                  utilization: float = 0.6) -> dict:
    """Pipeline producer: scalar-vs-vector fleet byte-identity probe.

    The same paced single-stream round-robin fleet workload runs twice
    — once pinned to the scalar oracle, once under ``mode="auto"``
    (which must select the vector fast path) — and the canonical
    reports are compared byte-for-byte.  A fault-free fleet never moves
    a breaker, so the auto run genuinely exercises the merged-partition
    vector drain; pacing below closed-form capacity keeps its queues
    short.  Returns only plain data, and no wall clock, so the probe
    renders alike under thread and process pipelines and across reruns.
    """
    from repro.fleet import FleetGateway, build_fleet, poisson_stream

    def one_run(mode: str):
        fleet = build_fleet(devices, mix="balanced", max_batch_size=1)
        qps = utilization * _fleet_capacity_qps(fleet, 150, 192)
        gateway = FleetGateway(fleet, policy="round-robin", mode=mode)
        stream = poisson_stream(np.random.default_rng(seed), qps=qps,
                                num_requests=requests)
        return gateway.run(stream), gateway.last_mode, qps

    scalar_report, _, qps = one_run("scalar")
    auto_report, auto_mode, _ = one_run("auto")
    scalar_json = scalar_report.to_json()
    return {
        "devices": devices,
        "requests": requests,
        "qps": qps,
        "identical": scalar_json == auto_report.to_json(),
        "auto_mode": auto_mode,
        "completed": auto_report.completed,
        "lost": auto_report.lost,
        "report_sha": hashlib.sha256(scalar_json.encode()).hexdigest(),
    }


def vector_equivalence_table(points: dict | None = None,
                             seed: int = 0) -> Table:
    """Format the scalar/vector equivalence probe (pipeline artifact)."""
    points = (points if points is not None
              else run_vector_equivalence_points(seed=seed))
    table = Table(
        "Vector event-loop equivalence: paced round-robin fleet, scalar "
        "oracle vs batched-numpy fast path",
        ["Metric", "Value"],
    )
    table.add_row("devices", points["devices"])
    table.add_row("requests", points["requests"])
    table.add_row("offered rate (req/s)", points["qps"])
    table.add_row("auto picked mode", points["auto_mode"])
    table.add_row("reports byte-identical",
                  "yes" if points["identical"] else "NO")
    table.add_row("completed", points["completed"])
    table.add_row("lost", points["lost"])
    table.add_row("report sha", points["report_sha"][:16])
    return table


# ---------------------------------------------------------------------------
# Autoscale chaos: diurnal curve + flash crowd + crashes mid-drain/mid-wake
# ---------------------------------------------------------------------------

def _diurnal_crowd_stream(seed: int, base_qps: float, peak_qps: float,
                          period_s: float, diurnal_requests: int,
                          crowd_start_s: float, crowd_qps: float,
                          crowd_requests: int, prompt_tokens: int,
                          output_tokens: int, deadline_s: float):
    """The study's seeded arrival stream: a diurnal curve with a flash
    crowd burst superposed at its second trough."""
    from repro.fleet import FleetRequest
    from repro.workloads.arrivals import diurnal_arrivals

    rng = np.random.default_rng(seed)
    diurnal = diurnal_arrivals(rng, base_qps, peak_qps, period_s,
                               diurnal_requests)
    crowd = poisson_arrivals(rng, crowd_qps, crowd_requests,
                             start_s=crowd_start_s)
    arrivals = np.sort(np.concatenate([diurnal, crowd]), kind="stable")
    return [
        FleetRequest(
            request=GenerationRequest(i, prompt_tokens, output_tokens),
            arrival_s=float(arrivals[i]),
            deadline_s=deadline_s,
        )
        for i in range(len(arrivals))
    ]


def _lifecycle_window(transitions, state, after_s: float):
    """First completed interval a device spends in ``state`` entered
    strictly after ``after_s``: returns (device, enter_s, exit_s) or
    None.  ``transitions`` is the controller's chronological log."""
    open_since: dict[str, float] = {}
    for t, name, src, dst in transitions:
        if dst is state and t > after_s:
            open_since[name] = t
        elif src is state and name in open_since:
            return name, open_since[name], t
    return None


def _autoscale_run(devices: int, base_frac: float, peak_frac: float,
                   period_s: float, diurnal_requests: int,
                   crowd_factor: float, crowd_requests: int,
                   prompt_tokens: int, output_tokens: int,
                   deadline_s: float, seed: int, *,
                   crash_events=(), autoscaled: bool = True,
                   mode: str = "auto"):
    """One seeded diurnal+crowd fleet run; autoscaled or always-on.

    Returns ``(report, gateway, params)`` where ``params`` carries the
    derived rates.  ``crash_events`` are explicit ``(device, start_s,
    duration_s)`` crashes delivered through a
    :class:`~repro.faults.injector.FleetFaultSchedule` built with zero
    seeded draws, so the chaos is exactly the named events.
    """
    from repro.faults.injector import (
        DeviceFault,
        FleetFaultConfig,
        FleetFaultSchedule,
    )
    from repro.fleet import (
        AutoscaleConfig,
        BrownoutConfig,
        FleetGateway,
        build_fleet,
    )

    capacity = _fleet_capacity_qps(
        build_fleet(devices, mix="balanced", max_batch_size=4),
        prompt_tokens, output_tokens)
    base_qps = base_frac * capacity
    peak_qps = peak_frac * capacity
    crowd_qps = crowd_factor * capacity
    crowd_start_s = period_s  # the second trough: the fleet is asleep
    stream = _diurnal_crowd_stream(
        seed, base_qps, peak_qps, period_s, diurnal_requests,
        crowd_start_s, crowd_qps, crowd_requests, prompt_tokens,
        output_tokens, deadline_s)

    names = [f"edge-{i:02d}" for i in range(devices)]
    schedule = None
    if crash_events:
        schedule = FleetFaultSchedule(
            names,
            FleetFaultConfig(horizon_s=max(2 * period_s, 1.0),
                             device_crashes=0),
            seed=seed,
            events=[DeviceFault(device, "crash", start, duration)
                    for device, start, duration in crash_events])
    fleet = build_fleet(devices, mix="balanced", max_batch_size=4,
                        faults=schedule)
    # Brownout engages later than in the overload study: with the
    # autoscaler armed, transient pressure during a cold-start window is
    # expected and sheds would double-count what a wake already absorbs.
    # The always-on baseline uses the identical ladder for a fair
    # attainment comparison.
    gateway = FleetGateway(
        fleet, policy="least-outstanding", faults=schedule,
        brownout=BrownoutConfig(enter_pressure=(4.0, 8.0, 12.0),
                                exit_pressure=(3.0, 6.0, 9.0)),
        autoscale=AutoscaleConfig() if autoscaled else None,
        seed=seed, mode=mode)
    report = gateway.run(stream)
    params = {
        "capacity_qps": capacity,
        "base_qps": base_qps,
        "peak_qps": peak_qps,
        "crowd_qps": crowd_qps,
        "crowd_start_s": crowd_start_s,
    }
    return report, gateway, params


def _autoscale_crash_plan(run_args, seed: int):
    """Find crash times targeting a DRAINING and a WAKING device.

    Deterministic multi-pass targeting: a fault-free pass locates the
    first drain window (crash one lands at its midpoint); a second
    pass *with* that crash locates the first wake window after it
    (crash two).  Because every pass shares the dynamics up to the
    next injected crash, the windows found are exactly where the final
    run's devices will be — the crashes land mid-DRAINING and
    mid-WAKING by construction, not by luck.
    """
    from repro.fleet import LifecycleState

    crash_duration_s = 15.0
    events = []
    _, gateway, _ = _autoscale_run(*run_args, seed, crash_events=())
    drain = _lifecycle_window(gateway.autoscale.transitions,
                              LifecycleState.DRAINING, after_s=0.0)
    if drain is not None:
        name, enter, exit_ = drain
        events.append((name, enter + 0.5 * (exit_ - enter),
                       crash_duration_s))
        _, gateway, _ = _autoscale_run(*run_args, seed,
                                       crash_events=tuple(events))
    wake = _lifecycle_window(gateway.autoscale.transitions,
                             LifecycleState.WAKING,
                             after_s=events[-1][1] if events else 0.0)
    if wake is not None:
        name, enter, exit_ = wake
        events.append((name, enter + 0.5 * (exit_ - enter),
                       crash_duration_s))
    return tuple(events)


#: The committed study shape: 6 balanced devices riding two diurnal
#: periods with a flash crowd at the second trough.
_AUTOSCALE_ARGS = dict(devices=6, base_frac=0.08, peak_frac=0.55,
                       period_s=100.0, diurnal_requests=320,
                       crowd_factor=1.8, crowd_requests=70,
                       prompt_tokens=96, output_tokens=96,
                       deadline_s=45.0)


def _autoscale_args(overrides: dict) -> tuple:
    """:func:`_autoscale_run`'s positional arguments before ``seed``."""
    args = {**_AUTOSCALE_ARGS, **overrides}
    return tuple(args[key] for key in _AUTOSCALE_ARGS)


def run_autoscale_points(seed: int = 0, **overrides) -> dict:
    """Pipeline producer: one targeted autoscale run as a plain dict.

    The fleet sleeps through the opening trough (graceful drains), the
    flash crowd at the second trough forces cold wakes, and two
    targeted crashes land mid-DRAINING and mid-WAKING (see
    :func:`_autoscale_crash_plan`).  This is also the executor-identity
    probe the autoscale gate runs under both thread and process
    pipelines — a pure function of its arguments returning only plain
    data (the report sha embeds the full canonical fleet report).
    """
    from repro.fleet import LifecycleState

    run_args = _autoscale_args(overrides)
    events = _autoscale_crash_plan(run_args, seed)
    report, gateway, params = _autoscale_run(*run_args, seed,
                                             crash_events=events)
    ctrl = gateway.autoscale
    scale = report.autoscale
    wakes_after_crowd = sum(
        1 for t, _, src, dst in ctrl.transitions
        if src is LifecycleState.WAKING and dst is LifecycleState.ACTIVE
        and t >= params["crowd_start_s"])
    return {
        "devices": run_args[0],
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "failed": report.failed,
        "lost": report.lost,
        "wakes": scale.wakes,
        "wakes_after_crowd": wakes_after_crowd,
        "sleeps": scale.sleeps,
        "drains_completed": scale.drains_completed,
        "drain_evacuations": scale.drain_evacuations,
        "dvfs_switches": scale.dvfs_switches,
        "crashes_draining": scale.crashes_draining,
        "crashes_waking": scale.crashes_waking,
        "max_wake_cycles": max(
            (ctrl.wake_cycles(n) for n in ctrl.names), default=0),
        "cycle_bound": ctrl.max_cycles_bound(report.wallclock_s),
        "max_brownout_tier": report.max_brownout_tier,
        "attainment": report.deadline_hit_rate,
        # Serving energy plus the idle/sleep/wake/DVFS floor.
        "autoscaled_energy_j": (report.energy_joules + scale.idle_energy_j
                                + scale.sleep_energy_j + scale.wake_energy_j
                                + scale.dvfs_energy_j),
        "crash_events": [list(e) for e in events],
        "report_sha": report_sha(report),
        **params,
    }


def autoscale_checks(points: dict) -> dict[str, bool]:
    """Conservation exact through every lifecycle edge; non-vacuous
    chaos (>=1 wake absorbing the flash crowd, >=2 graceful drains,
    >=1 crash against a DRAINING or WAKING device); flapping within
    the hysteresis bound; strictly less energy than always-on at
    equal-or-better attainment; byte-reproducible on the scalar oracle
    and across pipeline executors."""
    p = points
    return {
        "lost == 0": p["lost"] == 0,
        "offered == completed + shed + failed":
            p["offered"] == p["completed"] + p["shed"] + p["failed"],
        "wakes >= 1": p["wakes"] >= 1,
        "wakes_after_crowd >= 1": p["wakes_after_crowd"] >= 1,
        "drains_completed >= 2": p["drains_completed"] >= 2,
        "crashes_draining + crashes_waking >= 1":
            p["crashes_draining"] + p["crashes_waking"] >= 1,
        "max_wake_cycles <= cycle_bound":
            p["max_wake_cycles"] <= p["cycle_bound"],
        "autoscaled_energy_j < always_on_energy_j":
            p["autoscaled_energy_j"] < p["always_on_energy_j"],
        "attainment >= always_on_attainment":
            p["attainment"] >= p["always_on_attainment"],
        "rerun_identical": p["rerun_identical"],
        "executor_identical": p["executor_identical"],
    }


def autoscale_gate(seed: int = 0, check_executors: bool = True,
                   **overrides) -> ChaosGate:
    """The autoscale gate over :func:`run_autoscale_points`.

    The identical stream and crash schedule are served always-on for
    the energy comparison, the autoscaled run is repeated on the scalar
    oracle, and (unless ``check_executors=False``) the
    ``fleet-autoscale`` artifact is re-rendered under thread and
    process pipelines.
    """
    points = run_autoscale_points(seed=seed, **overrides)
    run_args = _autoscale_args(overrides)
    events = tuple(tuple(e) for e in points["crash_events"])
    rerun, _, _ = _autoscale_run(*run_args, seed, crash_events=events,
                                 mode="scalar")
    always, always_gateway, _ = _autoscale_run(
        *run_args, seed, crash_events=events, autoscaled=False)
    idle_w = sum(float(d.engine.power.idle_power())
                 for d in always_gateway.devices)
    always_energy = always.energy_joules + idle_w * always.wallclock_s
    points = with_identity(
        {**points,
         "always_on_attainment": always.deadline_hit_rate,
         "always_on_energy_j": always_energy,
         "energy_saved_j": always_energy - points["autoscaled_energy_j"]},
        report_sha(rerun), "fleet-autoscale", seed, check_executors)
    return _gate("autoscale",
                 "Autoscale chaos: diurnal + flash crowd with crashes "
                 "landed mid-drain and mid-wake", points, autoscale_checks)


def fleet_autoscale_table(points: dict | None = None,
                          seed: int = 0) -> Table:
    """Format the autoscale producer's summary (the pipeline artifact)."""
    points = points if points is not None else run_autoscale_points(seed=seed)
    return points_table(
        "Fleet autoscale: diurnal curve and flash crowd served through "
        "the device lifecycle controller", points,
        ("devices", "capacity_qps", "base_qps", "peak_qps", "crowd_qps",
         "crowd_start_s", "offered", "completed", "shed", "failed", "lost",
         "wakes", "wakes_after_crowd", "sleeps", "drains_completed",
         "drain_evacuations", "dvfs_switches", "crashes_draining",
         "crashes_waking", "max_wake_cycles", "cycle_bound",
         "max_brownout_tier", "report_sha"))
