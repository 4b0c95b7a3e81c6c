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

The second half of the module turns the same fault model loose on the
*artifact pipeline itself* (``repro chaos --pipeline``): seeded
transient producer exceptions and cache corruption are injected into a
supervised smoke-tier sweep, and :class:`PipelineChaosResult` reports
the recovery rate, wasted-compute seconds, and whether a crashed run
resumed from its journal recomputes only uncommitted artifacts while
producing byte-identical outputs.

Everything is deterministic given ``seed``: the same chaos replays
bit-for-bit, which is what makes the sweep usable as a regression gate.
"""

from __future__ import annotations

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


# ----------------------------------------------------------------------
# pipeline chaos: supervised sweep under injected producer faults
# ----------------------------------------------------------------------

#: Cheap smoke-tier artifacts sharing the tradeoff grid — enough DAG
#: structure to exercise quarantine/retry without a full 45-way sweep.
PIPELINE_CHAOS_ARTIFACTS = ("fig6", "fig7", "fig8", "table10", "table11",
                            "optimizations", "power-modes")


@dataclass(frozen=True)
class PipelineChaosResult:
    """Outcome of one pipeline chaos + crash/resume exercise."""

    artifacts: int
    #: Chaos run: artifacts completed / quarantined.
    completed: int
    failed: int
    injected_faults: int
    retries: int
    recovered_producers: int
    wasted_seconds: float
    disk_corruptions: int
    #: Chaos outputs rendered byte-identical to the fault-free run.
    chaos_identical: bool
    #: Crash/resume exercise: artifacts committed before the simulated
    #: crash, artifacts recomputed after resume, and output fidelity.
    committed_before_crash: int
    resume_recomputed: int
    resume_identical: bool

    @property
    def recovery_ok(self) -> bool:
        """The pass/fail gate the chaos smoke job enforces.

        ``injected_faults > 0`` keeps the gate honest: a sweep whose
        seeded fault draws never fire proves nothing about recovery.
        """
        return (self.failed == 0 and self.chaos_identical
                and self.injected_faults > 0
                and self.resume_identical
                and self.resume_recomputed
                == self.artifacts - self.committed_before_crash)


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
                             ) -> PipelineChaosResult:
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
    return PipelineChaosResult(
        artifacts=len(artifact_ids),
        completed=len(chaos.outputs),
        failed=len(chaos.report.failed),
        injected_faults=sup.injected_faults,
        retries=sup.retries,
        recovered_producers=sup.recovered,
        wasted_seconds=sup.wasted_seconds,
        disk_corruptions=disk_corruptions,
        chaos_identical=chaos_identical,
        committed_before_crash=committed,
        resume_recomputed=resume_recomputed,
        resume_identical=resume_identical,
    )


def pipeline_chaos_table(result: PipelineChaosResult | None = None,
                         seed: int = 0) -> Table:
    """Format the pipeline chaos + crash/resume exercise."""
    result = (result if result is not None
              else run_pipeline_chaos_study(seed=seed))
    table = Table(
        "Pipeline chaos: supervised smoke sweep under injected producer "
        "faults, then a crash/resume cycle",
        ["Metric", "Value"],
    )
    table.add_row("artifacts", result.artifacts)
    table.add_row("completed under chaos", result.completed)
    table.add_row("quarantined", result.failed)
    table.add_row("injected faults", result.injected_faults)
    table.add_row("retries", result.retries)
    table.add_row("recovered producers", result.recovered_producers)
    table.add_row("wasted compute (s)", result.wasted_seconds)
    table.add_row("disk corruptions detected", result.disk_corruptions)
    table.add_row("chaos outputs identical",
                  "yes" if result.chaos_identical else "NO")
    table.add_row("committed before crash", result.committed_before_crash)
    table.add_row("recomputed after resume", result.resume_recomputed)
    table.add_row("resume outputs identical",
                  "yes" if result.resume_identical else "NO")
    return table


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
@dataclass(frozen=True)
class FleetChaosResult:
    """Outcome of one fleet kill-and-recover exercise."""

    devices: int
    kill: int
    offered: int
    completed: int
    shed: int
    failed: int
    lost: int
    #: Crash events actually delivered (gate non-vacuity).
    killed: int
    evacuated: int
    rerouted: int
    deadline_hit_rate: float
    p95_latency_s: float
    #: Two independent runs rendered byte-identical canonical JSON.
    rerun_identical: bool

    @property
    def recovery_ok(self) -> bool:
        """The pass/fail gate ``make chaos-fleet`` enforces.

        Every offered request must reach a terminal outcome despite the
        crashes (``lost == 0``), at least one scheduled kill must have
        actually fired (a chaos run without chaos proves nothing), and
        an independent rerun must reproduce the fleet report
        byte-for-byte.
        """
        return (self.lost == 0 and self.killed >= 1
                and self.rerun_identical)


def run_fleet_chaos_study(devices: int = 4, kill: int = 2,
                          policy: str = "latency-aware",
                          qps: float = 8.0, num_requests: int = 60,
                          deadline_s: float = 30.0,
                          seed: int = 0) -> FleetChaosResult:
    """Kill ``kill`` of ``devices`` devices mid-run; verify recovery.

    A seeded :class:`~repro.faults.FleetFaultSchedule` crashes devices
    in the middle of the offered stream (outages long enough that
    evacuation and re-routing must actually happen); the run is then
    repeated from scratch and the two canonical fleet reports compared
    byte-for-byte.  The first run uses ``mode="auto"`` and the rerun
    pins ``mode="scalar"``, so the byte-identity check doubles as the
    scalar/vector mode-equivalence gate at no extra runtime.
    """
    from repro.faults.injector import FleetFaultConfig, FleetFaultSchedule
    from repro.fleet import FleetGateway, build_fleet, poisson_stream

    def one_run(mode: str) -> "object":
        fleet = build_fleet(devices, mix="balanced")
        schedule = FleetFaultSchedule(
            [device.name for device in fleet],
            FleetFaultConfig(horizon_s=12.0, device_crashes=kill,
                             crash_duration_s=(8.0, 15.0)),
            seed=seed)
        gateway = FleetGateway(fleet, policy=policy, faults=schedule,
                               mode=mode)
        stream = poisson_stream(np.random.default_rng(seed), qps,
                                num_requests, deadline_s=deadline_s)
        return gateway.run(stream)

    first = one_run("auto")
    second = one_run("scalar")
    return FleetChaosResult(
        devices=devices,
        kill=kill,
        offered=first.offered,
        completed=first.completed,
        shed=first.shed,
        failed=first.failed,
        lost=first.lost,
        killed=first.device_crashes,
        evacuated=first.evacuated,
        rerouted=first.rerouted,
        deadline_hit_rate=first.deadline_hit_rate,
        p95_latency_s=first.latency_percentile(95),
        rerun_identical=first.to_json() == second.to_json(),
    )


# ----------------------------------------------------------------------
# Overload survival (``repro chaos --overload``): 3x flash crowd into a
# flapping, thermally throttled fleet with brownout admission + hedging.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OverloadChaosResult:
    """Outcome of one overload-survival exercise."""

    devices: int
    #: Closed-form aggregate service capacity of the fleet (req/s).
    capacity_qps: float
    storm_qps: float
    overload_factor: float
    offered: int
    completed: int
    shed: int
    failed: int
    lost: int
    #: Devices with at least one flap cycle in the schedule.
    flapping_devices: int
    #: Thermal power-mode-cap episodes whose device actually ran
    #: through them (delivery, not just scheduling).
    thermal_delivered: int
    #: Fleet wallclock spent at derated clocks (s).
    throttle_residency_s: float
    breaker_opens: int
    max_brownout_tier: int
    budget_trims: int
    hedged: int
    hedge_wins: int
    #: Deepest per-request evacuation count observed.
    max_attempts: int
    max_reroutes: int
    #: Last storm arrival (the flash crowd's end).
    storm_end_s: float
    #: Brownout controller's last return to tier 0 (None: never
    #: degraded or never recovered).
    recovered_s: float | None
    #: Two independent same-seed runs rendered identical JSON.
    rerun_identical: bool
    #: Thread- and process-executor pipeline runs agreed on the sha.
    executor_identical: bool
    #: sha256 of the canonical fleet report.
    report_sha: str

    @property
    def time_to_slo_recovery_s(self) -> float | None:
        """Seconds after the storm until service returned to tier 0."""
        if self.recovered_s is None:
            return None
        return max(self.recovered_s - self.storm_end_s, 0.0)

    @property
    def survival_ok(self) -> bool:
        """The pass/fail gate ``repro chaos --overload`` enforces.

        Conservation must hold exactly (``lost == 0``) with ``failed``
        bounded by the re-route retry cap; the chaos must be
        non-vacuous (a true >=3x storm, >=2 flapping devices, >=1
        thermal throttle *delivered*); at least one brownout tier must
        have engaged and later recovered; and the run must be
        byte-reproducible across reruns and pipeline executors.
        """
        return (self.lost == 0
                and self.offered == (self.completed + self.shed
                                     + self.failed)
                and self.max_attempts <= self.max_reroutes + 1
                and self.overload_factor >= 3.0
                and self.flapping_devices >= 2
                and self.thermal_delivered >= 1
                and self.throttle_residency_s > 0.0
                and self.max_brownout_tier >= 1
                and self.recovered_s is not None
                and self.rerun_identical
                and self.executor_identical)


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


def run_overload_chaos_study(devices: int = 4,
                             overload_factor: float = 3.2,
                             storm_requests: int = 140,
                             tail_requests: int = 30,
                             prompt_tokens: int = 96,
                             output_tokens: int = 128,
                             deadline_s: float = 20.0,
                             max_reroutes: int = 3,
                             seed: int = 0,
                             check_executors: bool = True,
                             ) -> OverloadChaosResult:
    """Drive a 3x-capacity flash crowd into a flapping, throttled fleet.

    The storm phase offers ``overload_factor`` times the fleet's
    closed-form capacity while two devices flap through down/up cycles
    and one device is pinned to a 15W thermal cap; a post-storm trickle
    at a quarter of capacity lets the brownout controller walk back
    down the tier ladder so time-to-SLO-recovery is observable.  The
    run is repeated from scratch for byte-identity (the first run in
    ``mode="auto"``, the rerun pinned to ``mode="scalar"`` so the check
    doubles as the scalar/vector mode-equivalence gate), and (unless
    ``check_executors=False``) re-executed through the artifact
    pipeline under both thread and process executors, which must agree
    on the report sha.
    """
    import hashlib

    args = (devices, overload_factor, storm_requests, tail_requests,
            prompt_tokens, output_tokens, deadline_s, max_reroutes, seed)
    report, schedule, storm_end, capacity, storm_qps, max_attempts = (
        _overload_run(*args, mode="auto"))
    report2 = _overload_run(*args, mode="scalar")[0]
    sha = hashlib.sha256(report.to_json().encode()).hexdigest()
    rerun_identical = report2.to_json() == report.to_json()

    executor_identical = True
    if check_executors:
        # Function-level import: the registry imports this module.
        from repro.experiments.runner import executors_agree
        executor_identical = executors_agree("fleet-overload", seed)

    by_name = {d.name: d for d in report.devices}
    thermal_delivered = sum(
        1 for event in schedule.thermal_events()
        if event.device in by_name
        and by_name[event.device].report.wallclock_s > event.start_s)
    return OverloadChaosResult(
        devices=devices,
        capacity_qps=capacity,
        storm_qps=storm_qps,
        overload_factor=overload_factor,
        offered=report.offered,
        completed=report.completed,
        shed=report.shed,
        failed=report.failed,
        lost=report.lost,
        flapping_devices=len(schedule.flapping()),
        thermal_delivered=thermal_delivered,
        throttle_residency_s=sum(
            d.report.throttle_residency_s for d in report.devices),
        breaker_opens=report.breaker_opens,
        max_brownout_tier=report.max_brownout_tier,
        budget_trims=report.budget_trims,
        hedged=report.hedged,
        hedge_wins=report.hedge_wins,
        max_attempts=max_attempts,
        max_reroutes=max_reroutes,
        storm_end_s=storm_end,
        recovered_s=report.recovered_s,
        rerun_identical=rerun_identical,
        executor_identical=executor_identical,
        report_sha=sha,
    )


def run_overload_points(seed: int = 0, devices: int = 4,
                        overload_factor: float = 3.2,
                        storm_requests: int = 140,
                        tail_requests: int = 30,
                        prompt_tokens: int = 96,
                        output_tokens: int = 128,
                        deadline_s: float = 20.0,
                        max_reroutes: int = 3) -> dict:
    """Pipeline producer: one overload run as a plain (picklable) dict.

    This is the executor-identity probe the overload gate runs under
    both thread and process pipelines — it must stay a pure function of
    its arguments, returning only plain data.
    """
    import hashlib

    report, schedule, storm_end, capacity, storm_qps, max_attempts = (
        _overload_run(devices, overload_factor, storm_requests,
                      tail_requests, prompt_tokens, output_tokens,
                      deadline_s, max_reroutes, seed))
    return {
        "devices": devices,
        "capacity_qps": capacity,
        "storm_qps": storm_qps,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "failed": report.failed,
        "lost": report.lost,
        "flapping_devices": len(schedule.flapping()),
        "breaker_opens": report.breaker_opens,
        "max_brownout_tier": report.max_brownout_tier,
        "budget_trims": report.budget_trims,
        "hedged": report.hedged,
        "recovered_s": report.recovered_s,
        "storm_end_s": storm_end,
        "report_sha": hashlib.sha256(
            report.to_json().encode()).hexdigest(),
    }


def fleet_overload_table(points: dict | None = None, seed: int = 0) -> Table:
    """Format the overload producer's summary (the pipeline artifact)."""
    points = points if points is not None else run_overload_points(seed=seed)
    table = Table(
        "Fleet overload: flash crowd served through brownout admission, "
        "circuit breakers, and hedging",
        ["Metric", "Value"],
    )
    for key in ("devices", "capacity_qps", "storm_qps", "offered",
                "completed", "shed", "failed", "lost", "flapping_devices",
                "breaker_opens", "max_brownout_tier", "budget_trims",
                "hedged", "recovered_s", "storm_end_s", "report_sha"):
        value = points[key]
        table.add_row(key, value if value is not None else "never")
    return table


def run_vector_equivalence_points(seed: int = 0, devices: int = 6,
                                  requests: int = 600,
                                  utilization: float = 0.6) -> dict:
    """Pipeline producer: scalar-vs-vector fleet byte-identity probe.

    The same paced single-stream round-robin fleet workload runs twice
    — once pinned to the scalar oracle, once under ``mode="auto"``
    (which must select the vector fast path) — and the canonical
    reports are compared byte-for-byte.  Pacing below closed-form
    capacity keeps every latency under the breaker spike threshold, so
    the auto run genuinely exercises the merged-partition vector drain
    rather than passing vacuously through a fallback.  Returns only
    plain data, so the probe runs under both thread and process
    pipelines.
    """
    import hashlib
    import time

    from repro.fleet import FleetGateway, build_fleet, poisson_stream

    def one_run(mode: str):
        fleet = build_fleet(devices, mix="balanced", max_batch_size=1)
        qps = utilization * _fleet_capacity_qps(fleet, 150, 192)
        gateway = FleetGateway(fleet, policy="round-robin", mode=mode)
        stream = poisson_stream(np.random.default_rng(seed), qps=qps,
                                num_requests=requests)
        start = time.perf_counter()
        report = gateway.run(stream)
        return report, gateway.last_mode, time.perf_counter() - start, qps

    scalar_report, _, scalar_s, qps = one_run("scalar")
    auto_report, auto_mode, vector_s, _ = one_run("auto")
    scalar_json = scalar_report.to_json()
    return {
        "devices": devices,
        "requests": requests,
        "qps": qps,
        "identical": scalar_json == auto_report.to_json(),
        "auto_mode": auto_mode,
        "completed": auto_report.completed,
        "lost": auto_report.lost,
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "speedup_x": scalar_s / vector_s if vector_s > 0 else float("inf"),
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
    table.add_row("scalar wall (s)", points["scalar_s"])
    table.add_row("vector wall (s)", points["vector_s"])
    table.add_row("speedup (x)", points["speedup_x"])
    table.add_row("report sha", points["report_sha"][:16])
    return table


def overload_chaos_table(result: OverloadChaosResult | None = None,
                         seed: int = 0) -> Table:
    """Format the overload-survival exercise."""
    result = (result if result is not None
              else run_overload_chaos_study(seed=seed))
    table = Table(
        "Overload survival: 3x flash crowd into a flapping fleet with "
        "brownout admission, breakers, and hedging",
        ["Metric", "Value"],
    )
    table.add_row("devices", result.devices)
    table.add_row("fleet capacity (req/s)", result.capacity_qps)
    table.add_row("storm rate (req/s)", result.storm_qps)
    table.add_row("overload factor", result.overload_factor)
    table.add_row("offered", result.offered)
    table.add_row("completed", result.completed)
    table.add_row("shed / failed", f"{result.shed} / {result.failed}")
    table.add_row("lost", result.lost)
    table.add_row("flapping devices", result.flapping_devices)
    table.add_row("thermal throttles delivered", result.thermal_delivered)
    table.add_row("throttle residency (s)", result.throttle_residency_s)
    table.add_row("breaker opens", result.breaker_opens)
    table.add_row("max brownout tier", result.max_brownout_tier)
    table.add_row("budget trims", result.budget_trims)
    table.add_row("hedged / wins", f"{result.hedged} / {result.hedge_wins}")
    table.add_row("max evacuations per request",
                  f"{result.max_attempts} (cap {result.max_reroutes})")
    recovery = result.time_to_slo_recovery_s
    table.add_row("time to SLO recovery (s)",
                  recovery if recovery is not None else "never")
    table.add_row("rerun byte-identical",
                  "yes" if result.rerun_identical else "NO")
    table.add_row("thread/process sha identical",
                  "yes" if result.executor_identical else "NO")
    table.add_row("report sha", result.report_sha[:16])
    return table


def fleet_chaos_table(result: FleetChaosResult | None = None,
                      seed: int = 0) -> Table:
    """Format the fleet kill-and-recover exercise."""
    result = (result if result is not None
              else run_fleet_chaos_study(seed=seed))
    table = Table(
        "Fleet chaos: seeded mid-run device kills with evacuation and "
        "gateway re-routing",
        ["Metric", "Value"],
    )
    table.add_row("devices", result.devices)
    table.add_row("kills scheduled", result.kill)
    table.add_row("kills delivered", result.killed)
    table.add_row("offered", result.offered)
    table.add_row("completed", result.completed)
    table.add_row("shed / failed", f"{result.shed} / {result.failed}")
    table.add_row("lost", result.lost)
    table.add_row("evacuated", result.evacuated)
    table.add_row("rerouted", result.rerouted)
    table.add_row("deadline hit rate (%)",
                  result.deadline_hit_rate * 100.0)
    table.add_row("p95 latency (s)", result.p95_latency_s)
    table.add_row("rerun byte-identical",
                  "yes" if result.rerun_identical else "NO")
    return table


# ---------------------------------------------------------------------------
# Autoscale chaos: diurnal curve + flash crowd + crashes mid-drain/mid-wake
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutoscaleChaosResult:
    """Outcome of one autoscale lifecycle chaos exercise."""

    devices: int
    capacity_qps: float
    base_qps: float
    peak_qps: float
    crowd_qps: float
    crowd_start_s: float
    offered: int
    completed: int
    shed: int
    failed: int
    lost: int
    wakes: int
    #: Wakes completing after the flash crowd started (the absorption
    #: evidence the gate requires).
    wakes_after_crowd: int
    sleeps: int
    drains_completed: int
    drain_evacuations: int
    dvfs_switches: int
    crashes_draining: int
    crashes_waking: int
    #: Deepest per-device sleep/wake cycle count vs the hysteresis
    #: bound the controller's holds guarantee.
    max_wake_cycles: int
    cycle_bound: int
    max_brownout_tier: int
    attainment: float
    always_on_attainment: float
    #: Serving energy + idle/sleep/wake/DVFS floor, autoscaled.
    autoscaled_energy_j: float
    #: Serving energy + always-on idle floor for the identical stream.
    always_on_energy_j: float
    energy_saved_j: float
    #: Two independent same-seed runs rendered identical JSON.
    rerun_identical: bool
    #: Thread- and process-executor pipeline runs agreed on the sha.
    executor_identical: bool
    #: sha256 of the canonical autoscaled fleet report.
    report_sha: str

    @property
    def autoscale_ok(self) -> bool:
        """The pass/fail gate ``repro chaos --autoscale`` enforces.

        Conservation must hold exactly through every lifecycle edge
        (``lost == 0``); the chaos must be non-vacuous (>=1 wake
        absorbing the flash crowd, >=2 graceful drains, >=1 crash
        delivered against a DRAINING or WAKING device); flapping stays
        within the hysteresis bound; the autoscaled fleet spends
        strictly less energy than always-on at equal-or-better SLO
        attainment; and the run is byte-reproducible across reruns and
        pipeline executors.
        """
        return (self.lost == 0
                and self.offered == (self.completed + self.shed
                                     + self.failed)
                and self.wakes >= 1
                and self.wakes_after_crowd >= 1
                and self.drains_completed >= 2
                and (self.crashes_draining + self.crashes_waking) >= 1
                and self.max_wake_cycles <= self.cycle_bound
                and self.autoscaled_energy_j < self.always_on_energy_j
                and self.attainment >= self.always_on_attainment
                and self.rerun_identical
                and self.executor_identical)


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
                   crash_events=(), autoscaled: bool = True):
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
        seed=seed)
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


def run_autoscale_points(seed: int = 0, **overrides) -> dict:
    """Pipeline producer: one targeted autoscale run as a plain dict.

    This is the executor-identity probe the autoscale gate runs under
    both thread and process pipelines — a pure function of its
    arguments returning only plain data (the report sha embeds the
    full canonical fleet report).
    """
    import hashlib

    from repro.fleet import LifecycleState

    args = {**_AUTOSCALE_ARGS, **overrides}
    run_args = (args["devices"], args["base_frac"], args["peak_frac"],
                args["period_s"], args["diurnal_requests"],
                args["crowd_factor"], args["crowd_requests"],
                args["prompt_tokens"], args["output_tokens"],
                args["deadline_s"])
    events = _autoscale_crash_plan(run_args, seed)
    report, gateway, params = _autoscale_run(*run_args, seed,
                                             crash_events=events)
    ctrl = gateway.autoscale
    end_s = report.wallclock_s
    scale = report.autoscale
    wakes_after_crowd = sum(
        1 for t, _, src, dst in ctrl.transitions
        if src is LifecycleState.WAKING and dst is LifecycleState.ACTIVE
        and t >= params["crowd_start_s"])
    return {
        "devices": args["devices"],
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
        "cycle_bound": ctrl.max_cycles_bound(end_s),
        "max_brownout_tier": report.max_brownout_tier,
        "crash_events": [list(e) for e in events],
        "report_sha": hashlib.sha256(
            report.to_json().encode()).hexdigest(),
        **params,
    }


def run_autoscale_chaos_study(seed: int = 0, check_executors: bool = True,
                              **overrides) -> AutoscaleChaosResult:
    """Ride a diurnal curve and flash crowd on an autoscaled fleet.

    The fleet sleeps through the opening trough (graceful drains), the
    flash crowd at the second trough forces cold wakes, and two
    targeted crashes land mid-DRAINING and mid-WAKING (see
    :func:`_autoscale_crash_plan`).  The identical stream and crash
    schedule are then served always-on for the energy comparison, the
    autoscaled run is repeated from scratch for byte-identity, and
    (unless ``check_executors=False``) the run is re-executed through
    the artifact pipeline under thread and process executors, which
    must agree on the report sha.
    """
    import hashlib

    points = run_autoscale_points(seed=seed, **overrides)
    args = {**_AUTOSCALE_ARGS, **overrides}
    run_args = (args["devices"], args["base_frac"], args["peak_frac"],
                args["period_s"], args["diurnal_requests"],
                args["crowd_factor"], args["crowd_requests"],
                args["prompt_tokens"], args["output_tokens"],
                args["deadline_s"])
    events = tuple(tuple(e) for e in points["crash_events"])
    report, gateway, _ = _autoscale_run(*run_args, seed,
                                        crash_events=events)
    rerun_identical = (hashlib.sha256(report.to_json().encode())
                       .hexdigest() == points["report_sha"])

    always_report, always_gateway, _ = _autoscale_run(
        *run_args, seed, crash_events=events, autoscaled=False)
    scale = report.autoscale
    autoscaled_energy = (report.energy_joules + scale.idle_energy_j
                         + scale.sleep_energy_j + scale.wake_energy_j
                         + scale.dvfs_energy_j)
    idle_w = {d.name: float(d.engine.power.idle_power())
              for d in always_gateway.devices}
    always_energy = (always_report.energy_joules
                     + sum(idle_w.values()) * always_report.wallclock_s)

    executor_identical = True
    if check_executors:
        # Function-level import: the registry imports this module.
        from repro.experiments.runner import executors_agree
        executor_identical = executors_agree("fleet-autoscale", seed)

    return AutoscaleChaosResult(
        devices=points["devices"],
        capacity_qps=points["capacity_qps"],
        base_qps=points["base_qps"],
        peak_qps=points["peak_qps"],
        crowd_qps=points["crowd_qps"],
        crowd_start_s=points["crowd_start_s"],
        offered=points["offered"],
        completed=points["completed"],
        shed=points["shed"],
        failed=points["failed"],
        lost=points["lost"],
        wakes=points["wakes"],
        wakes_after_crowd=points["wakes_after_crowd"],
        sleeps=points["sleeps"],
        drains_completed=points["drains_completed"],
        drain_evacuations=points["drain_evacuations"],
        dvfs_switches=points["dvfs_switches"],
        crashes_draining=points["crashes_draining"],
        crashes_waking=points["crashes_waking"],
        max_wake_cycles=points["max_wake_cycles"],
        cycle_bound=points["cycle_bound"],
        max_brownout_tier=points["max_brownout_tier"],
        attainment=report.deadline_hit_rate,
        always_on_attainment=always_report.deadline_hit_rate,
        autoscaled_energy_j=autoscaled_energy,
        always_on_energy_j=always_energy,
        energy_saved_j=always_energy - autoscaled_energy,
        rerun_identical=rerun_identical,
        executor_identical=executor_identical,
        report_sha=points["report_sha"],
    )


def fleet_autoscale_table(points: dict | None = None,
                          seed: int = 0) -> Table:
    """Format the autoscale producer's summary (the pipeline artifact)."""
    points = points if points is not None else run_autoscale_points(seed=seed)
    table = Table(
        "Fleet autoscale: diurnal curve and flash crowd served through "
        "the device lifecycle controller",
        ["Metric", "Value"],
    )
    for key in ("devices", "capacity_qps", "base_qps", "peak_qps",
                "crowd_qps", "crowd_start_s", "offered", "completed",
                "shed", "failed", "lost", "wakes", "wakes_after_crowd",
                "sleeps", "drains_completed", "drain_evacuations",
                "dvfs_switches", "crashes_draining", "crashes_waking",
                "max_wake_cycles", "cycle_bound", "max_brownout_tier",
                "report_sha"):
        table.add_row(key, points[key])
    return table


def autoscale_chaos_table(result: AutoscaleChaosResult | None = None,
                          seed: int = 0) -> Table:
    """Format the autoscale lifecycle chaos exercise."""
    result = (result if result is not None
              else run_autoscale_chaos_study(seed=seed))
    table = Table(
        "Autoscale chaos: diurnal + flash crowd with crashes landed "
        "mid-drain and mid-wake",
        ["Metric", "Value"],
    )
    table.add_row("devices", result.devices)
    table.add_row("fleet capacity (req/s)", result.capacity_qps)
    table.add_row("base / peak rate (req/s)",
                  f"{result.base_qps:.2f} / {result.peak_qps:.2f}")
    table.add_row("crowd rate (req/s)", result.crowd_qps)
    table.add_row("crowd start (s)", result.crowd_start_s)
    table.add_row("offered", result.offered)
    table.add_row("completed", result.completed)
    table.add_row("shed / failed", f"{result.shed} / {result.failed}")
    table.add_row("lost", result.lost)
    table.add_row("wakes (after crowd)",
                  f"{result.wakes} ({result.wakes_after_crowd})")
    table.add_row("sleeps", result.sleeps)
    table.add_row("graceful drains", result.drains_completed)
    table.add_row("drain evacuations", result.drain_evacuations)
    table.add_row("DVFS switches", result.dvfs_switches)
    table.add_row("crashes mid-drain / mid-wake",
                  f"{result.crashes_draining} / {result.crashes_waking}")
    table.add_row("max wake cycles (bound)",
                  f"{result.max_wake_cycles} ({result.cycle_bound})")
    table.add_row("max brownout tier", result.max_brownout_tier)
    table.add_row("attainment vs always-on (%)",
                  f"{result.attainment * 100.0:.2f} vs "
                  f"{result.always_on_attainment * 100.0:.2f}")
    table.add_row("autoscaled energy (J)", result.autoscaled_energy_j)
    table.add_row("always-on energy (J)", result.always_on_energy_j)
    table.add_row("energy saved (J)", result.energy_saved_j)
    table.add_row("rerun byte-identical",
                  "yes" if result.rerun_identical else "NO")
    table.add_row("thread/process sha identical",
                  "yes" if result.executor_identical else "NO")
    table.add_row("report sha", result.report_sha[:16])
    return table
