"""The benchmark's workloads: seeded inputs, fleet construction, one call.

A workload is served in *rounds*.  Round ``i`` of seed ``s`` draws all
of its inputs from ``numpy.random.default_rng([s, i])``, so a seed fixes
every round's inputs and rounds of one seed are independent samples of
the same traffic shape.  Every arrival schedule is open loop in
simulated time: requests arrive on their seeded schedule whatever the
fleet does, and latency counts from that scheduled arrival.

Each workload class sets ``round_s``, the nominal wall seconds of one
round on a 2-core x86 host, and ``round_multiple``.  Together they fix
the round count for a given ``--seconds``, so the simulated work, and
every simulated metric with it, depends only on the command-line
arguments.

The program is driven only through public entry points
(``population_trace``, ``agentic_suite``, ``build_fleet``,
``FleetGateway.run_trace``/``run``), each on one thread
(``run_trace(jobs=1)``).
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

import repro.fleet.gateway as gateway_module
import repro.fleet.trace as trace_module
from repro.engine.request import GenerationRequest
from repro.faults.injector import (
    DeviceFault,
    FleetFaultConfig,
    FleetFaultSchedule,
)
from repro.fleet import FleetGateway, FleetRequest, HealthConfig, build_fleet
from repro.tiering import TieringConfig
from repro.workloads import agentic, population
from repro.workloads.arrivals import poisson_arrivals


def closed_form_capacity_qps(fleet, prompt_tokens: float,
                             output_tokens: float) -> float:
    """Aggregate request rate the fleet sustains, in closed form.

    Per device a full batch of B requests turns around in one batched
    decode span plus B serialized prefills: ``B / (span + B * prefill)``.
    The same formula the repository's studies pace their streams with,
    restated here over public device attributes so that the benchmark's
    load does not move when private study helpers are refactored.
    """
    total = 0.0
    for device in fleet:
        profile = device.engine.profile
        kernels = device.engine.kernels
        batch = device.spec.max_batch_size
        span = kernels.decode_span_seconds(profile, prompt_tokens,
                                           output_tokens,
                                           batch=float(batch))
        prefill = kernels.prefill(profile, prompt_tokens).seconds
        total += batch / (span + batch * prefill)
    return total


def round_rng(seed: int, index: int) -> np.random.Generator:
    """The generator that draws every input of round ``index``."""
    return np.random.default_rng([seed, index])


@dataclass
class Prepared:
    """A freshly built gateway and the one call the benchmark times."""

    gateway: FleetGateway
    call: Callable[[], object]


class PopulationAffinity:
    """Zipf multi-turn sessions with regional shared prefixes.

    The ``fleet_diurnal_1m`` shape at ``requests`` per round: 32 batch-1
    devices with 32 MB prefix caches under prefix-affinity routing,
    paced at 0.4x closed-form capacity for the population's mean prompt
    (~527 tokens) and output (~210 tokens), diurnal session starts, and
    a uniform deadline.  The raised breaker spike threshold is part of
    the committed shape: it keeps the run on the vector path, and the
    queueing tail it admits shows in ``p99_latency_s``.
    """

    name = "population_affinity"
    why = ("Zipf multi-turn sessions with shared prefixes through "
           "run_trace over 32 batch-1 prefix-affinity devices: the "
           "batch-1 vector drain, rendezvous partition and prefix cache")
    devices = 32
    utilization = 0.4
    mean_turns = 10.0
    users = 50_000
    deadline_s = 120.0
    #: Devices run on the vector core; a scalar run is a fallback.
    expects_vector = True
    round_s = 2.7
    round_multiple = 1
    #: Requests of round 0 that the scalar-oracle check serves.
    oracle_requests = 1000

    def __init__(self, requests: int = 40_000):
        self.requests = requests

    def _fleet(self):
        return build_fleet(self.devices, mix="balanced", max_batch_size=1,
                           prefix_cache_mb=32.0)

    def generate(self, seed: int, index: int):
        base = (self.utilization
                * closed_form_capacity_qps(self._fleet(), 527, 210)
                / self.mean_turns)
        config = population.PopulationConfig(
            requests=self.requests, mean_turns=self.mean_turns,
            users=self.users, base_sessions_per_s=base,
            peak_sessions_per_s=1.4 * base, period_s=3600.0,
            deadline_s=self.deadline_s)
        return population.population_trace(round_rng(seed, index), config)

    def build(self, trace, mode: str = "auto") -> Prepared:
        gateway = FleetGateway(self._fleet(), policy="prefix-affinity",
                               health=HealthConfig(latency_spike_s=3600.0),
                               mode=mode)
        return Prepared(gateway, lambda: gateway.run_trace(trace, jobs=1))

    def prefix(self, trace, requests: int):
        """The first ``requests`` rows, as one zero-copy chunk."""
        return [population.TraceChunk(trace, 0, min(requests, trace.n))]

    @contextlib.contextmanager
    def capture(self) -> Iterator[list]:
        """Record the per-device outcome columns a trace report folds.

        ``FleetTraceReport`` carries aggregates only; the served records
        the benchmark's latency and SLO metrics need are the
        ``TraceDeviceData`` rows handed to ``assemble_trace_report``.
        The recorder only keeps a reference to its argument and reads
        no clock.  Both import sites are covered: the vector driver's
        and the scalar-fallback conversion's.
        """
        rows: list = []
        originals = [(module, module.assemble_trace_report)
                     for module in (gateway_module, trace_module)]

        def recorder(original):
            def record(policy, offered, shed, failed, devices):
                rows.append(list(devices))
                return original(policy, offered, shed, failed, devices)
            return record

        for module, original in originals:
            module.assemble_trace_report = recorder(original)
        try:
            yield rows
        finally:
            for module, original in originals:
                module.assemble_trace_report = original


class BatchedStream:
    """Single-turn Poisson requests on batch-8 devices, no shared prefix.

    Lognormal prompt (median 96) and output (median 192) lengths, the
    population trace's per-turn shapes, built as ``FleetRequest``
    objects and served through ``FleetGateway.run`` with round-robin
    routing over 16 batch-8 devices without prefix caches, at 0.5x
    closed-form capacity for the mean lengths.  Below the vector-to-
    scalar cliff: at 0.8x the longest latency crosses the default 30 s
    breaker spike threshold and the run falls back to the scalar core.
    """

    name = "batched_stream"
    why = ("single-turn lognormal requests through run over 16 batch-8 "
           "round-robin devices, no prefix cache: the batched vector "
           "object path, where hashing and prefix caching do nothing")
    devices = 16
    utilization = 0.5
    deadline_s = 15.0
    expects_vector = True
    round_s = 2.6
    round_multiple = 1
    oracle_requests = 800

    def __init__(self, requests: int = 20_000):
        self.requests = requests

    def _fleet(self):
        return build_fleet(self.devices, mix="balanced", max_batch_size=8)

    def generate(self, seed: int, index: int) -> list[FleetRequest]:
        rng = round_rng(seed, index)
        n = self.requests
        prompt = np.clip(np.rint(rng.lognormal(np.log(96.0), 0.5, n)),
                         16, 1536).astype(np.int64)
        output = np.clip(np.rint(rng.lognormal(np.log(192.0), 0.5, n)),
                         16, 768).astype(np.int64)
        qps = self.utilization * closed_form_capacity_qps(
            self._fleet(), float(prompt.mean()), float(output.mean()))
        arrival = poisson_arrivals(rng, qps, n)
        return [FleetRequest(GenerationRequest(i, int(prompt[i]),
                                               int(output[i])),
                             float(arrival[i]), deadline_s=self.deadline_s)
                for i in range(n)]

    def build(self, stream, mode: str = "auto") -> Prepared:
        gateway = FleetGateway(self._fleet(), policy="round-robin",
                               mode=mode)
        return Prepared(gateway, lambda: gateway.run(stream))

    def prefix(self, stream, requests: int):
        return stream[:requests]

    capture = staticmethod(contextlib.nullcontext)


class TieredDag:
    """Agentic plan -> branches -> verify DAG jobs under a tier policy.

    ``TieringConfig()`` over 8 heterogeneous devices cycling the
    policy's 1.5B/1.5B-AWQ/8B/14B pools, least-outstanding routing, and
    one crash plus one flapping device (three down/up cycles) inside
    the arrival horizon.  Served by the scalar per-event loop with
    breakers, reroutes, and the tier/budget/DAG control plane; the
    vector core is unused.

    A round is 100 jobs in 20 sessions, the jobs-per-session ratio of
    1000 jobs in 200 sessions.  The deep pool is overloaded, so a long
    round's tail is a runaway queue whose length swings widely from
    seed to seed, while many short rounds pool to a steady tail.
    """

    name = "tiered_dag"
    why = ("agentic DAG jobs under TieringConfig on 8 mixed 1.5B/8B/14B "
           "devices with a crash and a flapping device: the scalar event "
           "loop, breakers, reroutes and DAG admit/release/vote")
    devices = 8
    #: Fast enough that gateway pressure climbs the tier ladder within
    #: a round, so load downgrades happen.
    qps = 4.0
    deadline_s = 60.0
    expects_vector = False
    round_s = 0.85
    #: Whole cycles of the crashed/flapping device rotation.
    round_multiple = devices
    #: No vector path to compare against the scalar oracle.
    oracle_requests = 0

    def __init__(self, jobs: int = 100, sessions: int = 20):
        self.jobs = jobs
        self.sessions = sessions

    def generate(self, seed: int, index: int):
        rng = round_rng(seed, index)
        suite = agentic.agentic_suite(rng, self.qps, self.jobs,
                                      sessions=self.sessions,
                                      deadline_s=self.deadline_s)
        return suite, self._faults(rng, index)

    def _faults(self, rng: np.random.Generator,
                index: int) -> FleetFaultSchedule:
        """One crash and one flapping device, stratified over rounds.

        Times and durations are drawn as ``FleetFaultSchedule`` draws
        them, but the crashed and the flapping device rotate with the
        round index, so every device takes each fault equally often
        over a multiple of ``devices`` rounds.  Which device fails
        dominates the round's tail (a crashed 14B device holds the
        slowest queue), and a seeded draw of it would make the pooled
        tail depend on how many rounds drew a slow device.
        """
        # build_fleet names devices edge-00, edge-01, ... in order.
        names = [f"edge-{i:02d}" for i in range(self.devices)]
        config = FleetFaultConfig(horizon_s=self.jobs / self.qps,
                                  device_crashes=0)
        horizon = config.horizon_s
        lo, hi = config.crash_window
        events = [DeviceFault(names[index % self.devices], "crash",
                              float(rng.uniform(lo * horizon, hi * horizon)),
                              float(rng.uniform(*config.crash_duration_s)))]
        lo, hi = config.flap_window
        t = float(rng.uniform(lo * horizon, hi * horizon))
        for _ in range(config.flap_cycles):
            down = float(rng.uniform(*config.flap_down_s))
            events.append(DeviceFault(names[(index + 1) % self.devices],
                                      "flap", t, down))
            t += down + float(rng.uniform(*config.flap_up_s))
        return FleetFaultSchedule(names, config, events=events)

    def build(self, inputs, mode: str = "auto") -> Prepared:
        suite, faults = inputs
        config = TieringConfig()
        models = tuple(dict.fromkeys(config.fast_models + config.deep_models
                                     + config.verify_models))
        fleet = build_fleet(self.devices, mix="balanced", models=models,
                            faults=faults)
        gateway = FleetGateway(fleet, policy="least-outstanding",
                               faults=faults, mode=mode)
        return Prepared(gateway,
                        lambda: gateway.run(suite, tiering=config))

    capture = staticmethod(contextlib.nullcontext)


WORKLOADS = {w.name: w for w in (PopulationAffinity, BatchedStream,
                                 TieredDag)}
