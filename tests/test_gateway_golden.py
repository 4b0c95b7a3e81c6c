"""Golden report pins for the gateway's event loop and vector drain.

Each pin is the sha256 of a seeded run's canonical report JSON, so a
refactor of the loop that reorders one tie, moves one float operation,
or drops one event shows up here as a changed digest.  Together the
runs cover both sweeps of the loop (the fused busy-device sweep and the
all-device advance + poll + hedge sweep), every event source (arrivals,
crashes, flaps, autoscale ticks, tiering ticks), reroutes, breakers,
and the prefix-affinity winner memo.  The fleet-study stream, batched
round-robin and trace pins cover the partition-and-drain vector path
(and the scalar runs it must equal).  A pin changes only with a
deliberate change to simulated behaviour; update it in that change.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.resilience import (
    run_autoscale_points,
    run_overload_points,
)
from repro.experiments.tiering_study import (
    run_tiering_frontier_points,
    tiering_frontier_table,
)
from repro.faults import FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    FleetGateway,
    HealthConfig,
    build_fleet,
    poisson_stream,
)
from repro.tiering import TieringConfig
from repro.workloads import PopulationConfig, population_trace
from repro.workloads.agentic import agentic_suite

FRONTIER_STUDY = (Path(__file__).resolve().parent.parent
                  / "docs" / "studies" / "tiering_frontier.txt")
NAMES = [f"edge-{i:02d}" for i in range(4)]


def _sha(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _faults(seed, horizon_s, crashes):
    return FleetFaultSchedule(
        NAMES, FleetFaultConfig(horizon_s=horizon_s, device_crashes=crashes,
                                flapping_devices=1), seed=seed)


def test_overload_run_pin():
    # Brownout, hedging and flaps: the all-device sweep.
    assert run_overload_points(seed=0)["report_sha"] == (
        "c80a892943beacaf24b5c0a8a64f25473b527ae82d45d5824ae07c68af1968a5")


def test_autoscale_run_pin():
    # Controller ticks merged into the timeline, crashes mid-drain/wake.
    assert run_autoscale_points(seed=0)["report_sha"] == (
        "33830ac0c19c3dc7cef12ffdbdfa5974fba232a60bd2fc3416d05cbc8e636139")


def test_least_outstanding_crash_run_pin():
    faults = _faults(seed=3, horizon_s=20.0, crashes=2)
    gateway = FleetGateway(build_fleet(4, mix="balanced", faults=faults),
                           policy="least-outstanding", faults=faults,
                           max_reroutes=1)
    report = gateway.run(poisson_stream(np.random.default_rng(3), 8.0, 160,
                                        deadline_s=30.0))
    assert gateway.last_mode == "scalar"
    assert report.rerouted > 0 and report.failed > 0
    assert report.breaker_opens > 0
    assert _sha(report) == (
        "aa9fdb7f915d2217b54e4833d6fa1f0a2e78ac2b6e9e50fc0f3f54e377a1d7fe")


def test_prefix_affinity_run_pin():
    faults = _faults(seed=5, horizon_s=20.0, crashes=1)
    fleet = build_fleet(4, mix="balanced", faults=faults,
                        prefix_cache_mb=8.0)
    gateway = FleetGateway(fleet, policy="prefix-affinity", faults=faults)
    report = gateway.run(poisson_stream(np.random.default_rng(5), 6.0, 120,
                                        sessions=12, prefix_tokens=64))
    assert gateway.last_mode == "scalar"
    assert report.rerouted > 0
    assert sum(d.prefix_hits for d in report.devices) > 0
    assert _sha(report) == (
        "98566b76ba9d89f11da3998b37b4fb7993d4033fcf0f10d1ffb5ffb401037255")


def test_tiered_fault_run_pin():
    # The tiering frontier below runs fault-free; this run adds a crash
    # and a flapping device under the DAG release and tiering ticks.
    config = TieringConfig(seed=0)
    models = tuple(dict.fromkeys(
        config.fast_models + config.deep_models + config.verify_models))
    faults = _faults(seed=2, horizon_s=12.0, crashes=1)
    fleet = build_fleet(4, mix="balanced", models=models, faults=faults)
    gateway = FleetGateway(fleet, policy="least-outstanding", faults=faults)
    report = gateway.run(agentic_suite(np.random.default_rng(2), 2.0, 24,
                                       deadline_s=60.0), tiering=config)
    assert report.rerouted > 0 and report.lost == 0
    assert _sha(report) == (
        "ce260760a3c304a7b6cda1c8539dd4a74decfce0e0152b3487561259d59c2f5e")


def test_tiering_frontier_matches_committed_study():
    text = tiering_frontier_table(run_tiering_frontier_points()).to_text()
    assert FRONTIER_STUDY.read_text().startswith(text)


#: ``run_fleet_study(seed=0)``'s stream and fleet, one pin per policy.
FLEET_STUDY_PINS = {
    "round-robin":
        "674f8490e48e24eecd15ff92dd7cc0e9edc6912ad78681ddf2318facba176bed",
    "least-outstanding":
        "09111a3a90b83c7518b48d5bab3784eba5b6556d9ae0d128c19ca4f98e9f5ef1",
    "latency-aware":
        "5460e6c327732518c89710750c78d5f578ddd31aefd0630e88cdda1f8c3a271c",
    "energy-aware":
        "35bd60a971f512c2cdf832b3cdcf7cf6e59bffbbc0107e417d4ac4e2ec19e0a6",
    "prefix-affinity":
        "d2fd81a01e9e96d3e0f35c1eb7cc22941e4824fbd81ff4409ef2522fe03d42fa",
}


@pytest.mark.parametrize("policy", sorted(FLEET_STUDY_PINS))
def test_fleet_study_stream_pin(policy):
    # Sticky sessions with shared prefixes on 256 MB prefix caches.
    gateway = FleetGateway(build_fleet(4, mix="balanced",
                                       prefix_cache_mb=256.0),
                           policy=policy)
    report = gateway.run(poisson_stream(
        np.random.default_rng(0), 6.0, 48, deadline_s=30.0, sessions=6,
        prefix_tokens=96))
    assert report.lost == 0
    assert _sha(report) == FLEET_STUDY_PINS[policy]


def test_round_robin_batched_stream_pin():
    gateway = FleetGateway(build_fleet(4, mix="balanced"),
                           policy="round-robin")
    report = gateway.run(poisson_stream(np.random.default_rng(1), 8.0, 200,
                                        deadline_s=20.0))
    assert gateway.last_mode == "vector"
    assert _sha(report) == (
        "9fac461f43cbb8d45f93904df1d09c3f6cd82302908d9cec5cc7ac4233fc2d86")


def test_prefix_affinity_trace_pin():
    config = PopulationConfig(requests=400, mean_turns=6.0, users=120,
                              base_sessions_per_s=0.4,
                              peak_sessions_per_s=0.56, period_s=600.0)
    fleet = build_fleet(4, mix="balanced", max_batch_size=1,
                        prefix_cache_mb=8.0)
    gateway = FleetGateway(fleet, policy="prefix-affinity",
                           health=HealthConfig(latency_spike_s=3600.0))
    report = gateway.run_trace(
        population_trace(np.random.default_rng(4), config))
    assert gateway.last_mode == "vector"
    assert sum(d.prefix_hits for d in report.devices) > 0
    assert _sha(report) == (
        "632c21ead519002f958f73ed87f7cc54d16636f9d48293f5d22f1914166ea63c")
