"""Golden report pins for the gateway's event loop and vector drain.

Each pin is the sha256 of a seeded run's canonical report JSON, so a
refactor of the loop that reorders one tie, moves one float operation,
or drops one event shows up here as a changed digest.  Together the
runs cover the loop's one busy-device sweep (with and without hedging)
and its post-drain collect, every event source (arrivals, crashes,
flaps, autoscale ticks, tiering ticks), reroutes, breakers, and
prefix-affinity ranking over the full, brownout-steered,
lifecycle-filtered and tier-steered pools.  The fleet-study stream,
batched round-robin and trace pins cover the partition-and-drain vector
path (and the scalar runs it must equal).  A pin changes only with a
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
from repro.engine.request import GenerationRequest
from repro.fleet import (
    AutoscaleConfig,
    BrownoutConfig,
    FleetGateway,
    FleetRequest,
    HedgeConfig,
    build_fleet,
    poisson_stream,
)
from repro.tiering import TieringConfig
from repro.workloads import PopulationConfig, population_trace
from repro.workloads.agentic import agentic_suite
from repro.workloads.arrivals import diurnal_arrivals, poisson_arrivals

FRONTIER_STUDY = (Path(__file__).resolve().parent.parent
                  / "docs" / "studies" / "tiering_frontier.txt")
NAMES = [f"edge-{i:02d}" for i in range(4)]


def _sha(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _faults(seed, horizon_s, crashes):
    return FleetFaultSchedule(
        NAMES, FleetFaultConfig(horizon_s=horizon_s, device_crashes=crashes,
                                flapping_devices=1), seed=seed)


OVERLOAD_PIN = (
    "c80a892943beacaf24b5c0a8a64f25473b527ae82d45d5824ae07c68af1968a5")
TIERED_FAULT_PIN = (
    "d17664a2bc86b13d5116f0d37ee6468facf8ae2de5bcfa8b82f971e03105ae5d")
AUTOSCALE_PIN = (
    "33830ac0c19c3dc7cef12ffdbdfa5974fba232a60bd2fc3416d05cbc8e636139")


def test_overload_run_pin():
    # Brownout, hedging and flaps: the sweep orders hedge cancellations.
    assert run_overload_points(seed=0)["report_sha"] == OVERLOAD_PIN


def test_autoscale_run_pin():
    # Controller ticks merged into the timeline, crashes mid-drain/wake.
    assert run_autoscale_points(seed=0)["report_sha"] == AUTOSCALE_PIN


LEAST_OUTSTANDING_CRASH_PIN = (
    "d254b007264c689771c66b189ab9663cf1578465e45636cab2b025f1b00d997c")


def least_outstanding_crash_run(cls=FleetGateway):
    """Least-outstanding routing through two crashes and a flapping
    device, one reroute allowed; returns ``(gateway, report)``."""
    faults = _faults(seed=3, horizon_s=20.0, crashes=2)
    gateway = cls(build_fleet(4, mix="balanced", faults=faults),
                  policy="least-outstanding", faults=faults, max_reroutes=1)
    return gateway, gateway.run(poisson_stream(
        np.random.default_rng(3), 8.0, 160, deadline_s=30.0))


def test_least_outstanding_crash_run_pin():
    gateway, report = least_outstanding_crash_run()
    assert gateway.last_mode == "scalar"
    assert report.rerouted > 0 and report.failed > 0
    assert report.breaker_opens > 0
    assert _sha(report) == LEAST_OUTSTANDING_CRASH_PIN


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
        "75917d10e2ac938e76037c33dcc62dd4cd7ad9b2f8fe9784b3ff5feecafac416")


def tiered_fault_run(cls=FleetGateway):
    """A least-outstanding tiered DAG run with a crash and a flapping
    device; returns ``(gateway, report)``."""
    config = TieringConfig(seed=0)
    models = tuple(dict.fromkeys(
        config.fast_models + config.deep_models + config.verify_models))
    faults = _faults(seed=2, horizon_s=12.0, crashes=1)
    fleet = build_fleet(4, mix="balanced", models=models, faults=faults)
    gateway = cls(fleet, policy="least-outstanding", faults=faults)
    return gateway, gateway.run(agentic_suite(
        np.random.default_rng(2), 2.0, 24, deadline_s=60.0), tiering=config)


def _tiered_fault_sha() -> str:
    _, report = tiered_fault_run()
    assert report.rerouted > 0 and report.lost == 0
    return _sha(report)


def test_tiered_fault_run_pin():
    # The tiering frontier below runs fault-free; this run adds a crash
    # and a flapping device under the DAG release and tiering ticks.
    assert _tiered_fault_sha() == TIERED_FAULT_PIN


#: Prefix-affinity scalar runs whose sessions rank over a filtered or
#: steered pool, one pin each.
AFFINITY_PINS = {
    "brownout":
        "1aa1719664cd70720b279840c69a59b744e5b2ebb24bded3498278628211b298",
    "autoscale":
        "2c13b406994125e000c80f18b8d3781774d0e27fb8f7eb7f9b8b8825c83c7516",
    "tiered":
        "591323415f8680569092aab0c5713e0231aa7906ca20a47d194bebe0e10a9a55",
}


def affinity_brownout_run(cls=FleetGateway):
    """Brownout down to its downgrade and shedding tiers, with hedges, a
    crash and a flapping device; returns ``(gateway, report)``."""
    faults = _faults(seed=0, horizon_s=8.0, crashes=1)
    models = ("dsr1-qwen-1.5b", "dsr1-qwen-1.5b-awq-w4")
    fleet = build_fleet(4, mix="balanced", models=models, faults=faults,
                        prefix_cache_mb=8.0)
    gateway = cls(
        fleet, policy="prefix-affinity", faults=faults,
        brownout=BrownoutConfig(downgrade_models=(models[1],)),
        hedge=HedgeConfig(min_age_s=4.0, age_factor=1.3))
    return gateway, gateway.run(poisson_stream(
        np.random.default_rng(0), 20.0, 160, prompt_tokens=96,
        output_tokens=128, deadline_s=20.0, sessions=16, prefix_tokens=64))


def affinity_autoscale_run(cls=FleetGateway):
    """A diurnal trough that sleeps devices, a flash crowd that wakes
    them and one crash; returns ``(gateway, report)``."""
    rng = np.random.default_rng(0)
    arrivals = np.sort(np.concatenate([
        diurnal_arrivals(rng, 0.3, 3.0, 100.0, 220),
        poisson_arrivals(rng, 8.0, 60, start_s=100.0)]), kind="stable")
    sessions = rng.integers(12, size=arrivals.shape[0])
    stream = [FleetRequest(request=GenerationRequest(i, 96, 96),
                           arrival_s=float(arrivals[i]), deadline_s=45.0,
                           session=f"session-{int(sessions[i])}",
                           prefix_tokens=64)
              for i in range(arrivals.shape[0])]
    names = [f"edge-{i:02d}" for i in range(6)]
    faults = FleetFaultSchedule(names, FleetFaultConfig(
        horizon_s=float(arrivals[-1]), device_crashes=1), seed=0)
    fleet = build_fleet(6, mix="balanced", max_batch_size=4, faults=faults,
                        prefix_cache_mb=8.0)
    gateway = cls(fleet, policy="prefix-affinity", faults=faults,
                  autoscale=AutoscaleConfig())
    return gateway, gateway.run(stream)


def affinity_tiered_run(cls=FleetGateway):
    """A tiered DAG run with a crash and a flapping device; returns
    ``(gateway, report)``."""
    config = TieringConfig(seed=0)
    models = tuple(dict.fromkeys(
        config.fast_models + config.deep_models + config.verify_models))
    faults = _faults(seed=2, horizon_s=12.0, crashes=1)
    fleet = build_fleet(4, mix="balanced", models=models, faults=faults,
                        prefix_cache_mb=8.0)
    gateway = cls(fleet, policy="prefix-affinity", faults=faults)
    return gateway, gateway.run(agentic_suite(
        np.random.default_rng(2), 2.0, 24, deadline_s=60.0), tiering=config)


#: Each affinity shape's runner, by :data:`AFFINITY_PINS` key.
AFFINITY_RUNS = {"brownout": affinity_brownout_run,
                 "autoscale": affinity_autoscale_run,
                 "tiered": affinity_tiered_run}


def test_prefix_affinity_brownout_run_pin():
    # Sessions ranked over the brownout's downgrade pool (tier 2) and
    # the shedding tier, with hedges, a crash and a flapping device.
    gateway, report = affinity_brownout_run()
    assert report.max_brownout_tier >= 2 and gateway.brownout.downgraded
    assert report.hedged > 0 and report.rerouted > 0 and report.lost == 0
    assert _sha(report) == AFFINITY_PINS["brownout"]


def test_prefix_affinity_autoscale_run_pin():
    # Sessions ranked over the lifecycle-filtered pool.
    _, report = affinity_autoscale_run()
    assert report.autoscale.wakes > 0 and report.autoscale.sleeps > 0
    assert report.rerouted > 0 and report.lost == 0
    assert _sha(report) == AFFINITY_PINS["autoscale"]


def test_prefix_affinity_tiered_fault_run_pin():
    # Sessions ranked over each stage's steered tier pool, with a crash
    # and a flapping device under the DAG release and tiering ticks.
    _, report = affinity_tiered_run()
    assert report.rerouted > 0 and report.lost == 0
    assert _sha(report) == AFFINITY_PINS["tiered"]


@pytest.mark.parametrize("shape", ["overload", "tiered_fault"])
def test_every_sweep_folds_every_record(shape, monkeypatch):
    # The sweep and the post-drain collect fold only busy devices.  That
    # is exact only if no idle device holds an unfolded record, so after
    # every call each device's fold cursors must have caught up with its
    # run's served and dropped records.
    calls = {"_sweep": 0, "_collect": 0}
    gateways = []

    def caught_up(gateway):
        for device in gateway.devices:
            assert gateway._served_cursor[device.name] == len(
                device.run.served)
            assert gateway._dropped_cursor[device.name] == len(
                device.run.dropped)

    def checked(name):
        method = getattr(FleetGateway, name)

        def wrapper(gateway, t):
            method(gateway, t)
            caught_up(gateway)
            calls[name] += 1
            if gateway not in gateways:
                gateways.append(gateway)
        return wrapper

    for name in calls:
        monkeypatch.setattr(FleetGateway, name, checked(name))
    if shape == "overload":
        assert run_overload_points(seed=0)["report_sha"] == OVERLOAD_PIN
    else:
        assert _tiered_fault_sha() == TIERED_FAULT_PIN
    assert calls["_sweep"] > 0 and calls["_collect"] > calls["_sweep"]
    assert len(gateways) == 1
    caught_up(gateways[0])


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
        "2dad39dcf0c4162826e9304d0c2c5191272871baa6d3324f32c7cf4fbfc9aa17",
}


def fleet_study_run(policy, cls=FleetGateway):
    """``run_fleet_study(seed=0)``'s stream and fleet under ``policy``;
    returns ``(gateway, report)``."""
    # Sticky sessions with shared prefixes on 256 MB prefix caches.
    gateway = cls(build_fleet(4, mix="balanced", prefix_cache_mb=256.0),
                  policy=policy)
    return gateway, gateway.run(poisson_stream(
        np.random.default_rng(0), 6.0, 48, deadline_s=30.0, sessions=6,
        prefix_tokens=96))


@pytest.mark.parametrize("policy", sorted(FLEET_STUDY_PINS))
def test_fleet_study_stream_pin(policy):
    _, report = fleet_study_run(policy)
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
    gateway = FleetGateway(fleet, policy="prefix-affinity")
    report = gateway.run_trace(
        population_trace(np.random.default_rng(4), config))
    assert gateway.last_mode == "vector"
    assert sum(d.prefix_hits for d in report.devices) > 0
    assert _sha(report) == (
        "242f155657296a9bb3a68c98f6e52a061aebc56afc645990ea9698a782922770")
