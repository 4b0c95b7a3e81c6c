"""Gateway routing policies, conservation, and fleet planning."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.fleet.partition as partition_module
from repro.core.planner import fleet_pareto, plan_fleet
from repro.engine.request import GenerationRequest
from repro.faults import DeviceFault, FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    ROUTING_POLICIES,
    BrownoutConfig,
    FleetGateway,
    FleetRequest,
    HedgeConfig,
    build_fleet,
    poisson_stream,
)
from repro.fleet.device import DeviceSpec, FleetDevice
from repro.workloads import PopulationConfig, population_trace


def _stream(seed=0, qps=6.0, count=24, **kwargs):
    return poisson_stream(np.random.default_rng(seed), qps, count, **kwargs)


def _run(policy, seed=0, count=24, devices=4, mix="balanced", **kwargs):
    gateway = FleetGateway(build_fleet(devices, mix=mix), policy=policy)
    return gateway.run(_stream(seed=seed, count=count, **kwargs))


class TestValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetGateway([])

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            FleetGateway(build_fleet(2), policy="random")

    def test_rejects_duplicate_names(self):
        fleet = build_fleet(1) + build_fleet(1)
        with pytest.raises(ValueError):
            FleetGateway(fleet)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_rejects_bad_drain_limit(self, bad):
        # A non-finite limit would switch off the tiered safety valve.
        with pytest.raises(ValueError):
            FleetGateway(build_fleet(2), drain_limit_s=bad)

    @pytest.mark.parametrize("kwargs", [
        {"min_age_s": 0.0}, {"min_age_s": math.nan},
        {"age_factor": 0.5}, {"age_factor": math.nan}])
    def test_rejects_bad_hedge_config(self, kwargs):
        with pytest.raises(ValueError):
            HedgeConfig(**kwargs)

    @pytest.mark.parametrize("mode", ["auto", "scalar"])
    def test_rejects_duplicate_request_ids(self, mode, monkeypatch):
        # Two requests sharing id 7 would settle as one disposition and
        # silently lose the other; neither core may start.
        def boom(*args, **kwargs):
            raise AssertionError("a core ran")

        monkeypatch.setattr(FleetGateway, "_run_scalar", boom)
        monkeypatch.setattr(FleetGateway, "_fleet_report", boom)
        gateway = FleetGateway(build_fleet(2), mode=mode)
        stream = [FleetRequest(GenerationRequest(rid, 100, 32), float(k))
                  for k, rid in enumerate((7, 7, 3))]
        with pytest.raises(ValueError, match="request id 7 repeats"):
            gateway.run(stream)

    def test_stream_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_stream(rng, qps=0.0, num_requests=4)
        with pytest.raises(ValueError):
            poisson_stream(rng, qps=1.0, num_requests=-1)


class TestNonFiniteArrivals:
    """Both entry points reject a non-finite arrival before routing it
    (an infinite one used to break conservation on the scalar path)."""

    @pytest.mark.parametrize("mode", ["scalar", "auto"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_run_rejects(self, mode, bad):
        gateway = FleetGateway(build_fleet(2, max_batch_size=2),
                               policy="round-robin", mode=mode)
        stream = [FleetRequest(GenerationRequest(i, 100, 20), arrival)
                  for i, arrival in enumerate([0.0, bad, 1.0])]
        with pytest.raises(ValueError, match="row 1 is"):
            gateway.run(stream)

    @pytest.mark.parametrize("mode", ["scalar", "auto"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_run_trace_rejects(self, mode, bad):
        from repro.workloads import PopulationConfig, population_trace

        trace = population_trace(np.random.default_rng(0), PopulationConfig(
            requests=40, users=10, period_s=600.0))
        trace.arrival_s[25] = bad
        gateway = FleetGateway(build_fleet(2), policy="prefix-affinity",
                               mode=mode)
        with pytest.raises(ValueError, match="row 25 is"):
            gateway.run_trace(trace.chunks(20))


class TestArrivalOrder:
    """``_arrival_order`` orders a stream as the old sort on
    ``(arrival_s, stream position)`` did: ties and signed zeros too."""

    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0]),
        st.floats(allow_nan=False, allow_infinity=False)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sort_on_arrival_and_position(self, arrivals):
        stream = [FleetRequest(GenerationRequest(i, 16, 1), arrival)
                  for i, arrival in enumerate(arrivals)]
        expected = [freq for _, freq in sorted(
            enumerate(stream), key=lambda pair: (pair[1].arrival_s, pair[0]))]
        got = partition_module._arrival_order(tuple(stream))
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))


class TestEdfFleet:
    """EDF devices have no vector kernel: both entry points serve them on
    the scalar loop in ``auto``, with the oracle's bytes (an FCFS twin
    of the same fleet runs vector, so the policy is the cause)."""

    @staticmethod
    def _gateway(policy, max_batch_size, mode, gateway_policy):
        devices = [FleetDevice(DeviceSpec(
            name=f"edge-{i:02d}", power_mode=power_mode,
            max_batch_size=max_batch_size, policy=policy,
            prefix_cache_mb=8.0))
            for i, power_mode in enumerate(("MAXN", "30W", "MAXN"))]
        return FleetGateway(devices, policy=gateway_policy, mode=mode)

    @pytest.mark.parametrize("max_batch_size", [1, 4])
    @pytest.mark.parametrize("policy,vector", [("fcfs", True),
                                               ("edf", False)])
    def test_run(self, policy, vector, max_batch_size):
        reports = {}
        for mode in ("auto", "scalar"):
            gateway = self._gateway(policy, max_batch_size, mode,
                                    "round-robin")
            # Alternating deadlines, so EDF reorders each device's queue.
            stream = [dataclasses.replace(r, deadline_s=(8.0, 60.0)[i % 2])
                      for i, r in enumerate(_stream(seed=4, qps=3.0,
                                                    count=60))]
            reports[mode] = gateway.run(stream).to_json()
            want = "vector" if vector and mode == "auto" else "scalar"
            assert gateway.last_mode == want
        assert reports["auto"] == reports["scalar"]

    @pytest.mark.parametrize("max_batch_size", [1, 4])
    @pytest.mark.parametrize("policy,vector", [("fcfs", True),
                                               ("edf", False)])
    def test_run_trace(self, policy, vector, max_batch_size):
        config = PopulationConfig(requests=150, mean_turns=4.0, users=40,
                                  base_sessions_per_s=0.3,
                                  peak_sessions_per_s=0.5, period_s=600.0,
                                  deadline_s=30.0)
        trace = population_trace(np.random.default_rng(2), config)
        reports = {}
        for mode in ("auto", "scalar"):
            gateway = self._gateway(policy, max_batch_size, mode,
                                    "prefix-affinity")
            reports[mode] = gateway.run_trace(trace).to_json()
            want = "vector" if vector and mode == "auto" else "scalar"
            assert gateway.last_mode == want
        assert reports["auto"] == reports["scalar"]


class TestConservation:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_every_request_reaches_a_terminal_outcome(self, policy):
        report = _run(policy)
        assert report.completed == report.offered == 24
        assert report.lost == 0

    def test_empty_stream_is_well_formed(self):
        gateway = FleetGateway(build_fleet(2))
        report = gateway.run([])
        assert report.offered == report.completed == 0
        assert math.isnan(report.latency_percentile(95))
        assert math.isnan(report.deadline_hit_rate)


class TestPolicies:
    def test_round_robin_spreads_work_evenly(self):
        report = _run("round-robin", devices=4, count=24)
        offered = [d.report.offered for d in report.devices]
        assert offered == [6, 6, 6, 6]

    def test_latency_aware_beats_round_robin_tail(self):
        # On a heterogeneous mix, blind rotation queues work on the slow
        # boxes; prediction-aware routing shifts it and wins the tail.
        heterogeneous = dict(devices=4, mix="balanced", count=32)
        rr = _run("round-robin", **heterogeneous)
        aware = _run("latency-aware", **heterogeneous)
        assert aware.latency_percentile(95) < rr.latency_percentile(95)

    def test_energy_aware_routes_to_cheapest_prediction(self):
        fleet = build_fleet(4, mix="balanced")
        gateway = FleetGateway(fleet, policy="energy-aware")
        probe = GenerationRequest(0, 150, 192)
        cheapest = min(gateway.devices,
                       key=lambda d: (d.predicted_energy_j(probe, 0.0),
                                      d.name))
        report = gateway.run([FleetRequest(probe, arrival_s=0.0)])
        (winner,) = [d for d in report.devices if d.report.offered]
        assert winner.name == cheapest.name

    def test_energy_aware_saves_energy_vs_latency_aware(self):
        kwargs = dict(devices=4, mix="balanced", count=24)
        aware = _run("energy-aware", **kwargs)
        fast = _run("latency-aware", **kwargs)
        assert aware.energy_per_request_j < fast.energy_per_request_j

    def test_prefix_affinity_pins_sessions(self):
        fleet = build_fleet(4, prefix_cache_mb=64.0)
        gateway = FleetGateway(fleet, policy="prefix-affinity")
        report = gateway.run(_stream(count=24, sessions=3,
                                     prefix_tokens=64))
        # 3 sessions -> at most 3 devices ever see work.
        assert sum(d.report.offered > 0 for d in report.devices) <= 3

    def test_prefix_affinity_earns_cache_hits(self):
        def hits(policy):
            fleet = build_fleet(4, prefix_cache_mb=64.0)
            gateway = FleetGateway(fleet, policy=policy)
            report = gateway.run(_stream(count=24, sessions=3,
                                         prefix_tokens=64))
            return sum(d.prefix_hits for d in report.devices)

        assert hits("prefix-affinity") > hits("round-robin")

    def test_stateless_requests_still_route_under_affinity(self):
        report = _run("prefix-affinity", count=12)
        assert report.completed == 12


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        assert (_run("latency-aware").to_json()
                == _run("latency-aware").to_json())

    def test_construction_order_is_irrelevant(self):
        stream = _stream(count=16)
        reference = FleetGateway(build_fleet(4), "latency-aware").run(stream)
        shuffled = list(reversed(build_fleet(4)))
        report = FleetGateway(shuffled, "latency-aware").run(stream)
        assert report.to_json() == reference.to_json()

    def test_json_is_canonical(self):
        report = _run("round-robin", count=8)
        payload = json.loads(report.to_json())
        assert payload["lost"] == 0
        assert len(payload["served"]) == 8
        assert len(payload["devices"]) == 4


class TestFleetCost:
    def test_device_seconds_sum_across_fleet(self):
        report = _run("round-robin", count=16)
        assert report.device_seconds > report.wallclock_s
        assert report.cost_per_mtok() > 0

    def test_deadline_attainment_counts_whole_population(self):
        report = _run("latency-aware", count=16, deadline_s=30.0)
        assert 0.0 <= report.deadline_hit_rate <= 1.0


class TestFleetPlanning:
    def test_plan_covers_the_grid(self):
        points = plan_fleet(device_counts=(2,), mixes=("maxn", "balanced"),
                            policies=("round-robin",), qps=4.0,
                            num_requests=8)
        assert len(points) == 2
        assert {p.label for p in points} == {
            "2x maxn / round-robin", "2x balanced / round-robin"}

    def test_frontier_is_nonempty_subset(self):
        points = plan_fleet(device_counts=(2,), mixes=("maxn", "balanced"),
                            policies=("round-robin", "latency-aware"),
                            qps=4.0, num_requests=8)
        frontier = fleet_pareto(points)
        assert frontier and set(map(id, frontier)) <= set(map(id, points))


class TestWholeFleetDown:
    def test_arrival_during_total_outage_is_parked_not_lost(self):
        fleet = build_fleet(2)
        gateway = FleetGateway(fleet, policy="round-robin")
        for device in gateway.devices:
            device.crash(0.0, until=5.0)
        stream = [FleetRequest(GenerationRequest(0, 100, 32),
                               arrival_s=1.0)]
        report = gateway.run(stream)
        assert report.completed == 1 and report.lost == 0
        (served,) = report.served
        assert served.start_s >= 5.0


class TestCrashMidDecode:
    """The scalar loop at a crash that catches a request mid-decode
    (a 2000-token prompt sharing a 1600-token prefix, crashed at 3.0 s
    until 10.0 s): the cut lands on the epoch boundary past 3.0 s, the
    orphan re-routes with its partial work priced on the crashed device,
    and that device's prefix cache survives the outage."""

    def test_cut_reroute_and_recovery_hit(self):
        def fleet():
            return [FleetDevice(DeviceSpec(name=name, max_batch_size=1,
                                           prefix_cache_mb=256.0))
                    for name in ("a", "b")]

        def turn(rid, arrival):
            return FleetRequest(GenerationRequest(rid, 2000, 256), arrival,
                                session="s0", prefix_tokens=1600)

        # "s0"'s rendezvous winner is "b"; the crash cuts turn 0 there.
        assert partition_module._rendezvous_winners(
            (b"s0:",), partition_module._keys([b"a", b"b"])).tolist() == [1]
        faults = FleetFaultSchedule(
            ("a", "b"), FleetFaultConfig(device_crashes=0),
            events=[DeviceFault("b", "crash", 3.0, 7.0)])
        gateway = FleetGateway(fleet(), policy="prefix-affinity",
                               faults=faults, mode="scalar")
        report = gateway.run([turn(0, 0.0), turn(1, 12.0)])
        assert report.rerouted == 1
        assert report.completed == 2 and report.lost == 0
        a, b = report.devices
        # The orphan finishes on "a", re-prefilled from scratch.
        assert [r.request_id for r in a.report.served] == [0]
        assert (a.prefix_misses, a.prefix_hits) == (1, 0)
        # The first turn after recovery hits "b"'s surviving prefix.
        assert [r.request_id for r in b.report.served] == [1]
        assert (b.prefix_misses, b.prefix_hits) == (1, 1)
        assert b.crashes == 1 and b.evacuated == 1

        # Replaying "b"'s operations on a lone device reproduces its
        # report: the cut lands past 3.0 s, the partial work keeps its
        # joules through the outage, and turn 1 adds its own on top.
        (replay,) = [d for d in fleet() if d.name == "b"]
        replay.inject(turn(0, 0.0).request, 0.0, session="s0",
                      prefix_tokens=1600)
        replay.advance_to(3.0)
        assert replay.run.now == pytest.approx(3.0186, abs=1e-4)
        spent = replay.run.energy
        assert spent == pytest.approx(15.09, abs=0.01)
        replay.crash(3.0, until=10.0)
        assert replay.run.energy == spent
        replay.inject(turn(1, 12.0).request, 12.0, session="s0",
                      prefix_tokens=1600)
        replay.drain()
        assert replay.report().to_json() == b.report.to_json()
        assert b.report.energy_joules > spent


class TestReinjection:
    """A re-routed or hedged copy is the request as first routed: the
    brownout-trimmed budget, the original arrival and deadline, and the
    session whose prefix the landing device looks up."""

    @staticmethod
    def _fleet(slow_b=False):
        return [FleetDevice(DeviceSpec(
            name=name, max_batch_size=1, prefix_cache_mb=256.0,
            power_mode="15W" if slow_b and name == "b" else "MAXN"))
            for name in ("a", "b")]

    @staticmethod
    def _turn():
        # "s0"'s rendezvous winner is "b" (see TestCrashMidDecode).
        return FleetRequest(GenerationRequest(0, 2000, 256), 0.0,
                            deadline_s=120.0, session="s0",
                            prefix_tokens=1600)

    def test_reroute_keeps_the_routed_request(self):
        # Pressure is never negative, so tier 1 engages at the first
        # arrival and stays: every admitted budget is trimmed.
        brownout = BrownoutConfig(enter_pressure=(0.0, 100.0, 200.0),
                                  exit_pressure=(-1.0, 50.0, 150.0))
        faults = FleetFaultSchedule(
            ("a", "b"), FleetFaultConfig(device_crashes=0),
            events=[DeviceFault("b", "crash", 3.0, 7.0)])
        gateway = FleetGateway(self._fleet(), policy="prefix-affinity",
                               faults=faults, brownout=brownout,
                               mode="scalar")
        report = gateway.run([self._turn()])
        assert report.budget_trims == 1
        assert report.rerouted == 1
        assert report.completed == 1 and report.lost == 0
        a, b = report.devices
        assert b.evacuated == 1 and not b.report.served
        (served,) = a.report.served
        assert served.output_tokens == int(256 * brownout.trim_fraction)
        assert served.arrival_s == 0.0
        assert served.deadline_s == 120.0
        assert a.prefix_misses + a.prefix_hits == 1

    @pytest.mark.parametrize("slow_b, wins", [(False, 0), (True, 1)])
    def test_hedge_keeps_the_session(self, slow_b, wins):
        gateway = FleetGateway(self._fleet(slow_b),
                               policy="prefix-affinity",
                               hedge=HedgeConfig(min_age_s=1.0),
                               mode="scalar")
        report = gateway.run([self._turn()])
        assert report.hedged == 1
        assert report.completed == 1 and report.lost == 0
        a, b = report.devices
        # The hedge copy on "a" looks its prefix up like the original.
        assert a.prefix_misses + a.prefix_hits == 1
        assert b.prefix_misses + b.prefix_hits == 1
        served_on = [d.name for d in report.devices for r in d.report.served
                     if r.finish_s == report.served[0].finish_s]
        assert served_on == (["a"] if wins else ["b"])
        # Only a win by the hedge target ("a") counts.
        assert report.hedge_wins == wins


STAGES = {"collect", "assign", "drain", "assemble"}


def _timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class TestStageTimes:
    """``last_stages``: wall seconds per stage of a vector run, None
    after a scalar one.  Only relations are checked, no absolute time."""

    def _check(self, stages, wall_s):
        assert set(stages) == STAGES
        assert all(value >= 0.0 for value in stages.values())
        assert sum(stages.values()) <= wall_s

    def test_none_before_the_first_run(self):
        assert FleetGateway(build_fleet(2)).last_stages is None

    def test_vector_run(self):
        stream = _stream(seed=3, count=40)
        gateway = FleetGateway(build_fleet(4), policy="round-robin")
        report, wall_s = _timed(lambda: gateway.run(stream))
        assert gateway.last_mode == "vector"
        self._check(gateway.last_stages, wall_s)
        scalar = FleetGateway(build_fleet(4), policy="round-robin",
                              mode="scalar")
        assert report.to_json() == scalar.run(stream).to_json()
        assert scalar.last_stages is None

    def test_vector_run_trace(self):
        config = PopulationConfig(requests=200, mean_turns=6.0, users=60,
                                  base_sessions_per_s=0.4,
                                  peak_sessions_per_s=0.56, period_s=600.0)
        trace = population_trace(np.random.default_rng(2), config)

        def gateway(mode):
            return FleetGateway(build_fleet(4, max_batch_size=1,
                                            prefix_cache_mb=8.0),
                                policy="prefix-affinity", mode=mode)

        vector = gateway("auto")
        report, wall_s = _timed(lambda: vector.run_trace(trace))
        assert vector.last_mode == "vector"
        self._check(vector.last_stages, wall_s)
        scalar = gateway("scalar")
        assert report.to_json() == scalar.run_trace(trace).to_json()
        assert scalar.last_stages is None

    def test_scalar_rerun_clears_the_stages(self):
        gateway = FleetGateway(build_fleet(4, prefix_cache_mb=8.0),
                               policy="prefix-affinity")
        stream = _stream(seed=1, count=24, sessions=4, prefix_tokens=64)
        gateway.run(stream)
        assert gateway.last_mode == "vector"
        assert gateway.last_stages is not None
        stream[3] = dataclasses.replace(stream[3], session=None,
                                        prefix_tokens=0)
        gateway.run(stream)
        assert gateway.last_mode == "scalar"
        assert gateway.last_stages is None
        assert gateway.last_counters is None


class TestWorkCounters:
    """``last_counters``: the vector core's work counts summed over
    shares, None whenever ``last_stages`` is; exact and machine- and
    executor-independent, so runs and executors must agree."""

    @staticmethod
    def _trace():
        config = PopulationConfig(requests=600, mean_turns=6.0, users=120,
                                  base_sessions_per_s=0.6,
                                  peak_sessions_per_s=0.84, period_s=600.0)
        return population_trace(np.random.default_rng(4), config)

    @staticmethod
    def _gateway(mode="auto"):
        return FleetGateway(build_fleet(4, max_batch_size=1,
                                        prefix_cache_mb=8.0),
                            policy="prefix-affinity", mode=mode)

    def test_none_before_a_run_and_after_a_scalar_one(self):
        assert self._gateway().last_counters is None
        scalar = self._gateway("scalar")
        scalar.run_trace(self._trace())
        assert scalar.last_counters is None

    def test_identical_across_runs_and_executors(self):
        trace = self._trace()
        counters = []
        for jobs, executor in ((1, "thread"), (1, "thread"), (2, "thread"),
                               (2, "process")):
            gateway = self._gateway()
            gateway.run_trace(trace, jobs=jobs, executor=executor)
            assert gateway.last_mode == "vector"
            counters.append(gateway.last_counters)
        assert set(counters[0]) == {"boundary_repairs", "busy_periods"}
        assert counters[0]["busy_periods"] > len(build_fleet(4))
        assert all(c == counters[0] for c in counters)

    @pytest.mark.parametrize("max_batch_size", [1, 4])
    def test_busy_periods_sum_the_devices(self, max_batch_size):
        # Idle-to-busy transitions read off each device's served list.
        stream = _stream(seed=5, qps=0.6, count=80)
        gateway = FleetGateway(build_fleet(3, max_batch_size=max_batch_size),
                               policy="round-robin")
        report = gateway.run(stream)
        assert gateway.last_mode == "vector"
        periods = 0
        for outcome in report.devices:
            busy_until = -math.inf
            for r in sorted(outcome.report.served,
                            key=lambda r: (r.start_s, r.request_id)):
                periods += r.start_s > busy_until
                busy_until = max(busy_until, r.finish_s)
        assert gateway.last_counters == {"boundary_repairs": 0,
                                         "busy_periods": periods}
        assert periods > 3
