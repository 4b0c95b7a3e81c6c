"""Streaming trace driver: oracle equivalence, chunk/executor identity."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.fleet
import repro.fleet.partition as partition_module
from repro.engine.request import GenerationRequest
from repro.experiments.resilience import (
    run_autoscale_points,
    run_overload_points,
)
from repro.faults import DeviceFault, FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    ROUTING_POLICIES,
    AutoscaleConfig,
    FleetGateway,
    FleetRequest,
    FleetTraceReport,
    HedgeConfig,
    build_fleet,
    poisson_stream,
)
from repro.fleet.device import DeviceSpec, FleetDevice
from repro.workloads import PopulationConfig, population_trace, session_key
from tests.test_engine_server_resilience import check_run_counters
from tests.test_gateway_golden import (
    AFFINITY_PINS,
    AFFINITY_RUNS,
    AUTOSCALE_PIN,
    FLEET_STUDY_PINS,
    LEAST_OUTSTANDING_CRASH_PIN,
    OVERLOAD_PIN,
    TIERED_FAULT_PIN,
    fleet_study_run,
    least_outstanding_crash_run,
    tiered_fault_run,
)

POLICIES = ("round-robin", "prefix-affinity")


def _trace(seed=7, requests=600):
    # The proven small-scale shape: diurnal session starts, multi-turn
    # sessions, regional prefixes that fit an 8 MB per-device cache.
    config = PopulationConfig(requests=requests, mean_turns=6.0, users=120,
                              base_sessions_per_s=0.4,
                              peak_sessions_per_s=0.56, period_s=600.0)
    return population_trace(np.random.default_rng(seed), config)


class VerifiedGateway(FleetGateway):
    """A gateway that checks its cached routing state on every use.

    Each routable-pool lookup is compared with an uncached scan of the
    up devices, the outstanding-work counters with a live per-device
    sum, ``_pressure`` with its formula over live device state, and
    every device run's backlog and span-key counters with a scan of its
    requests, so a stale cache or counter fails at the lookup that used
    it.
    """

    checks = 0

    def _routable(self, t):
        pool = super()._routable(t)
        for device in self.devices:
            check_run_counters(device.run)
        up = [d for d in self.devices if not d.is_down(t)]
        fresh = self._routable_scan(t, up)
        assert [d.name for d in pool] == [d.name for d in fresh]
        outstanding = sum(d.outstanding_requests for d in self.devices)
        assert self._outstanding_total == outstanding
        if up and self.autoscale is None:
            assert self._pressure(t) == (
                sum(d.outstanding_requests for d in up)
                / sum(d.spec.max_batch_size for d in up))
        elif up:
            # Autoscale: all outstanding work over ACTIVE up capacity.
            active = [d for d in up
                      if self.autoscale.accepts_routes(d.name)]
            assert self._pressure(t) == (
                outstanding / sum(d.spec.max_batch_size for d in active)
                if active else math.inf)
        self.checks += 1
        return pool


_MASK = 2 ** 64 - 1


def _reference_key(data):
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def _name_keys(names):
    """The candidates' rendezvous name keys, as a gateway hashes them."""
    return partition_module._keys([n.encode() for n in names])


def _reference_winner(session, names):
    """The rendezvous winner by definition, in plain Python ints: the
    largest splitmix64 finalizer of ``key(f"{session}:") ^ key(name)``,
    where a key is the first 8 bytes, little-endian, of the sha256;
    ties go to the larger name."""
    head = _reference_key(f"{session}:".encode())

    def weight(name):
        z = head ^ _reference_key(name.encode())
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    return max(names, key=lambda name: (weight(name), name))


def _gateway(policy, cls=FleetGateway, **kwargs):
    faults = kwargs.get("faults")
    fleet = build_fleet(4, mix="balanced", max_batch_size=1,
                        prefix_cache_mb=8.0, faults=faults)
    return cls(fleet, policy=policy, **kwargs)


class TestOracleEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_vector_trace_matches_scalar_oracle(self, policy):
        trace = _trace()
        fast = _gateway(policy)
        report = fast.run_trace(trace)
        assert fast.last_mode == "vector"

        oracle = _gateway(policy, mode="scalar")
        expected = oracle.run_trace(trace)
        assert oracle.last_mode == "scalar"

        assert isinstance(report, FleetTraceReport)
        assert report.to_json() == expected.to_json()
        assert report.completed == trace.n
        assert report.lost == 0

    def test_prefix_affinity_exercises_the_cache(self):
        report = _gateway("prefix-affinity").run_trace(_trace())
        hits = sum(d.prefix_hits for d in report.devices)
        misses = sum(d.prefix_misses for d in report.devices)
        assert hits > 0
        assert misses > 0
        # Affinity keeps every session on one device, so repeat turns
        # hit strictly more often than round-robin's scattered sessions.
        scattered = _gateway("round-robin").run_trace(_trace())
        assert hits > sum(d.prefix_hits for d in scattered.devices)


class TestStreamingIdentity:
    @pytest.mark.parametrize("chunk_size", [7, 64, 100_000])
    def test_chunk_size_is_invisible(self, chunk_size):
        trace = _trace()
        baseline = _gateway("prefix-affinity").run_trace(trace)
        chunked = _gateway("prefix-affinity").run_trace(
            trace.chunks(chunk_size))
        assert chunked.to_json() == baseline.to_json()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_executor_choice_is_invisible(self, executor):
        trace = _trace()
        serial = _gateway("prefix-affinity").run_trace(trace)
        parallel = _gateway("prefix-affinity").run_trace(
            trace, jobs=3, executor=executor)
        assert parallel.to_json() == serial.to_json()

    def test_chunk_iterable_matches_trace_object(self):
        trace = _trace()
        from_trace = _gateway("round-robin").run_trace(trace)
        from_chunks = _gateway("round-robin").run_trace(trace.chunks(50))
        assert from_chunks.to_json() == from_trace.to_json()

    def test_parent_devices_stay_pristine(self):
        # Shares run on clones: the gateway's own devices must be
        # reusable (and byte-identical) for a second pass.
        gateway = _gateway("prefix-affinity")
        first = gateway.run_trace(_trace())
        second = _gateway("prefix-affinity").run_trace(_trace())
        assert first.to_json() == second.to_json()


class TestValidationAndEligibility:
    def test_argument_validation(self):
        gateway = _gateway("round-robin")
        trace = _trace(requests=8)
        with pytest.raises(ValueError):
            gateway.run_trace(trace, jobs=0)
        with pytest.raises(ValueError):
            gateway.run_trace(trace, executor="fork")

    def test_mode_vector_rejects_ineligible_config(self):
        hedged = _gateway("round-robin", mode="vector",
                          hedge=HedgeConfig())
        assert not hedged.vector_eligible()
        with pytest.raises(ValueError):
            hedged.run_trace(_trace(requests=8))

    def test_least_outstanding_routes_through_the_scalar_core(self):
        gateway = _gateway("least-outstanding")
        assert not gateway.vector_eligible()
        report = gateway.run_trace(_trace(requests=40))
        assert gateway.last_mode == "scalar"
        assert report.completed == 40


class TestRoutingFastPath:
    def test_trace_winner_matches_scalar_rendezvous(self):
        gateway = _gateway("prefix-affinity")
        names = [d.name for d in gateway.devices]
        for session in (0, 1, 7, 123, 99999):
            key = session_key(session)
            # The trace partition inlines the key bytes as b"s%d:".
            assert b"s%d:" % session == key.encode() + b":"
            winner = partition_module._rendezvous_winners(
                (b"s%d:" % session,), _name_keys(names))[0]
            assert names[winner] == _reference_winner(key, names)
            # The scalar loop routes a turn to the same device.
            turn = FleetRequest(request=GenerationRequest(0, 64, 16),
                                arrival_s=0.0, session=key)
            assert gateway._pick(turn, 0.0).name == names[winner]

    @pytest.mark.parametrize("count", [1, 2, 7, 32])
    @pytest.mark.parametrize("block_bytes", [None, 8 * 32 * 3])
    def test_bulk_rendezvous_matches_the_definition(self, count,
                                                    block_bytes,
                                                    monkeypatch):
        # Random sessions against random names; the small block runs
        # the buffer over many blocks and a short last one.
        if block_bytes is not None:
            monkeypatch.setattr(partition_module, "_RENDEZVOUS_BLOCK_BYTES",
                                block_bytes)
        rng = np.random.default_rng(count)
        names = sorted({f"dev-{int(v)}" for v in
                        rng.integers(0, 10 ** 6, 4 * count)})[:count]
        sessions = rng.integers(0, 10 ** 9, 250).tolist()
        winners = partition_module._rendezvous_winners(
            [b"s%d:" % s for s in sessions], _name_keys(names))
        assert winners.dtype == np.int64
        assert [names[w] for w in winners.tolist()] == [
            _reference_winner(session_key(s), names) for s in sessions]
        assert [partition_module._rendezvous_winners(
            (b"s%d:" % s,), _name_keys(names))[0]
            for s in sessions[:20]] == winners[:20].tolist()

    def test_no_sessions(self):
        assert partition_module._rendezvous_winners(
            [], _name_keys(["a"])).shape == (0,)

    def test_ties_go_to_the_last_maximum(self):
        # The scalar ``>=`` rule: among equal best weights the largest
        # name (the last column) wins; the top bit must not sign-flip.
        top = 2 ** 64 - 1
        weights = np.array([[5, 9, 9, 1],
                            [3, 3, 3, 3],
                            [0, 0, 0, 7],
                            [top, 0, top, 5],
                            [8, 2, 2, 2]], dtype="<u8")
        assert partition_module._last_argmax(weights).tolist() == [
            2, 3, 3, 2, 0]

    def test_scalar_pick_ranks_the_partial_pool(self):
        # One device down: each session goes to its winner among the
        # three up devices, so the sessions the down device would have
        # won move.
        gateway = _gateway("prefix-affinity")
        names = [d.name for d in gateway.devices]
        down = gateway.devices[1]
        down.crash(0.0, math.inf)
        up = [d.name for d in gateway.devices if d is not down]
        moved = 0
        for session in range(40):
            key = session_key(session)
            turn = FleetRequest(request=GenerationRequest(session, 64, 16),
                                arrival_s=0.0, session=key)
            picked = gateway._pick(turn, 0.0).name
            assert picked == _reference_winner(key, up)
            moved += _reference_winner(key, names) != picked
        assert moved > 0

    @settings(max_examples=40, deadline=None)
    @given(sessions=st.lists(st.integers(0, 10 ** 9), min_size=1,
                             max_size=60, unique=True),
           names=st.lists(st.text("abcdefgh-0123456789", min_size=1,
                                  max_size=8),
                          min_size=2, max_size=40, unique=True),
           data=st.data())
    def test_removing_a_device_moves_only_its_sessions(self, sessions,
                                                       names, data):
        # Rendezvous stability: with one device gone, exactly the
        # sessions it won move and every other session keeps its
        # winner, in the bulk ranking and in the scalar pick over a
        # pool with that device crashed.
        names = sorted(names)
        gone = data.draw(st.sampled_from(names))
        rest = [n for n in names if n != gone]
        heads = [b"s%d:" % s for s in sessions]
        before = [names[w] for w in partition_module._rendezvous_winners(
            heads, _name_keys(names)).tolist()]
        after = [rest[w] for w in partition_module._rendezvous_winners(
            heads, _name_keys(rest)).tolist()]
        assert [b != a for b, a in zip(before, after)] == [
            b == gone for b in before]
        gateway = FleetGateway(
            [FleetDevice(DeviceSpec(name=n, max_batch_size=1))
             for n in names], policy="prefix-affinity")
        (down,) = [d for d in gateway.devices if d.name == gone]
        down.crash(0.0, math.inf)
        for session, winner in zip(sessions, after):
            turn = FleetRequest(request=GenerationRequest(0, 64, 16),
                                arrival_s=0.0, session=session_key(session))
            assert gateway._pick(turn, 0.0).name == winner

    def test_sessions_spread_evenly_over_the_fleet(self):
        # 40k one-turn sessions over 32 devices: offered requests stay
        # within 10% of the mean on the busiest device (1.060 here; the
        # 1M flagship reads 1.045).  XOR of the two keys without the
        # finalizer ranks by the top differing bit and reads about 2.1.
        config = PopulationConfig(requests=40_000, mean_turns=1.0,
                                  users=50_000)
        columns, head = partition_module._collect_trace(
            population_trace(np.random.default_rng(0), config).chunks(
                10_000))
        assign = partition_module._assign(
            "prefix-affinity",
            _name_keys([f"edge-{i:02d}" for i in range(32)]),
            columns["session"], head)
        offered = np.bincount(assign, minlength=32)
        assert offered.max() / offered.mean() <= 1.10

    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_cached_views_survive_the_verify_cross_check(self, policy):
        # Every routable-pool lookup and pressure read is checked against
        # a fresh scan — a regression in the topology-version
        # invalidation fails here, not in a flaky report diff.  Crashes,
        # a flapping device and breaker trips make the caches invalidate.
        stream = poisson_stream(np.random.default_rng(0), 0.6, 120,
                                sessions=16, prefix_tokens=64)
        names = [f"edge-{i:02d}" for i in range(4)]
        faults = FleetFaultSchedule(
            names, FleetFaultConfig(horizon_s=stream[-1].arrival_s,
                                    device_crashes=2, flapping_devices=1),
            seed=0)
        gateway = _gateway(policy, faults=faults, cls=VerifiedGateway)
        report = gateway.run(stream)
        assert gateway.last_mode == "scalar"
        assert report.rerouted > 0 and report.breaker_opens > 0
        assert gateway.checks >= 120
        assert report.completed == 120
        assert gateway._outstanding_total == 0
        assert all(v == 0 for v in gateway._outstanding.values())

    def test_emergency_activation_refreshes_the_pool(self):
        # The tick at t=1 cordons edge-00; edge-01, the only ACTIVE
        # device, crashes at t=1.5.  The first arrival finds no routable
        # device and reactivates edge-00 through the emergency ladder,
        # and the second arrival's lookup must already see edge-00.
        names = ["edge-00", "edge-01"]
        faults = FleetFaultSchedule(
            names, FleetFaultConfig(horizon_s=1.0, device_crashes=0),
            seed=0, events=[DeviceFault("edge-01", "crash", 1.5, 10.0)])
        gateway = VerifiedGateway(
            build_fleet(2, mix="balanced", faults=faults),
            policy="round-robin", faults=faults,
            autoscale=AutoscaleConfig(hold_down_s=0.5))
        report = gateway.run([
            FleetRequest(request=GenerationRequest(i, 64, 16),
                         arrival_s=t, deadline_s=30.0)
            for i, t in enumerate((1.6, 1.7))])
        moves = [(t, name, dst.value)
                 for t, name, _, dst in gateway.autoscale.transitions]
        assert moves[:2] == [(1.0, "edge-00", "cordoned"),
                             (1.6, "edge-00", "active")]
        served = {d.name: d.report.completed for d in report.devices}
        assert served == {"edge-00": 2, "edge-01": 0}
        assert gateway.checks >= 2

    @pytest.mark.parametrize("shape", ["overload_study", "autoscale_study",
                                       *sorted(AFFINITY_RUNS)])
    def test_control_planes_survive_the_verify_cross_check(
            self, shape, monkeypatch):
        # The pinned brownout/hedge/flap/thermal and autoscale lifecycle
        # studies and the prefix-affinity brownout, autoscale and tiered
        # runs, every lookup cross-checked: the cached pool must be
        # exact under every control plane, and the checks must leave
        # each report byte-identical.
        gateways = []

        class Recorded(VerifiedGateway):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                gateways.append(self)

        monkeypatch.setattr(repro.fleet, "FleetGateway", Recorded)
        if shape == "overload_study":
            assert run_overload_points(seed=0)["report_sha"] == OVERLOAD_PIN
        elif shape == "autoscale_study":
            assert (run_autoscale_points(seed=0)["report_sha"]
                    == AUTOSCALE_PIN)
        else:
            _, report = AFFINITY_RUNS[shape](cls=Recorded)
            assert hashlib.sha256(report.to_json().encode()).hexdigest() \
                == AFFINITY_PINS[shape]
        # The autoscale study makes three runs (two crash-planning
        # passes, then the final run); every run routes at least 90
        # times (213 lookups in the overload run, 390 per autoscale run).
        assert gateways and all(g.checks > 90 for g in gateways)

    @pytest.mark.parametrize("shape", ["least_outstanding_crash",
                                       "tiered_fault", "latency_aware"])
    def test_backlog_counters_survive_the_verify_cross_check(self, shape):
        # The runs whose routing reads the decode backlog (least
        # outstanding breaks ties on it, latency-aware prices it): every
        # lookup checks each device's counters against a scan, through
        # crashes, flaps, reroutes and DAG release, and the pins hold.
        if shape == "least_outstanding_crash":
            gateway, report = least_outstanding_crash_run(VerifiedGateway)
            pin = LEAST_OUTSTANDING_CRASH_PIN
        elif shape == "tiered_fault":
            gateway, report = tiered_fault_run(VerifiedGateway)
            pin = TIERED_FAULT_PIN
        else:
            gateway, report = fleet_study_run("latency-aware",
                                              VerifiedGateway)
            pin = FLEET_STUDY_PINS["latency-aware"]
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == pin
        assert gateway.last_mode == "scalar"
        assert gateway.checks >= 48
        for device in gateway.devices:
            check_run_counters(device.run)
