"""The shared pricing tables and the scalar loop that reads them.

Decode spans of a pure configuration are priced from exact
integer-grid tables (``engine/pricing.py``) by both event-loop cores,
through one process-wide :meth:`Pricing.shared` instance per engine
spec.  The scalar oracle (``mode="scalar"``) keeps pricing decode
directly, so every auto-vs-scalar byte comparison checks the tables end
to end.  This module pins the legs of that argument: table reads equal
direct ufunc evaluation bit for bit, the oracle never reads the tables,
warm shared tables price a run exactly as fresh ones do, and the
table-priced scalar loop (every tiered, fault, brownout, hedge,
autoscale and KV-fallback run) reproduces the oracle's reports.
It also pins what lets the auto loop skip work the oracle still does:
a stored span resumed across horizon cuts equals fresh pricing, nothing
visible happens up to ``quiet_until()``, and tiered runs that skip
quiet ticks match an oracle that runs every one.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.pricing as pricing_module
import repro.engine.server as server
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.prefix_cache import prefill_with_prefix
from repro.engine.pricing import (
    _TABLE_KEY_LIMIT,
    Pricing,
    cut_span,
    integrate_span,
    span_path,
)
from repro.engine.request import GenerationRequest
from repro.engine.server import ServingSimulator, _ServingRun
from repro.faults import FleetFaultConfig, FleetFaultSchedule
from repro.faults.degradation import DegradationPolicy
from repro.faults.injector import FaultInjector, FaultScheduleConfig
from repro.fleet import (
    AutoscaleConfig,
    BrownoutConfig,
    FleetGateway,
    FleetRequest,
    HedgeConfig,
    build_fleet,
    poisson_stream,
)
from repro.fleet.device import DeviceSpec, FleetDevice
from repro.hardware.soc import PowerMode, jetson_orin_agx_64gb
from repro.hardware.thermal import ThermalConfig
from repro.models.registry import get_model
from repro.tiering import TieringConfig
from repro.workloads.agentic import agentic_suite

MODEL = "dsr1-qwen-1.5b"
NAMES = [f"edge-{i:02d}" for i in range(4)]


def _engine(model, power_mode):
    soc = jetson_orin_agx_64gb()
    if power_mode != "MAXN":
        soc = soc.at_mode(PowerMode(power_mode))
    return InferenceEngine(get_model(model), soc=soc)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestTablesMatchDirectPricing:
    """Oracle independence: a table read is the direct ufunc value."""

    @pytest.mark.parametrize("power_mode", ["MAXN", "15W"])
    @pytest.mark.parametrize("model", [MODEL, "dsr1-llama-8b"])
    def test_span_and_step_reads_are_bit_exact(self, model, power_mode):
        engine = _engine(model, power_mode)
        kernels, power_model = engine.kernels, engine.power
        pricing = Pricing(engine, pure=True)
        rng = np.random.default_rng(0)
        cases = []
        for batch in range(1, 9):
            for _ in range(12):
                # Mostly table-sized keys, some past the table limit
                # (priced directly), and generated sums below ``batch``
                # (the max(mean, 1.0) clamp).
                base = _TABLE_KEY_LIMIT if rng.random() < 0.2 else 0
                ctx_sum = base + int(rng.integers(batch, 60_000))
                gen_sum = base + int(rng.integers(
                    0, 4096 if rng.random() < 0.7 else 2 * batch))
                cases.append((batch, ctx_sum, gen_sum,
                              int(rng.integers(1, 200))))
        assert any(c[1] > _TABLE_KEY_LIMIT for c in cases)
        assert any(c[2] < c[0] for c in cases)
        # Pass 0 fills the tables, pass 1 reads them back.
        for _ in range(2):
            for batch, ctx_sum, gen_sum, steps in cases:
                j = np.arange(steps, dtype=np.float64)
                base, power = pricing.span(batch, ctx_sum, gen_sum, steps)
                assert _bits(base) == _bits(kernels.decode_step_seconds(
                    engine.profile, (ctx_sum + batch * j) / batch, batch))
                assert _bits(power) == _bits(power_model.decode_power(
                    np.maximum((gen_sum + batch * j) / batch, 1.0), batch))
                step_base, step_power = pricing.span(batch, ctx_sum,
                                                     gen_sum, 1)
                assert _bits(step_base) == _bits(kernels.decode_step_seconds(
                    engine.profile, ctx_sum / batch, batch))
                assert _bits(step_power) == _bits(power_model.decode_power(
                    max(gen_sum / batch, 1.0), batch))
        assert all(pricing.tables[0]) and all(pricing.tables[1])


#: A small stand-in for ``_TABLE_KEY_LIMIT``, so keys at and past it
#: stay cheap to price and to store.
_LIMIT = 700

#: Batches of ``(prompt, cached)`` keys: prompts up to past the limit,
#: cached prefixes 0 or one of a few lengths below the prompt.
_PREFILL_BATCHES = st.lists(st.lists(st.tuples(
    st.one_of(st.integers(1, 300), st.integers(_LIMIT - 3, _LIMIT + 3)),
    st.sampled_from([0, 0, 16, 64, 250])), max_size=30),
    min_size=1, max_size=6)


def _direct_prefill(engine, prompt, cached):
    """A batch-1 prefill priced as a direct evaluation prices it."""
    return (prefill_with_prefix(engine, prompt, cached).seconds,
            engine.power.prefill_power(prompt - cached))


class TestPrefillTables:
    """``prefills`` is :meth:`Pricing.prefill` of each key, bit for
    bit, and both read one set of dense per-cached-prefix tables."""

    @pytest.fixture(scope="class")
    def engine(self):
        return _engine(MODEL, "MAXN")

    @given(batches=_PREFILL_BATCHES, pure=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bulk_equals_per_key_and_direct(self, engine, batches, pure):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pricing_module, "_TABLE_KEY_LIMIT", _LIMIT)
            bulk = Pricing(engine, pure=pure)
            single = Pricing(engine, pure=pure)
            for batch in batches:
                keys = [(p, min(c, p - 1)) for p, c in batch]
                prompt = np.array([p for p, _ in keys], dtype=np.int64)
                cached = np.array([c for _, c in keys], dtype=np.int64)
                got = bulk.prefills(prompt, cached)
                assert got.shape == (2, len(keys))
                direct = [_direct_prefill(engine, p, c) for p, c in keys]
                per_key = [single.prefill(p, c) for p, c in keys]
                assert all(type(v) is float for pair in per_key
                           for v in pair)
                assert _bits(got.T) == _bits(direct) == _bits(per_key)
                # A second read is a table read and changes nothing.
                assert _bits(bulk.prefills(prompt, cached)) == _bits(got)
            for pricing in (bulk, single):
                if not pure:
                    assert pricing.prefill_tables == {}
                for table, seconds, watts in (
                        pricing.prefill_tables.values()):
                    assert table.shape[1] <= 2 * (_LIMIT + 256)
                    assert seconds.obj.base is table
                    assert watts.obj.base is table

    def test_keys_at_and_past_the_limit_grow_no_table(self, engine,
                                                      monkeypatch):
        monkeypatch.setattr(pricing_module, "_TABLE_KEY_LIMIT", _LIMIT)
        pricing = Pricing(engine, pure=True)
        pricing.prefills(np.array([10, _LIMIT - 1]), np.array([0, 16]))
        shapes = {c: t.shape for c, (t, _, _) in
                  pricing.prefill_tables.items()}
        assert shapes == {0: (2, 267), 16: (2, _LIMIT + 256)}
        keys = [(_LIMIT, 0), (_LIMIT + 5, 16), (_LIMIT + 1, 300)]
        prompt = np.array([p for p, _ in keys])
        cached = np.array([c for _, c in keys])
        got = pricing.prefills(prompt, cached)
        assert _bits(got.T) == _bits(
            [_direct_prefill(engine, p, c) for p, c in keys])
        assert [pricing.prefill(p, c) for p, c in keys] == [
            tuple(pair) for pair in got.T.tolist()]
        assert {c: t.shape for c, (t, _, _) in
                pricing.prefill_tables.items()} == shapes

    def test_tables_grow_geometrically_and_keep_their_prices(self, engine):
        pricing = Pricing(engine, pure=True)
        first = pricing.prefills(np.array([5, 40]), np.array([0, 0]))
        (table, _, _), = pricing.prefill_tables.values()
        assert table.shape == (2, 297)
        assert np.isnan(table[0]).sum() == 297 - 2
        pricing.prefill(300)
        table, _, _ = pricing.prefill_tables[0]
        assert table.shape == (2, 594)
        assert _bits(table[:, [5, 40]]) == _bits(first)
        assert np.count_nonzero(~np.isnan(table[0])) == 3

    def test_each_new_key_is_priced_once(self, engine, monkeypatch):
        calls = []
        price = Pricing._price_prefill
        monkeypatch.setattr(Pricing, "_price_prefill", lambda self, *key: (
            calls.append(key) or price(self, *key)))
        pricing = Pricing(engine, pure=True)
        prompt = np.array([64, 200, 64, 200, 333, 64])
        cached = np.array([0, 0, 0, 16, 16, 0])
        pricing.prefills(prompt, cached)
        pricing.prefills(prompt, cached)
        pricing.prefill(64)
        pricing.prefill(333, 16)
        assert sorted(calls) == [(64, 0), (200, 0), (200, 16), (333, 16)]

    def test_empty(self, engine):
        got = Pricing(engine, pure=True).prefills(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert got.shape == (2, 0)


def _stream(seed: int, n: int = 60):
    rng = np.random.default_rng(seed)
    requests = [GenerationRequest(i, int(rng.integers(16, 600)),
                                  int(rng.integers(2, 260)))
                for i in range(n)]
    return requests, np.cumsum(rng.exponential(0.3, n))


class TestSharedPricing:
    """One memoizing ``Pricing`` per engine spec, for the process."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self, monkeypatch):
        monkeypatch.setattr(Pricing, "_registry", {})

    def test_same_spec_simulators_share_one_object(self):
        sims = [ServingSimulator(_engine(MODEL, "15W"), max_batch_size=b,
                                 policy=policy, mode=mode)
                for b, policy, mode in ((1, "fcfs", "auto"),
                                        (8, "edf", "auto"),
                                        (4, "fcfs", "scalar"))]
        devices = [FleetDevice(DeviceSpec(name=f"d{i}", power_mode="15W"))
                   for i in range(2)]
        pricing = sims[0].pricing
        assert pricing.pure
        assert all(s.pricing is pricing for s in sims)
        assert all(d.simulator.pricing is pricing for d in devices)
        # The registry prices through its own engine, no caller's.
        assert all(pricing.engine is not s.engine for s in sims)

    def test_other_model_mode_or_config_gets_another_object(self):
        engines = [_engine(MODEL, "MAXN"), _engine("dsr1-llama-8b", "MAXN"),
                   _engine(MODEL, "15W")]
        soc = jetson_orin_agx_64gb()
        engines += [InferenceEngine(get_model(MODEL), soc=soc, config=config)
                    for config in (EngineConfig(seed=1),
                                   EngineConfig(kv_cache_fraction=0.5),
                                   EngineConfig(framework="hft"))]
        shared = [ServingSimulator(e).pricing for e in engines]
        assert len({id(p) for p in shared}) == len(engines)
        for engine, pricing in zip(engines, shared):
            assert pricing is Pricing.shared(engine)
            assert (pricing.engine.model, pricing.engine.soc,
                    pricing.engine.config) == (engine.model, engine.soc,
                                               engine.config)

    def test_impure_simulators_get_private_unmemoized_pricing(self):
        engine = _engine(MODEL, "MAXN")
        thermal = ThermalConfig(heat_capacity_j_per_c=2.0,
                                conductance_w_per_c=0.2,
                                throttle_trip_c=55.0, resume_c=50.0)
        faults = FaultInjector(FaultScheduleConfig(horizon_s=60.0), seed=0)
        noisy = InferenceEngine(get_model(MODEL),
                                config=EngineConfig(power_noise_std=0.02))
        sims = [ServingSimulator(engine, faults=faults),
                ServingSimulator(engine, thermal=thermal),
                ServingSimulator(engine, degradation=DegradationPolicy(
                    timeout_s=30.0)),
                ServingSimulator(noisy)]
        shared = Pricing.shared(engine)
        for sim in sims:
            assert not sim.pricing.pure
            assert sim.pricing is not shared
            assert sim.pricing.engine is sim.engine
            sim.run_poisson(np.random.default_rng(5), qps=3.0,
                            num_requests=20)
            assert sim.pricing.prefill_tables == {}
            assert sim.pricing.tables == ({}, {})
        assert len({id(s.pricing) for s in sims}) == len(sims)
        with pytest.raises(ValueError, match="noisy"):
            Pricing.shared(noisy)

    def test_threads_racing_to_create_get_one_object(self):
        spec = DeviceSpec(name="d", power_mode="30W")
        engines = [FleetDevice(spec).engine for _ in range(32)]
        Pricing._registry.clear()  # the devices registered the spec
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(Pricing.shared, engines, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(p is got[0] for p in got)
        assert Pricing._registry == {
            (engines[0].model, engines[0].soc, engines[0].config): got[0]}

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_warm_shared_tables_price_like_a_fresh_private_pricing(
            self, batch):
        # Warm the shared tables and prefill memo with other streams,
        # on the scalar loop (EDF) and the vector core (FCFS).
        for seed, policy in ((1, "edf"), (2, "fcfs"), (3, "edf")):
            sim = ServingSimulator(_engine(MODEL, "MAXN"),
                                   max_batch_size=batch, policy=policy)
            requests, arrivals = _stream(seed)
            sim.run(requests, arrivals, np.full(len(requests), 30.0))
        shared = Pricing.shared(_engine(MODEL, "MAXN"))
        assert shared.tables[0] and shared.tables[1] and shared.prefill_tables
        for policy, core in (("fcfs", "vector"), ("edf", "scalar")):
            runs = {}
            for name in ("warm", "fresh"):
                sim = ServingSimulator(_engine(MODEL, "MAXN"),
                                       max_batch_size=batch, policy=policy)
                if name == "fresh":
                    sim.pricing = Pricing(sim.engine, pure=True)
                else:
                    assert sim.pricing is shared
                requests, arrivals = _stream(4)
                runs[name] = sim.run(requests, arrivals,
                                     np.full(len(requests), 30.0)).to_json()
                assert sim.last_mode == core
            assert runs["warm"] == runs["fresh"]


def test_integrate_span_matches_the_step_loop():
    """The span spend both cores use equals the scalar per-step loop
    bit for bit, cut or uncut, from the first column (``integrate_span``)
    and from any later one (a resumed span: ``cut_span`` at offset
    ``start`` up to ``stop``); and a path priced fresh from column
    ``start`` equals the stored path's tail, which is why resuming is
    exact."""
    rng = np.random.default_rng(1)
    resumed = 0
    for _ in range(500):
        steps = int(rng.integers(1, 300))
        base = rng.random(steps) * 0.05
        power = rng.random(steps) * 40.0
        now, energy = rng.random() * 100.0, rng.random() * 1e4
        clocks, joules = [now], [energy]
        for j in range(steps):
            clocks.append(clocks[-1] + float(base[j]))
            joules.append(joules[-1] + float(base[j]) * float(power[j]))
        path = span_path(now, energy, base, power)
        assert _bits(path[0]) == _bits(clocks)
        assert _bits(path[1]) == _bits(joules)

        start = 0 if rng.random() < 0.3 else int(rng.integers(0, steps))
        stop = int(rng.integers(start + 1, steps + 1))
        resumed += start > 0
        for first, last in ((0, steps), (start, stop)):
            cut = (math.inf if rng.random() < 0.2 else clocks[first]
                   + rng.random() * 1.2 * float(base[first:last].sum()))
            end = first
            for j in range(first, last):
                if j > first and clocks[j] >= cut:
                    break
                end += 1
            assert cut_span(path, first, last, cut) == end
            if first == 0 and last == steps:
                assert integrate_span(now, energy, base, power, cut) == (
                    end, clocks[end], joules[end])

        fresh = span_path(float(path[0, start]), float(path[1, start]),
                          base[start:], power[start:])
        assert _bits(fresh) == _bits(path[:, start:])
    assert resumed > 250


def _count_table_spans(monkeypatch) -> list[int]:
    """Count scalar-loop spans spent through the table path (each one,
    freshly priced or resumed, is cut exactly once)."""
    calls = [0]
    cut = server.cut_span

    def counted(*args):
        calls[0] += 1
        return cut(*args)

    monkeypatch.setattr(server, "cut_span", counted)
    return calls


def _count_table_reads(monkeypatch) -> list[int]:
    """Count decode-table reads (``Pricing._lookup`` calls), single
    steps included.  The tables are shared for the life of the process,
    so whether they are empty says nothing about who read them."""
    calls = [0]
    lookup = Pricing._lookup

    def counted(*args):
        calls[0] += 1
        return lookup(*args)

    monkeypatch.setattr(Pricing, "_lookup", staticmethod(counted))
    return calls


def _both_modes(monkeypatch, build_and_run):
    """Run ``build_and_run(mode)`` as auto and as the oracle.

    Returns ``{mode: (report, gateway)}`` after checking that both ran
    on the scalar loop, that only the auto run read the tables, and
    that the reports are byte-identical.
    """
    out = {}
    for mode in ("scalar", "auto"):
        calls = _count_table_spans(monkeypatch)
        reads = _count_table_reads(monkeypatch)
        report, gateway = build_and_run(mode)
        assert gateway.last_mode == "scalar"
        if mode == "scalar":
            assert calls[0] == 0
            assert reads[0] == 0
        else:
            assert calls[0] > 0
            assert reads[0] > 0
        out[mode] = (report, gateway)
    assert out["auto"][0].to_json() == out["scalar"][0].to_json()
    return out


def _pure_run(batch: int, seed: int) -> _ServingRun:
    """A table-priced scalar run of a seeded stream (own engine)."""
    rng = np.random.default_rng(seed)
    n = 40
    arrivals = np.cumsum(rng.exponential(0.4, n))
    requests = [GenerationRequest(i, int(rng.integers(16, 600)),
                                  int(rng.integers(2, 260)))
                for i in range(n)]
    simulator = ServingSimulator(InferenceEngine(get_model(MODEL)),
                                 max_batch_size=batch)
    return _ServingRun(simulator, requests, arrivals)


def _finish(run: _ServingRun) -> str:
    run.drain()
    run.release()
    return run.report().to_json()


def _count_resumes(monkeypatch) -> list[int]:
    """Table-path spans that resumed a stored path (cut, not priced)."""
    counts = [0]
    cut, path = server.cut_span, server.span_path

    def counted_cut(*args):
        counts[0] += 1
        return cut(*args)

    def counted_path(*args):
        counts[0] -= 1
        return path(*args)

    monkeypatch.setattr(server, "cut_span", counted_cut)
    monkeypatch.setattr(server, "span_path", counted_path)
    return counts


class TestResumedSpansAndQuietBound:
    """The two facts quiet-tick skipping rests on, on a pure simulator."""

    @pytest.mark.parametrize("batch", range(1, 9))
    def test_horizon_sequences_equal_one_drain(self, monkeypatch, batch):
        whole = _finish(_pure_run(batch, seed=batch))
        resumes = _count_resumes(monkeypatch)
        for seed in range(3):
            rng = np.random.default_rng(100 * batch + seed)
            run = _pure_run(batch, seed=batch)
            horizon = 0.0
            while run.pending or run.ready or run.live:
                # Mostly sub-step horizons (many cuts inside one span),
                # some long jumps, some repeats of the last horizon.
                horizon += float(rng.choice(
                    [0.0, rng.exponential(0.02), rng.exponential(1.0)],
                    p=[0.1, 0.7, 0.2]))
                run.run_until(horizon)
            assert _finish(run) == whole
        assert resumes[0] > 0

    @pytest.mark.parametrize("batch", range(1, 9))
    def test_no_record_or_membership_change_up_to_quiet_until(self, batch):
        rng = np.random.default_rng(batch)
        run = _pure_run(batch, seed=batch)
        whole = _finish(_pure_run(batch, seed=batch))
        horizon, probed = 0.0, 0
        while run.pending or run.ready or run.live:
            quiet = run.quiet_until()
            assert quiet >= run.now
            if quiet > run.now:
                probed += 1
                served, dropped = len(run.served), len(run.dropped)
                members = [seq.index for seq in run.live]
                tau = (quiet if rng.random() < 0.4
                       else run.now + rng.random() * (quiet - run.now))
                run.run_until(tau)
                assert (len(run.served), len(run.dropped)) == (served,
                                                               dropped)
                assert [seq.index for seq in run.live] == members
            horizon = max(horizon, run.now) + rng.exponential(0.05)
            run.run_until(horizon)
        assert probed > 10
        assert _finish(run) == whole


    def test_quiet_until_follows_the_kv_headroom(self):
        # Another tenant of the KV pool takes blocks mid-span: the next
        # span is capped shorter than the stored path, and the bound
        # must shrink with it or a per-token epoch would preempt.
        run = _pure_run(4, seed=4)
        horizon = 0.0
        while not (len(run.live) > 1 and run.quiet_until() > run.now):
            horizon += 0.01
            run.run_until(horizon)
        roomy = run.quiet_until()
        run.kv.reserve_blocks(run.kv.free_blocks)
        assert run.now <= run.quiet_until() < roomy
        members = [seq.index for seq in run.live]
        run.run_until(run.quiet_until())
        assert [seq.index for seq in run.live] == members
        assert run.counters.preemptions == 0
        run.kv.release_reserved()
        run.release()


class TestOracleLeavesTablesEmpty:
    """The oracle reads no table, even when it shares a warm one."""

    def test_scalar_simulator_run(self, monkeypatch):
        calls = _count_table_spans(monkeypatch)
        reads = _count_table_reads(monkeypatch)
        simulator = ServingSimulator(InferenceEngine(get_model(MODEL)),
                                     mode="scalar")
        simulator.run_poisson(np.random.default_rng(0), qps=4.0,
                              num_requests=40)
        assert simulator.last_mode == "scalar"
        assert calls[0] == 0
        assert reads[0] == 0

    def test_scalar_gateway_run(self, monkeypatch):
        def run(mode):
            gateway = FleetGateway(build_fleet(4, mix="balanced"),
                                   policy="least-outstanding", mode=mode)
            return gateway.run(poisson_stream(
                np.random.default_rng(1), 6.0, 80, deadline_s=30.0)), gateway

        _both_modes(monkeypatch, run)


def _fault_schedule(seed, horizon_s, crashes):
    return FleetFaultSchedule(
        NAMES, FleetFaultConfig(horizon_s=horizon_s, device_crashes=crashes,
                                flapping_devices=1), seed=seed)


#: ``FleetDevice.advance_to`` calls of the oracle on each tiered case
#: below.  The oracle processes every DAG tick, so these are the counts
#: of a gateway that skips none; they change only with a deliberate
#: change to the event loop.
ORACLE_ADVANCES = {"flap": 1047, "valve": 274, "tick": 2512}


def _count_advances(monkeypatch) -> list[int]:
    calls = [0]
    advance = FleetDevice.advance_to

    def counted(device, t):
        calls[0] += 1
        return advance(device, t)

    monkeypatch.setattr(FleetDevice, "advance_to", counted)
    return calls


def _tiered_both_modes(monkeypatch, config, oracle_advances,
                       drain_limit_s=600.0):
    """A tiered crash + flap run as auto and as the oracle: the JSON is
    byte-identical, the oracle advances devices exactly
    ``oracle_advances`` times, and auto strictly fewer (it skips quiet
    ticks)."""
    models = tuple(dict.fromkeys(
        config.fast_models + config.deep_models + config.verify_models))
    advances = {}

    def run(mode):
        calls = _count_advances(monkeypatch)
        faults = _fault_schedule(seed=2, horizon_s=12.0, crashes=1)
        fleet = build_fleet(4, mix="balanced", models=models, faults=faults)
        gateway = FleetGateway(fleet, policy="least-outstanding",
                               faults=faults, drain_limit_s=drain_limit_s,
                               mode=mode)
        suite = agentic_suite(np.random.default_rng(2), 2.0, 24,
                              deadline_s=60.0)
        report = gateway.run(suite, tiering=config)
        advances[mode] = calls[0]
        return report, gateway

    report = _both_modes(monkeypatch, run)["auto"][0]
    assert advances["scalar"] == oracle_advances
    assert advances["auto"] < advances["scalar"]
    return report


class TestTablePricedScalarLoopMatchesOracle:
    """Every scalar-loop run of a pure fleet: auto JSON == scalar JSON."""

    def test_tiered_run_with_crash_and_flap(self, monkeypatch):
        report = _tiered_both_modes(monkeypatch, TieringConfig(seed=0),
                                    oracle_advances=ORACLE_ADVANCES["flap"])
        assert report.rerouted > 0 and report.lost == 0

    def test_tiered_run_through_the_drain_limit_valve(self, monkeypatch):
        valves = []
        settle = FleetGateway._settle_dag

        def recorded(gateway, dag, t, *args):
            ended = settle(gateway, dag, t, *args)
            if ended:
                valves.append(t)
            return ended

        monkeypatch.setattr(FleetGateway, "_settle_dag", recorded)
        report = _tiered_both_modes(monkeypatch, TieringConfig(seed=0),
                                    oracle_advances=ORACLE_ADVANCES["valve"],
                                    drain_limit_s=8.0)
        # The valve fired in both runs, at the same tick.  This limit
        # falls inside a quiet stretch of the fleet, so a skip that
        # ignored the limit would fire it tens of seconds late.
        assert len(valves) == 2 and valves[0] == valves[1]
        assert report.lost == 0

    def test_tiered_run_with_inexact_tick_sums(self, monkeypatch):
        # 0.1 has no exact binary form: the skipped chain must still
        # land every pushed tick on the float repeated addition gives.
        _tiered_both_modes(monkeypatch, TieringConfig(seed=0, tick_s=0.1),
                           oracle_advances=ORACLE_ADVANCES["tick"])

    def test_fleet_fault_schedule_run(self, monkeypatch):
        def run(mode):
            faults = _fault_schedule(seed=3, horizon_s=20.0, crashes=2)
            gateway = FleetGateway(
                build_fleet(4, mix="balanced", faults=faults),
                policy="round-robin", faults=faults, max_reroutes=1,
                mode=mode)
            return gateway.run(poisson_stream(
                np.random.default_rng(3), 8.0, 160, deadline_s=30.0)), gateway

        report = _both_modes(monkeypatch, run)["auto"][0]
        assert report.rerouted > 0

    def test_brownout_and_hedge_run(self, monkeypatch):
        def run(mode):
            gateway = FleetGateway(
                build_fleet(4, mix="balanced", max_batch_size=4),
                policy="least-outstanding", brownout=BrownoutConfig(),
                hedge=HedgeConfig(min_age_s=2.0, age_factor=1.5),
                mode=mode)
            return gateway.run(poisson_stream(
                np.random.default_rng(4), 24.0, 200, deadline_s=20.0)), gateway

        report = _both_modes(monkeypatch, run)["auto"][0]
        assert report.hedged > 0
        assert report.max_brownout_tier > 0

    def test_autoscale_run_swaps_pricing_on_dvfs(self, monkeypatch):
        def run(mode):
            gateway = FleetGateway(
                build_fleet(3, mix="balanced", max_batch_size=4),
                policy="least-outstanding", autoscale=AutoscaleConfig(),
                seed=0, mode=mode)
            before = {d.name: d.simulator.pricing for d in gateway.devices}
            # A sparse trickle through a trough (scale-down and a DVFS
            # downshift of the survivor), then a flash crowd.
            stream = [FleetRequest(GenerationRequest(i, 64, 32),
                                   arrival_s=2.0 + 15.0 * i)
                      for i in range(8)]
            stream += [FleetRequest(GenerationRequest(8 + i, 64, 64),
                                    arrival_s=130.0 + 0.05 * i)
                       for i in range(20)]
            report = gateway.run(stream)
            switched = [d for d in gateway.devices if d.dvfs_switches]
            assert switched
            for device in switched:
                # The switched-to mode's shared memo, on the new SoC.
                pricing = device.simulator.pricing
                assert pricing is Pricing.shared(device.engine)
                assert pricing is not before[device.name]
                assert pricing.engine.soc == device.engine.soc
                assert device.simulator.mode == mode
            return report, gateway

        report = _both_modes(monkeypatch, run)["auto"][0]
        assert report.autoscale.dvfs_switches >= 1

    def test_kv_fallback_reruns_on_table_priced_scalar_loop(
            self, monkeypatch):
        model = get_model(MODEL)
        reports = {}
        for mode in ("scalar", "auto"):
            calls = _count_table_spans(monkeypatch)
            simulator = ServingSimulator(
                InferenceEngine(model), max_batch_size=8, mode=mode,
                kv_cache=PagedKVCache(KVCacheConfig(
                    bytes_per_token=model.kv_bytes_per_token,
                    capacity_bytes=8e6)))
            reports[mode] = simulator.run_poisson(
                np.random.default_rng(7), qps=20.0,
                num_requests=80).to_json()
            # auto: the vector core raised VectorFallback on KV
            # exhaustion and the rerun read the tables.
            assert simulator.last_mode == "scalar"
            assert (calls[0] > 0) == (mode == "auto")
        assert reports["auto"] == reports["scalar"]
