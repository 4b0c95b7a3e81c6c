"""The simulator-owned pricing tables and the scalar loop that reads them.

Decode spans of a pure configuration are priced from exact
integer-grid tables (``engine/pricing.py``) by both event-loop cores.
The scalar oracle (``mode="scalar"``) keeps pricing spans directly, so
every auto-vs-scalar byte comparison checks the tables end to end.
This module pins the three legs of that argument: table reads equal
direct ufunc evaluation bit for bit, the oracle never touches the
tables, and the table-priced scalar loop (every tiered, fault, brownout,
hedge, autoscale and KV-fallback run) reproduces the oracle's reports.
"""

import math

import numpy as np
import pytest

import repro.engine.server as server
from repro.engine.engine import InferenceEngine
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.pricing import _TABLE_KEY_LIMIT, Pricing, integrate_span
from repro.engine.request import GenerationRequest
from repro.engine.server import ServingSimulator
from repro.faults import FleetFaultConfig, FleetFaultSchedule
from repro.fleet import (
    AutoscaleConfig,
    BrownoutConfig,
    FleetGateway,
    FleetRequest,
    HedgeConfig,
    build_fleet,
    poisson_stream,
)
from repro.hardware.soc import PowerMode, jetson_orin_agx_64gb
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


def test_integrate_span_matches_the_step_loop():
    """The one span spend both cores use equals the scalar per-step
    loop bit for bit, cut or uncut."""
    rng = np.random.default_rng(1)
    for _ in range(500):
        steps = int(rng.integers(1, 300))
        base = rng.random(steps) * 0.05
        power = rng.random(steps) * 40.0
        now, energy = rng.random() * 100.0, rng.random() * 1e4
        cut = (math.inf if rng.random() < 0.2
               else now + rng.random() * 1.2 * float(base.sum()))
        clock, joules, taken = now, energy, 0
        for j in range(steps):
            if j > 0 and clock >= cut:
                break
            clock += float(base[j])
            joules += float(base[j]) * float(power[j])
            taken += 1
        assert integrate_span(now, energy, base, power, cut) == (
            taken, clock, joules)


def _count_table_spans(monkeypatch) -> list[int]:
    """Count scalar-loop spans spent through the table path."""
    calls = [0]
    spend = server.integrate_span

    def counted(*args):
        calls[0] += 1
        return spend(*args)

    monkeypatch.setattr(server, "integrate_span", counted)
    return calls


def _tables_empty(simulator) -> bool:
    return simulator.pricing.tables == ({}, {})


def _both_modes(monkeypatch, build_and_run):
    """Run ``build_and_run(mode)`` as auto and as the oracle.

    Returns ``{mode: (report, gateway)}`` after checking that both ran
    on the scalar loop, that only the auto run read the tables, and
    that the reports are byte-identical.
    """
    out = {}
    for mode in ("scalar", "auto"):
        calls = _count_table_spans(monkeypatch)
        report, gateway = build_and_run(mode)
        assert gateway.last_mode == "scalar"
        devices = gateway.devices
        if mode == "scalar":
            assert calls[0] == 0
            assert all(_tables_empty(d.simulator) for d in devices)
        else:
            assert calls[0] > 0
            assert not all(_tables_empty(d.simulator) for d in devices)
        out[mode] = (report, gateway)
    assert out["auto"][0].to_json() == out["scalar"][0].to_json()
    return out


class TestOracleLeavesTablesEmpty:
    def test_scalar_simulator_run(self, monkeypatch):
        calls = _count_table_spans(monkeypatch)
        simulator = ServingSimulator(InferenceEngine(get_model(MODEL)),
                                     mode="scalar")
        simulator.run_poisson(np.random.default_rng(0), qps=4.0,
                              num_requests=40)
        assert simulator.last_mode == "scalar"
        assert calls[0] == 0
        assert _tables_empty(simulator)

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


class TestTablePricedScalarLoopMatchesOracle:
    """Every scalar-loop run of a pure fleet: auto JSON == scalar JSON."""

    def test_tiered_run_with_crash_and_flap(self, monkeypatch):
        config = TieringConfig(seed=0)
        models = tuple(dict.fromkeys(
            config.fast_models + config.deep_models + config.verify_models))

        def run(mode):
            faults = _fault_schedule(seed=2, horizon_s=12.0, crashes=1)
            fleet = build_fleet(4, mix="balanced", models=models,
                                faults=faults)
            gateway = FleetGateway(fleet, policy="least-outstanding",
                                   faults=faults, mode=mode)
            suite = agentic_suite(np.random.default_rng(2), 2.0, 24,
                                  deadline_s=60.0)
            return gateway.run(suite, tiering=config), gateway

        report = _both_modes(monkeypatch, run)["auto"][0]
        assert report.rerouted > 0 and report.lost == 0

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
                assert device.simulator.pricing is not before[device.name]
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
