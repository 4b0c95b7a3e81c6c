"""Tests for the event-driven serving simulator."""

import math

import numpy as np
import pytest

from repro.engine.engine import InferenceEngine
from repro.engine.request import GenerationRequest
from repro.engine.server import ServingSimulator
from repro.engine.state import RequestArrays
from repro.models.registry import get_model


@pytest.fixture(scope="module")
def simulator():
    return ServingSimulator(InferenceEngine(get_model("dsr1-qwen-1.5b")),
                            max_batch_size=8)


def _requests(count, output=64, prompt=100):
    return [GenerationRequest(i, prompt, output) for i in range(count)]


class TestNonFiniteArrivals:
    """A NaN arrival used to hang both cores (``now = max(now, nan)``
    forever); an infinite one served short.  Both are rejected up
    front, naming the row."""

    @pytest.mark.parametrize("mode", ["scalar", "auto"])
    @pytest.mark.parametrize("max_batch_size", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_run_rejects(self, mode, max_batch_size, bad):
        sim = ServingSimulator(InferenceEngine(get_model("dsr1-qwen-1.5b")),
                               max_batch_size=max_batch_size, mode=mode)
        with pytest.raises(ValueError, match="row 1 is"):
            sim.run(_requests(3, output=20), np.array([0.0, bad, 1.0]))

    def test_columns_reject(self):
        with pytest.raises(ValueError, match="row 2 is nan"):
            RequestArrays.from_columns(np.arange(3), np.full(3, 100),
                                       np.full(3, 20),
                                       np.array([0.0, 1.0, math.nan]))


class TestBasicServing:
    def test_all_requests_served(self, simulator):
        report = simulator.run(_requests(5), np.zeros(5))
        assert report.completed == 5
        assert [r.request_id for r in report.served] == [0, 1, 2, 3, 4]

    def test_output_tokens_conserved(self, simulator):
        report = simulator.run(_requests(4, output=50), np.zeros(4))
        assert report.total_output_tokens == 200

    def test_latency_includes_queueing(self, simulator):
        # 10 simultaneous arrivals, batch cap 8: two must queue.
        sim = ServingSimulator(simulator.engine, max_batch_size=8)
        report = sim.run(_requests(10), np.zeros(10))
        delays = sorted(r.queue_delay_s for r in report.served)
        assert delays[0] < 0.2           # first admitted almost immediately
        assert delays[-1] > 0.5          # last waited for a slot

    def test_spread_arrivals_reduce_queueing(self, simulator):
        burst = simulator.run(_requests(8), np.zeros(8))
        spread = simulator.run(_requests(8), np.arange(8) * 5.0)
        assert (max(r.queue_delay_s for r in spread.served)
                < max(r.queue_delay_s for r in burst.served) + 1e-9)

    def test_energy_positive(self, simulator):
        report = simulator.run(_requests(3), np.zeros(3))
        assert report.energy_joules > 0

    def test_wallclock_spans_last_finish(self, simulator):
        report = simulator.run(_requests(3), np.zeros(3))
        assert report.wallclock_s == pytest.approx(
            max(r.finish_s for r in report.served))

    def test_idle_gap_advances_clock(self, simulator):
        report = simulator.run(_requests(2), np.array([0.0, 100.0]))
        second = report.served[1]
        assert second.start_s >= 100.0

    def test_misaligned_inputs_rejected(self, simulator):
        with pytest.raises(ValueError):
            simulator.run(_requests(2), np.zeros(3))

    def test_bad_batch_cap_rejected(self, simulator):
        with pytest.raises(ValueError):
            ServingSimulator(simulator.engine, max_batch_size=0)


class TestBatchingEconomics:
    def test_higher_load_raises_throughput(self, simulator):
        rng = np.random.default_rng(0)
        low = simulator.run_poisson(rng, qps=0.05, num_requests=40,
                                    output_tokens=128)
        rng = np.random.default_rng(0)
        high = simulator.run_poisson(rng, qps=0.5, num_requests=40,
                                     output_tokens=128)
        assert high.tokens_per_second > 2 * low.tokens_per_second

    def test_higher_load_raises_latency(self, simulator):
        rng = np.random.default_rng(1)
        low = simulator.run_poisson(rng, qps=0.05, num_requests=40,
                                    output_tokens=128)
        rng = np.random.default_rng(1)
        high = simulator.run_poisson(rng, qps=1.0, num_requests=40,
                                     output_tokens=128)
        assert high.latency_percentile(50) > low.latency_percentile(50)

    def test_occupancy_tracks_load(self, simulator):
        rng = np.random.default_rng(2)
        low = simulator.run_poisson(rng, qps=0.05, num_requests=30,
                                    output_tokens=128)
        rng = np.random.default_rng(2)
        high = simulator.run_poisson(rng, qps=0.6, num_requests=30,
                                     output_tokens=128)
        assert high.mean_batch_occupancy > low.mean_batch_occupancy

    def test_percentiles_ordered(self, simulator):
        rng = np.random.default_rng(3)
        report = simulator.run_poisson(rng, qps=0.3, num_requests=30)
        assert (report.latency_percentile(50)
                <= report.latency_percentile(95))

    def test_bad_qps_rejected(self, simulator, rng):
        with pytest.raises(ValueError):
            simulator.run_poisson(rng, qps=0.0, num_requests=5)

    def test_empty_report_properties(self, simulator):
        report = simulator.run([], np.zeros(0))
        assert report.completed == 0
        assert report.achieved_qps == 0.0
        # No completions -> no latency distribution: nan, not a
        # too-good-to-be-true 0.0.
        assert math.isnan(report.latency_percentile(95))
        assert math.isnan(report.deadline_hit_rate)
