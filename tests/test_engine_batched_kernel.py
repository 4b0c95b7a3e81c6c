"""The batched busy-period kernel against the scalar core, byte for byte.

At batch > 1 under FCFS, when every live set fits the free KV pool
(the static bound of :meth:`~repro.engine.vector_run.VectorServingRun.
_serve_all`),
:class:`~repro.engine.vector_run.VectorServingRun` drains a share in
a few passes per chunk: a schedule pass walks the scalar loop's events
on a float guess of the clock, one gather and one sequential pass per
chunk give the exact clocks and energy, and every decision that read
the clock is verified against them.  These tests aim at that argument:
a hypothesis property over batch sizes, stop lengths, arrival shapes,
span caps and chunk sizes; arrivals on, and one ulp either side of, a
step boundary; a full batch; a wrong guess; the static KV bound at and
one block past its edge; and the price-grid cap.  A share past either
bound raises :class:`~repro.engine.vector_run.VectorFallback` and
``auto`` serves it on the scalar core.

Every kernel run is checked against the scalar loop twice: on the
shared price tables (the core a fallback runs) and as the directly
priced oracle (``mode="scalar"``).  The scalar core serves
:class:`GenerationRequest` objects, which cannot carry a zero stop
length; it serves a stop-0 row exactly like a stop-1 row (one
single-token epoch either way), so it gets ``max(stop, 1)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.vector_run as vector_run
from repro.engine.engine import InferenceEngine
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.request import GenerationRequest
from repro.engine.server import ServingSimulator, _ServingRun
from repro.engine.state import RequestArrays
from repro.engine.vector_run import VectorFallback, VectorServingRun
from repro.fleet import FleetGateway, build_fleet, poisson_stream
from repro.models.registry import get_model
from repro.workloads import PopulationConfig, population_trace

MODEL = "dsr1-qwen-1.5b"


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(get_model(MODEL))


def _cache(blocks):
    """A paged cache of exactly ``blocks`` 16-token blocks."""
    model = get_model(MODEL)
    return PagedKVCache(KVCacheConfig(
        bytes_per_token=model.kv_bytes_per_token,
        capacity_bytes=model.kv_bytes_per_token * 16 * blocks))


def _sim(engine, blocks=None, **kwargs):
    if blocks is not None:
        kwargs["kv_cache"] = _cache(blocks)
    return ServingSimulator(engine, **kwargs)


def _vector(engine, columns, **kwargs):
    """(report JSON, run) of one direct vector run."""
    run = VectorServingRun(_sim(engine, **kwargs),
                           arrays=RequestArrays.from_columns(*columns))
    return run.execute().to_json(), run


def _requests(columns):
    rid, prompt, stop, arrival = columns
    return ([GenerationRequest(int(i), int(p), max(int(s), 1))
             for i, p, s in zip(rid, prompt, stop)],
            np.asarray(arrival, dtype=float))


def _scalar(engine, columns, **kwargs):
    """The directly priced oracle's report JSON."""
    sim = _sim(engine, mode="scalar", **kwargs)
    return sim.run(*_requests(columns)).to_json()


def _assert_agree(engine, columns, **kwargs):
    """The kernel, the table-priced scalar loop and the oracle agree on
    every byte; returns the kernel run."""
    got, run = _vector(engine, columns, **kwargs)
    loop = _ServingRun(_sim(engine, **kwargs), *_requests(columns))
    assert got == loop.execute().to_json() == _scalar(engine, columns,
                                                      **kwargs)
    return run


def _assert_falls_back(engine, columns, **kwargs):
    """The vector run refuses the share, and ``auto`` serves it on the
    scalar core with the oracle's bytes."""
    run = VectorServingRun(_sim(engine, **kwargs),
                           arrays=RequestArrays.from_columns(*columns))
    with pytest.raises(VectorFallback):
        run.execute()
    auto = _sim(engine, **kwargs)
    got = auto.run(*_requests(columns)).to_json()
    assert auto.last_mode == "scalar"
    assert got == _scalar(engine, columns, **kwargs)


@st.composite
def shares(draw):
    """Columns of one share: stops 0 and 1 likely, Poisson arrivals
    grouped into tied bursts of a drawn size (1 = no ties)."""
    n = draw(st.integers(1, 40))
    prompt = draw(st.lists(st.integers(1, 700), min_size=n, max_size=n))
    stop = draw(st.lists(st.one_of(st.sampled_from([0, 1]),
                                   st.integers(2, 300)),
                         min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrival = np.cumsum(rng.exponential(
        draw(st.sampled_from([0.02, 0.3, 2.0])), n))
    burst = draw(st.integers(1, 6))
    arrival = arrival[np.arange(n) // burst * burst]
    return (np.arange(n), np.array(prompt), np.array(stop), arrival)


class TestProperty:
    @settings(max_examples=60, deadline=None)
    @given(columns=shares(), max_batch_size=st.sampled_from([2, 3, 4, 8, 16]),
           max_span_steps=st.sampled_from([None, 1, 7]),
           chunk_steps=st.sampled_from([1, 37, vector_run._CHUNK_STEPS]))
    def test_kernel_loop_and_oracle_agree(self, engine, columns,
                                          max_batch_size, max_span_steps,
                                          chunk_steps):
        # Small chunks carry live sequences, clocks and energy across
        # many chunk boundaries.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vector_run, "_CHUNK_STEPS", chunk_steps)
            _assert_agree(engine, columns, max_batch_size=max_batch_size,
                          max_span_steps=max_span_steps)


class TestBoundaries:
    def test_arrivals_on_and_beside_step_boundaries(self, engine):
        """Request 1 lands at, and one ulp either side of, the clock
        after request 0's prefill and after each of its first decode
        steps: every arrival cut and admission tie the guess can miss."""
        sim = ServingSimulator(engine, max_batch_size=2)
        prompt = 180
        prefill, _ = sim.pricing.prefill(prompt)
        seconds, _ = sim.pricing.span(1, prompt, 1, 12)
        edges = np.cumsum(np.concatenate(([prefill], seconds)))
        for edge in edges.tolist():
            for at in (np.nextafter(edge, -np.inf), edge,
                       np.nextafter(edge, np.inf)):
                columns = (np.arange(3), np.array([prompt, 64, 90]),
                           np.array([40, 9, 30]),
                           np.array([0.0, at, edges[-1] + 0.5]))
                _assert_agree(engine, columns, max_batch_size=2)

    @pytest.mark.parametrize("chunk_steps", [1, vector_run._CHUNK_STEPS])
    def test_a_chunk_opening_with_an_idle_jump(self, engine, monkeypatch,
                                               chunk_steps):
        """The first arrival after 0 jumps the clock at column 0, so the
        jump, not the chunk's carry, begins the first period."""
        jumps = []
        schedule = VectorServingRun._schedule

        def spy(run, *args):
            chunk, after = schedule(run, *args)
            jumps.append(chunk.reset_col[:1])
            return chunk, after

        monkeypatch.setattr(VectorServingRun, "_schedule", spy)
        monkeypatch.setattr(vector_run, "_CHUNK_STEPS", chunk_steps)
        columns = (np.arange(5), np.array([300, 40, 120, 90, 60]),
                   np.array([30, 1, 12, 50, 3]),
                   np.array([7.5, 7.5, 7.6, 40.0, 40.0]))
        _assert_agree(engine, columns, max_batch_size=4)
        assert jumps[0] == [0]

    def test_full_batch_takes_no_cut(self, engine):
        # Two long requests fill batch 2; the third arrives mid-span and
        # waits for a finish instead of cutting the span.
        columns = (np.arange(4), np.array([120, 300, 50, 75]),
                   np.array([200, 150, 20, 5]),
                   np.array([0.0, 0.0, 1.0, 1.0]))
        _assert_agree(engine, columns, max_batch_size=2)

    @pytest.mark.parametrize("chunk_steps", [37, vector_run._CHUNK_STEPS])
    @pytest.mark.parametrize("scale", [0.0, 2.0])
    def test_a_wrong_guess_is_repaired(self, engine, monkeypatch, scale,
                                       chunk_steps):
        """A stalled guess (spans never reach an arrival) and a doubled
        one (spans cut early) both get every decision repaired, within
        one chunk or across many."""
        estimates = vector_run._prefix_estimates

        def skewed(*args):
            guess, index = estimates(*args)
            return [scale * g for g in guess], index

        monkeypatch.setattr(vector_run, "_prefix_estimates", skewed)
        monkeypatch.setattr(vector_run, "_CHUNK_STEPS", chunk_steps)
        rng = np.random.default_rng(8)
        n = 50
        columns = (np.arange(n), rng.integers(16, 600, n),
                   rng.integers(1, 200, n),
                   np.cumsum(rng.exponential(0.4, n)))
        fast = _assert_agree(engine, columns, max_batch_size=4)
        assert fast.boundary_repairs > 0

    def test_an_iteration_wrong_after_its_repair_raises(self, engine,
                                                        monkeypatch):
        """An exact pass one second late makes an arrival the schedule
        left waiting look ready; the rerun iteration, started on that
        late clock, is wrong again.  The repair loop names it instead of
        rescheduling the chunk forever."""
        segment_clocks = vector_run._segment_clocks
        calls = []

        def late(path, first, begin):
            calls.append(None)
            if len(calls) > 100:
                pytest.fail("the repair loop did not stop")
            segment_clocks(path, first, begin)
            path.real += 1.0

        monkeypatch.setattr(vector_run, "_segment_clocks", late)
        rng = np.random.default_rng(8)
        n = 50
        columns = (np.arange(n), rng.integers(16, 600, n),
                   rng.integers(1, 200, n),
                   np.cumsum(rng.exponential(0.4, n)))
        with pytest.raises(RuntimeError,
                           match="iteration 0 wrong after its repair"):
            _vector(engine, columns, max_batch_size=4)


class TestStaticBounds:
    """The kernel runs exactly when ``max_batch_size`` largest final
    contexts fit the free pool and its price grids stay under the cap;
    past either bound the share takes the scalar loop."""

    # Largest final context 240 + 16 = 256 tokens: 16 blocks.
    COLUMNS = (np.arange(4), np.array([240, 30, 100, 240]),
               np.array([16, 9, 40, 16]), np.array([0.0, 0.5, 0.7, 80.0]))

    def test_an_exact_fit_stays_on_the_kernel(self, engine):
        _assert_agree(engine, self.COLUMNS, max_batch_size=2, blocks=32)

    def test_one_block_over_takes_the_loop(self, engine):
        _assert_falls_back(engine, self.COLUMNS, max_batch_size=2,
                           blocks=31)

    def test_outsized_grids_take_the_loop(self, engine, monkeypatch):
        # Batch 2 at a largest final context of 256 needs 3 x 256 keys.
        monkeypatch.setattr(vector_run, "_GRID_KEYS", 3 * 256 - 1)
        _assert_falls_back(engine, self.COLUMNS, max_batch_size=2)


class TestFleetPath:
    def test_batched_fleet_runs_the_kernel(self, monkeypatch):
        calls = []
        drain = VectorServingRun._drain_batched

        def spy(run, *columns):
            calls.append(run.arrays.n)
            return drain(run, *columns)

        monkeypatch.setattr(VectorServingRun, "_drain_batched", spy)
        reports = {}
        for mode in ("auto", "scalar"):
            gateway = FleetGateway(build_fleet(4, max_batch_size=8),
                                   policy="round-robin", mode=mode)
            stream = poisson_stream(np.random.default_rng(6), 4.0, 200)
            reports[mode] = gateway.run(stream).to_json()
            assert gateway.last_mode == mode.replace("auto", "vector")
        assert reports["auto"] == reports["scalar"]
        assert sorted(calls) == [50, 50, 50, 50]

    def test_prefix_caches_and_executors_agree_with_the_oracle(self):
        """Prefix-cache hits replayed in admission order, one shared
        pricing table per spec filled from several threads or priced
        in several processes: every executor matches the oracle."""
        config = PopulationConfig(requests=300, mean_turns=5.0, users=80,
                                  base_sessions_per_s=0.5,
                                  peak_sessions_per_s=0.7, period_s=600.0)
        trace = population_trace(np.random.default_rng(3), config)
        reports = []
        for mode, jobs, executor in (("scalar", 1, "thread"),
                                     ("auto", 1, "thread"),
                                     ("auto", 3, "thread"),
                                     ("auto", 3, "process")):
            gateway = FleetGateway(
                build_fleet(6, max_batch_size=4, prefix_cache_mb=8.0),
                policy="prefix-affinity", mode=mode)
            reports.append(gateway.run_trace(trace, jobs=jobs,
                                             executor=executor).to_json())
            assert gateway.last_mode == mode.replace("auto", "vector")
        assert len(set(reports)) == 1
