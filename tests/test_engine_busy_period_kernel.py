"""The batch-1 busy-period kernel against the scalar oracle, byte for byte.

At batch 1 under FCFS, :class:`~repro.engine.vector_run.VectorServingRun`
drains the whole population in one busy-period pass: a float Lindley
pass guesses the busy periods, one sequential pass per period gives
the exact clocks (and the energy, in the same complex128 pass), and
every boundary is verified against them.
These tests aim at the corners of that argument — boundary ties one ulp
either side, a wrong guess, the static KV check, span caps, degenerate
shares — at the shares that must keep the scalar core's epoch loop
(EDF, a KV-tight batch: the vector run raises ``VectorFallback``), and
at the fleet drain sharing one pricing table on every executor.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.vector_run as vector_run
from repro.engine.engine import InferenceEngine
from repro.engine.kv_cache import KVCacheConfig, PagedKVCache
from repro.engine.pricing import Pricing
from repro.engine.request import GenerationRequest
from repro.engine.server import ServedRequest, ServingSimulator
from repro.engine.state import RequestArrays
from repro.engine.vector_run import VectorFallback, VectorServingRun
from repro.fleet import FleetGateway, build_fleet, poisson_stream
from repro.fleet.device import DeviceSpec, FleetDevice
from repro.models.registry import get_model
from repro.workloads import PopulationConfig, population_trace

MODEL = "dsr1-qwen-1.5b"


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(get_model(MODEL))


def _stream(seed, n=40, gap_s=3.0):
    rng = np.random.default_rng(seed)
    prompt = rng.integers(16, 600, n)
    output = rng.integers(1, 200, n)
    requests = [GenerationRequest(i, int(prompt[i]), int(output[i]))
                for i in range(n)]
    return requests, np.cumsum(rng.exponential(gap_s, n))


def _kernel_run(engine, requests, arrivals, **kwargs):
    """(report JSON, run) of one direct vector run."""
    sim = ServingSimulator(engine, **kwargs)
    run = VectorServingRun(sim, arrays=RequestArrays(requests, arrivals))
    return run.execute().to_json(), run


def _scalar_json(engine, requests, arrivals, **kwargs):
    sim = ServingSimulator(engine, mode="scalar", **kwargs)
    return sim.run(requests, arrivals).to_json()


class TestBoundaryTies:
    """Ready times at, and one ulp either side of, the previous finish."""

    def test_ties_match_the_oracle_and_exercise_repairs(self, engine):
        requests, arrivals = _stream(5, n=30)
        oracle = ServingSimulator(engine, max_batch_size=1, mode="scalar")
        finish = {r.request_id: r.finish_s
                  for r in oracle.run(requests, arrivals).served}
        repairs = 0
        for toward in (-np.inf, None, np.inf):
            for k in range(1, len(requests)):
                tied = arrivals.copy()
                tied[k] = (finish[k - 1] if toward is None
                           else np.nextafter(finish[k - 1], toward))
                got, run = _kernel_run(engine, requests, tied,
                                       max_batch_size=1)
                assert got == _scalar_json(engine, requests, tied,
                                           max_batch_size=1)
                repairs += run.boundary_repairs
        assert repairs > 0

    @pytest.mark.parametrize("chunk_steps", [37, vector_run._CHUNK_STEPS])
    @pytest.mark.parametrize("guess", ["all-resets", "no-resets"])
    def test_a_wrong_guess_is_repaired(self, engine, monkeypatch, guess,
                                       chunk_steps):
        """Each repair re-chains the path's tail from the energy before
        it; with small chunks some repair lands on a later chunk's first
        request, so its re-chain starts from the energy carried in."""
        requests, arrivals = _stream(8, n=50, gap_s=2.0)
        monkeypatch.setattr(vector_run, "_CHUNK_STEPS", chunk_steps)
        monkeypatch.setattr(
            vector_run, "_guess_resets",
            lambda service, ready, carry: np.full(ready.shape[0],
                                                  guess == "all-resets"))
        got, run = _kernel_run(engine, requests, arrivals, max_batch_size=1)
        assert run.boundary_repairs > 0
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=1)

    @pytest.mark.parametrize("gap_s", [0.4, 3.0])
    def test_the_guess_reads_table_sums(self, engine, monkeypatch, gap_s):
        """Each request's service guess is its prefill plus a prefix-sum
        difference of the decode seconds: within rounding of the sum of
        the very steps its clock runs over, and no repair needed on a
        random share."""
        requests, arrivals = _stream(6, n=80, gap_s=gap_s)
        seen = []
        exact_clocks = VectorServingRun._exact_clocks

        def spy(run, steps, watts, off, ready, carry, energy, service,
                path):
            seen.append((np.add.reduceat(steps, off[:-1]), service.copy()))
            return exact_clocks(run, steps, watts, off, ready, carry,
                                energy, service, path)

        monkeypatch.setattr(VectorServingRun, "_exact_clocks", spy)
        got, run = _kernel_run(engine, requests, arrivals, max_batch_size=1)
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=1)
        (steps_sum, service), = seen
        assert service.shape == (len(requests),)
        np.testing.assert_allclose(service, steps_sum, rtol=1e-12)
        assert run.boundary_repairs == 0

    def test_a_boundary_wrong_after_its_repair_raises(self, engine,
                                                      monkeypatch):
        """An exact pass that undoes each flip (it opens a period at
        every request) would flip the same boundary back and forth
        forever; the repair loop names it instead."""
        requests, arrivals = _stream(8, n=50, gap_s=0.4)
        period_clocks = vector_run._period_clocks
        calls = []

        def undoing(path, off, ready, reset, carry):
            calls.append(None)
            if len(calls) > 100:
                pytest.fail("the repair loop did not stop")
            reset[:] = True
            return period_clocks(path, off, ready, reset, carry)

        monkeypatch.setattr(vector_run, "_period_clocks", undoing)
        with pytest.raises(RuntimeError,
                           match="boundary 1 wrong after its repair"):
            _kernel_run(engine, requests, arrivals, max_batch_size=1)


class TestKVCheck:
    """The kernel's one upfront KV test equals the scalar loop's hazard."""

    @staticmethod
    def _sim(engine, tokens, max_batch_size, mode="auto"):
        model = get_model(MODEL)
        cache = PagedKVCache(KVCacheConfig(
            bytes_per_token=model.kv_bytes_per_token,
            capacity_bytes=model.kv_bytes_per_token * tokens))
        return ServingSimulator(engine, max_batch_size=max_batch_size,
                                kv_cache=cache, mode=mode)

    @pytest.mark.parametrize("max_batch_size", [1, 2])
    def test_outgrowing_the_pool_falls_back(self, engine, max_batch_size):
        # 256 tokens of pool: the third request's final context
        # (200 + 64) does not fit, though its prompt does.
        requests = [GenerationRequest(0, 100, 32), GenerationRequest(1, 50, 8),
                    GenerationRequest(2, 200, 64)]
        arrivals = np.array([0.0, 50.0, 100.0])
        sim = self._sim(engine, 256, max_batch_size)
        run = VectorServingRun(sim, arrays=RequestArrays(requests, arrivals))
        with pytest.raises(VectorFallback):
            run.execute()
        auto = self._sim(engine, 256, max_batch_size)
        report = auto.run(requests, arrivals)
        assert auto.last_mode == "scalar"
        scalar = self._sim(engine, 256, max_batch_size, mode="scalar")
        assert report.to_json() == scalar.run(requests, arrivals).to_json()

    def test_an_exact_fit_stays_on_the_kernel(self, engine):
        # Final context 240 + 16 = 256 tokens: exactly the pool.
        requests = [GenerationRequest(0, 240, 16), GenerationRequest(1, 30, 9)]
        arrivals = np.array([0.0, 0.5])
        sim = self._sim(engine, 256, 1)
        run = VectorServingRun(sim, arrays=RequestArrays(requests, arrivals))
        got = run.execute().to_json()
        scalar = self._sim(engine, 256, 1, mode="scalar")
        assert got == scalar.run(requests, arrivals).to_json()


class TestShapes:
    """Span caps and degenerate shares, byte for byte."""

    @pytest.mark.parametrize("span", [1, 7])
    def test_max_span_steps(self, engine, span):
        requests, arrivals = _stream(3)
        got, _ = _kernel_run(engine, requests, arrivals, max_batch_size=1,
                             max_span_steps=span)
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=1, max_span_steps=span)

    def test_empty_share(self, engine):
        got, run = _kernel_run(engine, [], np.zeros(0), max_batch_size=1)
        assert run.now == 0.0 and run.energy == 0.0
        assert got == _scalar_json(engine, [], np.zeros(0), max_batch_size=1)

    @pytest.mark.parametrize("output", [1, 57])
    def test_single_request(self, engine, output):
        requests = [GenerationRequest(0, 123, output)]
        arrivals = np.array([4.25])
        got, _ = _kernel_run(engine, requests, arrivals, max_batch_size=1)
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=1)

    def test_one_token_outputs(self, engine):
        requests, arrivals = _stream(9, n=30, gap_s=0.05)
        requests = [GenerationRequest(r.request_id, r.prompt_tokens, 1)
                    for r in requests]
        got, _ = _kernel_run(engine, requests, arrivals, max_batch_size=1)
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=1)

    @pytest.mark.parametrize("max_batch_size", [1, 8])
    def test_one_token_requests_with_wide_gaps(self, engine,
                                               max_batch_size):
        # Every request is its own two-step busy period: the clocks run
        # entirely through the short periods' column pass, with no slice.
        rng = np.random.default_rng(13)
        n = 300
        requests = [GenerationRequest(i, int(p), 1)
                    for i, p in enumerate(rng.integers(16, 400, n))]
        arrivals = np.cumsum(rng.exponential(10.0, n))
        got, _ = _kernel_run(engine, requests, arrivals,
                             max_batch_size=max_batch_size)
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=max_batch_size)

    def test_zero_stop_takes_one_step(self, engine):
        # Population columns may carry stop 0; the scalar loop serves it
        # like stop 1 (one single-token epoch), and so must the kernel.
        rng = np.random.default_rng(2)
        n = 25
        prompt = rng.integers(16, 400, n)
        stop = rng.integers(0, 3, n)
        arrivals = np.cumsum(rng.exponential(0.2, n))
        sim = ServingSimulator(engine, max_batch_size=1)
        run = VectorServingRun(sim, arrays=RequestArrays.from_columns(
            np.arange(n), prompt, stop, arrivals))
        requests = [GenerationRequest(i, int(prompt[i]), max(int(stop[i]), 1))
                    for i in range(n)]
        assert run.execute().to_json() == _scalar_json(
            engine, requests, arrivals, max_batch_size=1)


class TestReport:
    @pytest.mark.parametrize("max_batch_size", [1, 4])
    def test_served_list_equals_the_per_row_build(self, engine,
                                                  max_batch_size):
        # Duplicate request ids keep completion order among themselves;
        # every other row has a deadline.
        requests, arrivals = _stream(11, n=60, gap_s=0.4)
        rid = np.array([r.request_id % 23 for r in requests])
        deadlines = np.where(np.arange(60) % 2 == 0, 25.0, np.nan)
        sim = ServingSimulator(engine, max_batch_size=max_batch_size)
        arrays = RequestArrays.from_columns(
            rid, [r.prompt_tokens for r in requests],
            [max(r.stop_lengths()) for r in requests], arrivals, deadlines,
            np.arange(60) % 2 == 0)
        run = VectorServingRun(sim, arrays=arrays)
        served = run.execute().served
        expected = [ServedRequest(
            request_id=int(arrays.request_id[i]),
            arrival_s=float(arrays.arrival_s[i]),
            start_s=float(arrays.start_s[i]),
            finish_s=float(arrays.finish_s[i]),
            prompt_tokens=int(arrays.prompt_tokens[i]),
            output_tokens=int(arrays.context[i] - arrays.prompt_tokens[i]),
            deadline_s=(float(arrays.deadline_s[i])
                        if arrays.deadline_mask[i] else None),
            prefill_s=float(arrays.prefill_s[i]),
        ) for i in run._done]
        expected.sort(key=lambda r: r.request_id)
        assert served == expected
        assert repr(served) == repr(expected)


class TestGather:
    """``_gather`` reads exactly the entries a per-run loop reads."""

    @given(st.lists(st.tuples(st.sampled_from([0, 0, 1, 1, 2, 7]),
                              st.integers(min_value=1, max_value=40),
                              st.integers(min_value=0, max_value=50),
                              st.integers(min_value=0, max_value=50)),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_per_run_reference(self, runs):
        stride, length, first_a, first_b = (
            np.array(column, dtype=np.int64) for column in zip(*runs))
        size = int((np.maximum(first_a, first_b)
                    + stride * (length - 1)).max()) + 1
        seconds = np.random.default_rng(len(runs)).random(size)
        watts = -np.arange(size, dtype=np.float64)
        got = np.empty((2, int(length.sum())))
        vector_run._gather(stride, length, (seconds, first_a, got[0]),
                           (watts, first_b, got[1]))
        for flat, first, out in ((seconds, first_a, got[0]),
                                 (watts, first_b, got[1])):
            expected = [flat[f + s * j] for f, s, n in zip(
                first.tolist(), stride.tolist(), length.tolist())
                for j in range(n)]
            assert out.tolist() == expected

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=40),
                              st.integers(min_value=0, max_value=50)),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_unit_stride_skips_the_stride_pass(self, runs):
        """``stride=None`` reads what unit strides read (the batch-1
        drain's one-step prefill runs read their first entry either
        way)."""
        length, first = (np.array(column, dtype=np.int64)
                         for column in zip(*runs))
        flat = np.random.default_rng(len(runs)).random(
            int((first + length).max()))
        got, unit = np.empty((2, int(length.sum())))
        vector_run._gather(None, length, (flat, first, got))
        vector_run._gather(np.ones_like(length), length, (flat, first, unit))
        assert got.tobytes() == unit.tobytes()


def _reference_clocks(steps, first, begin, watts=None, energy=0.0):
    """The scalar ``now +=`` chain, one period at a time, and with
    ``watts`` the ``energy += seconds * watts`` chain over every step."""
    stops = list(first[1:]) + [len(steps)]
    clock = []
    joules = []
    for lo, hi, now in zip(first, stops, begin):
        for t in range(lo, hi):
            now += steps[t]
            clock.append(now)
            if watts is not None:
                energy += steps[t] * watts[t]
                joules.append(energy)
    return np.array(clock), np.array(joules)


SLICE = vector_run._SLICE_STEPS

_PERIODS = st.lists(st.one_of(st.just(1), st.integers(2, 20),
                              st.integers(SLICE - 2, SLICE + 2),
                              st.integers(SLICE, 8 * SLICE)),
                    min_size=1, max_size=25)


def _shaped(lengths, shape):
    """Period lengths of one shape: all short, all long, short runs of
    three between long periods, or as drawn."""
    if shape == "short":
        return [1 + n % (SLICE - 1) for n in lengths]
    if shape == "long":
        return [SLICE + n for n in lengths]
    if shape == "runs":
        return [1 + n % (SLICE - 1) if i % 4 < 3 else SLICE + n
                for i, n in enumerate(lengths)]
    return lengths


class TestSegmentClocks:
    """``_segment_clocks`` in step order against the scalar chains."""

    @given(_PERIODS, st.sampled_from(["mixed", "short", "long", "runs"]),
           st.integers(0, 2**32 - 1),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e7)))
    @settings(max_examples=200, deadline=None)
    def test_fused_chains_match_the_scalar_chains(self, lengths, shape,
                                                  seed, energy):
        """A complex path runs the clock and the energy in one pass;
        each part is its own sequential chain, bit for bit, with the
        energy carried in from earlier chunks."""
        lengths = _shaped(lengths, shape)
        rng = np.random.default_rng(seed)
        first = np.cumsum([0] + lengths[:-1])
        steps = rng.exponential(0.01, sum(lengths))
        watts = rng.uniform(5.0, 30.0, sum(lengths))
        begin = np.cumsum(rng.exponential(50.0, len(lengths)))
        path = np.empty(steps.shape[0], dtype=np.complex128)
        vector_run._step_chains(steps, watts, energy, path)
        vector_run._segment_clocks(path, first, begin)
        clock, joules = _reference_clocks(
            steps.tolist(), first.tolist(), begin.tolist(), watts.tolist(),
            energy)
        assert path.real.tobytes() == clock.tobytes()
        assert path.imag.tobytes() == joules.tobytes()
        assert float(path.imag[-1]) == joules[-1]

    @pytest.mark.parametrize("lengths,short_runs", [
        ([SLICE] * 9, 0),
        ([1, SLICE, 3 * SLICE + 5, 2, SLICE - 1, SLICE + 1], 2),
        ([2] * 500, 1), ([5 * SLICE], 0),
        ([3, SLICE, 4, 1, 7], 2)])
    def test_slices_are_bounded_by_the_steps(
            self, monkeypatch, lengths, short_runs):
        """Each long period takes one accumulate of both chains, each
        maximal run of short periods one energy-only accumulate."""
        fused, energy_only = [], []

        class CountingAdd:
            @staticmethod
            def accumulate(a, *args, **kwargs):
                if kwargs.get("out") is a:
                    (fused if a.dtype.kind == "c"
                     else energy_only).append(a.shape[0])
                return np.add.accumulate(a, *args, **kwargs)

        class Numpy:
            add = CountingAdd

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(vector_run, "np", Numpy())
        steps = np.full(sum(lengths), 0.25)
        path = np.empty(steps.shape[0], dtype=np.complex128)
        vector_run._step_chains(steps, np.full(steps.shape, 2.0), 0.0, path)
        vector_run._segment_clocks(path, np.cumsum([0] + lengths[:-1]),
                                   np.zeros(len(lengths)))
        assert fused == [n for n in lengths if n >= SLICE]
        assert len(energy_only) == short_runs
        assert path.imag.tolist() == (np.arange(1, steps.shape[0] + 1)
                                      * 0.5).tolist()


class TestChunkedDrain:
    """The batch-1 drain carries the clock and the energy across chunk
    boundaries: one request per chunk, a few, or the default."""

    @pytest.mark.parametrize("chunk_steps", [1, 37, vector_run._CHUNK_STEPS])
    @pytest.mark.parametrize("gap_s", [0.3, 3.0])
    def test_chunks_match_the_oracle(self, engine, monkeypatch, chunk_steps,
                                     gap_s):
        requests, arrivals = _stream(12, n=60, gap_s=gap_s)
        monkeypatch.setattr(vector_run, "_CHUNK_STEPS", chunk_steps)
        got, run = _kernel_run(engine, requests, arrivals, max_batch_size=1)
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=1)
        scalar = ServingSimulator(engine, max_batch_size=1, mode="scalar")
        report = scalar.run(requests, arrivals)
        assert run.energy == report.energy_joules
        assert run.now == report.wallclock_s


class TestWorkArrays:
    """Both kernels' per-step arrays are kept per thread."""

    def test_reused_across_drains(self, engine):
        requests, arrivals = _stream(12, n=60, gap_s=0.3)
        for max_batch_size in (1, 8):
            first, _ = _kernel_run(engine, requests, arrivals,
                                   max_batch_size=max_batch_size)
            work = vector_run._WORK
            path, size = work.path, work.size
            assert size > 0
            _kernel_run(engine, requests[:20], arrivals[:20],
                        max_batch_size=max_batch_size)
            assert work.path is path and work.size == size
            # A drain leaves nothing in the work arrays that a report
            # reads.
            again, _ = _kernel_run(engine, requests, arrivals,
                                   max_batch_size=max_batch_size)
            assert again == first == _scalar_json(
                engine, requests, arrivals, max_batch_size=max_batch_size)

    def test_threads_drain_on_their_own_arrays(self, engine):
        streams = [(_stream(seed, n=50, gap_s=0.5), max_batch_size)
                   for max_batch_size in (1, 8) for seed in range(8)]

        def drain(task):
            stream, max_batch_size = task
            return _kernel_run(engine, *stream,
                               max_batch_size=max_batch_size)[0]

        serial = [drain(task) for task in streams]
        main_path = vector_run._WORK.path

        def threaded_drain(task):
            return drain(task), vector_run._WORK.path

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded, paths = zip(*pool.map(threaded_drain, streams,
                                                timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert list(threaded) == serial
        assert all(path is not main_path for path in paths)
        assert vector_run._WORK.path is main_path


def _periods_from_report(report) -> int:
    """Idle-to-busy transitions read off a served report: requests that
    start after every earlier-started request has finished, the first
    one included (the server starts idle)."""
    served = sorted(report.served, key=lambda r: (r.start_s, r.request_id))
    periods, busy_until = 0, -np.inf
    for r in served:
        periods += r.start_s > busy_until
        busy_until = max(busy_until, r.finish_s)
    return periods


class TestBusyPeriodCounter:
    """``busy_periods``: idle-to-busy transitions, on either kernel and
    across chunk boundaries, as the scalar report shows them."""

    @pytest.mark.parametrize("max_batch_size", [1, 4])
    @pytest.mark.parametrize("chunk_steps", [1, 37, vector_run._CHUNK_STEPS])
    @pytest.mark.parametrize("first_at_zero", [False, True])
    def test_matches_the_report(self, engine, monkeypatch, max_batch_size,
                                chunk_steps, first_at_zero):
        requests, arrivals = _stream(14, n=70, gap_s=1.5)
        if first_at_zero:
            arrivals = arrivals - arrivals[0]
        monkeypatch.setattr(vector_run, "_CHUNK_STEPS", chunk_steps)
        got, run = _kernel_run(engine, requests, arrivals,
                               max_batch_size=max_batch_size)
        scalar = ServingSimulator(engine, max_batch_size=max_batch_size,
                                  mode="scalar")
        report = scalar.run(requests, arrivals)
        assert got == report.to_json()
        assert 1 < run.busy_periods < len(requests)
        assert run.busy_periods == _periods_from_report(report)

    def test_empty_share_has_none(self, engine):
        _, run = _kernel_run(engine, [], np.zeros(0), max_batch_size=1)
        assert run.busy_periods == 0


class TestPrefillPricing:
    def test_each_distinct_prompt_priced_once(self, engine, monkeypatch):
        rng = np.random.default_rng(8)
        n = 60
        prompt = rng.choice([64, 200, 333], n)
        arrivals = np.cumsum(rng.exponential(2.0, n))
        requests = [GenerationRequest(i, int(prompt[i]), 20)
                    for i in range(n)]
        sim = ServingSimulator(engine, max_batch_size=1)
        # A fresh memo: the shared one may hold these keys already.
        sim.pricing = Pricing(sim.engine, pure=True)
        calls = []
        price = Pricing._price_prefill
        monkeypatch.setattr(Pricing, "_price_prefill", lambda self, *key: (
            calls.append(key) or price(self, *key)))
        run = VectorServingRun(sim, arrays=RequestArrays(requests, arrivals))
        got = run.execute().to_json()
        assert sorted(calls) == [(64, 0), (200, 0), (333, 0)]
        assert got == _scalar_json(engine, requests, arrivals,
                                   max_batch_size=1)


class TestEpochLoopStays:
    """FCFS takes a kernel (batch 2 the batched one); EDF and a KV-tight
    batch raise ``VectorFallback`` and keep the scalar core's epoch
    loop, which ``auto`` then runs with the oracle's bytes."""

    @staticmethod
    def _check(engine, requests, arrivals, kernel, deadlines=None,
               **kwargs):
        sim = ServingSimulator(engine, **kwargs)
        run = VectorServingRun(sim, arrays=RequestArrays(
            requests, arrivals, deadlines))
        if kernel:
            got = run.execute().to_json()
        else:
            with pytest.raises(VectorFallback):
                run.execute()
            got = sim.run(requests, arrivals, deadlines).to_json()
            assert sim.last_mode == "scalar"
        scalar = ServingSimulator(engine, mode="scalar", **kwargs)
        assert got == scalar.run(requests, arrivals, deadlines).to_json()

    @pytest.mark.parametrize("policy,max_batch_size,kernel", [
        ("fcfs", 1, True), ("edf", 1, False), ("fcfs", 2, True)])
    def test_dispatch(self, engine, policy, max_batch_size, kernel):
        requests, arrivals = _stream(4, n=20)
        self._check(engine, requests, arrivals, kernel,
                    np.full(len(requests), 30.0),
                    max_batch_size=max_batch_size, policy=policy)

    def test_kv_tight_batch_keeps_the_loop(self, engine):
        # Two 600-token finals need 2 x 38 blocks; 75 blocks fit each
        # request alone but not the static bound.
        model = get_model(MODEL)
        cache = PagedKVCache(KVCacheConfig(
            bytes_per_token=model.kv_bytes_per_token,
            capacity_bytes=model.kv_bytes_per_token * 16 * 75))
        requests = [GenerationRequest(i, 500, 100) for i in range(3)]
        arrivals = np.array([0.0, 40.0, 80.0])
        self._check(engine, requests, arrivals, False, max_batch_size=2,
                    kv_cache=cache)


class TestFleetPaths:
    """The fleet drain: object reports, shared pricing, every executor."""

    def test_objects_path_runs_the_kernel(self, monkeypatch):
        calls = []
        drain = VectorServingRun._drain_busy_periods

        def spy(run, *columns):
            calls.append(run.arrays.n)
            return drain(run, *columns)

        monkeypatch.setattr(VectorServingRun, "_drain_busy_periods", spy)
        reports = {}
        for mode in ("auto", "scalar"):
            gateway = FleetGateway(build_fleet(4, max_batch_size=1),
                                   policy="round-robin", mode=mode)
            stream = poisson_stream(np.random.default_rng(6), 0.8, 60)
            reports[mode] = gateway.run(stream).to_json()
            assert gateway.last_mode == mode.replace("auto", "vector")
        assert reports["auto"] == reports["scalar"]
        assert sorted(calls) == [15, 15, 15, 15]

    def test_executors_agree_with_shared_pricing(self):
        config = PopulationConfig(requests=300, mean_turns=5.0, users=80,
                                  base_sessions_per_s=0.5,
                                  peak_sessions_per_s=0.7, period_s=600.0)
        trace = population_trace(np.random.default_rng(3), config)
        reports = []
        for jobs, executor in ((1, "thread"), (3, "thread"), (3, "process")):
            # Six devices over two power modes: three shares per spec.
            gateway = FleetGateway(
                build_fleet(6, max_batch_size=1, prefix_cache_mb=8.0),
                policy="prefix-affinity")
            reports.append(gateway.run_trace(trace, jobs=jobs,
                                             executor=executor).to_json())
            assert gateway.last_mode == "vector"
        assert reports[0] == reports[1] == reports[2]

    def test_threads_race_on_one_pricing(self):
        """More threads than cores fill and grow one shared table at
        once, with a tiny switch interval; every price must still equal
        a single-threaded reference's, bit for bit."""
        # Private instances: the process-wide registry would hand both
        # names the same object, and the check would compare it with
        # itself.
        spec = DeviceSpec(name="d", max_batch_size=1)
        shared = Pricing(FleetDevice(spec).engine, pure=True)
        reference = Pricing(FleetDevice(spec).engine, pure=True)
        rng = np.random.default_rng(0)
        jobs = [(int(first), int(steps)) for first, steps in zip(
            rng.integers(1, 3000, 96), rng.integers(1, 2500, 96))]

        def price(job):
            first, steps = job
            seconds, watts = shared.span(1, first, 1, steps)
            return (seconds.copy(), watts.copy(),
                    shared.prefill(first + 1, first // 2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(price, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (first, steps), (seconds, watts, prefill) in zip(jobs, results):
            want_s, want_w = reference.span(1, first, 1, steps)
            assert seconds.tobytes() == want_s.tobytes()
            assert watts.tobytes() == want_w.tobytes()
            assert prefill == reference.prefill(first + 1, first // 2)
