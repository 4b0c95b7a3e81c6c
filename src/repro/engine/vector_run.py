"""Batched fast path of the serving event loop.

:class:`VectorServingRun` reproduces exactly the event sequence of the
scalar :class:`~repro.engine.server._ServingRun` — same admission order,
same span cuts, same per-step kernel/power pricing — but holds the
offered population as struct-of-arrays (:class:`~repro.engine.state.
RequestArrays`) and drains a whole share in a few numpy passes per
chunk instead of a Python loop per epoch.  The report it returns is
byte-identical to the scalar oracle's (the equivalence property tests
pin this), which is only possible because every accumulation is kept
*sequential*:

* decode spans and prefills are priced through the simulator's
  :class:`~repro.engine.pricing.Pricing` — exact integer-grid decode
  and prefill tables shared with the scalar loop, which reads the decode
  tables whenever its configuration is pure and it is not the oracle
  (``mode="scalar"`` keeps pricing spans directly, so every
  auto-vs-scalar byte comparison checks the tables end to end);
* clocks, energy and prefill stall are sequential ``add.accumulate``
  passes (strictly left to right, unlike ``np.sum``'s pairwise tree)
  that reproduce the scalar ``now +=`` / ``energy +=`` chains bit for
  bit; the clock and the energy share one pass over a complex128
  buffer (real parts seconds, imaginary parts joules), since IEEE
  complex addition adds the two parts separately;
* admissions run in the scalar FCFS pop order, a stable argsort on
  ready time.

Eligibility (checked by :meth:`~repro.engine.server.ServingSimulator.
vector_eligible`): no fault injector, no thermal model, no degradation
policy, no power-model noise.  Those features make cost time-varying or
stateful, which breaks both the memoization and the closed-form span
maths; runs that need them stay on the scalar oracle.

Two busy-period kernels serve FCFS shares:

* at batch 1, :meth:`VectorServingRun._drain_busy_periods`: a batch-1
  FCFS server is a single-server queue, ``start_k = max(ready_k,
  finish_{k-1})``, and inside a busy period the clock is one sequential
  ``add.accumulate`` over the period's prefill and decode steps;
* above batch 1, :meth:`VectorServingRun._drain_batched`: it walks the
  scalar loop's events in Python on a guessed clock and verifies every
  decision that read the clock against the exact clocks, rerunning a
  wrong guess exactly.

Both kernels share one path around their own chunk planning and
verification.  :meth:`VectorServingRun._serve_all` computes the
admission-order columns and prefill prices they read, and writes the
prefill and context columns back.  Each chunk's steps are gathered
from flat price tables (:func:`_gather`) into per-thread work arrays
(:class:`_WorkArrays`), and one complex pass runs the clock and the
energy over them (:func:`_step_chains`, :func:`_segment_clocks`).

Neither kernel models the paged allocator's dynamic response (admission
stall, preemption, recompute-on-resume), so :meth:`VectorServingRun.
_serve_all` checks up front, on the request columns and the free pool,
that no allocator branch of the scalar loop can fire.  Every share a
kernel cannot serve raises :class:`VectorFallback` before any state is
touched — EDF admission, a share whose live set could meet KV pressure,
a share whose price grids would outgrow ``_GRID_KEYS`` — and the caller
reruns the whole workload on the scalar path, which is deterministic
and therefore safe to restart.

Outcomes land in the :class:`~repro.engine.state.RequestArrays` outcome
columns.  :meth:`VectorServingRun.execute_arrays` returns those columns
(the population-scale sink, no per-request objects);
:meth:`VectorServingRun.execute` builds the scalar core's report from
them.

Two telemetry-only divergences from the scalar path are accepted: the
vector run does not consume engine sequence ids and does not drive the
per-prefill memory-traffic counters (both are invisible in reports).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import threading
from array import array
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.engine.pricing import integrate_span
from repro.engine.state import RequestArrays, offered_qps

if TYPE_CHECKING:
    from repro.engine.server import ResilienceReport, ServingSimulator


#: Steps (prefills included) per chunk of the busy-period kernels, so
#: temporaries stay bounded at any share size.  Batch-1 chunks hold
#: whole requests; batched chunks end with the first epoch past it.
_CHUNK_STEPS = 1 << 16

#: Busy periods of at least this many steps get one in-place
#: ``add.accumulate`` of their slice of the clock and energy; shorter
#: ones are summed together, one column pass per step index (see
#: :func:`_segment_clocks`).  A slice costs about 1.5 µs of call
#: overhead and a pass about 5 µs, so a chunk takes at most ``steps /
#: _SLICE_STEPS`` slices, as many energy runs plus one, and
#: ``_SLICE_STEPS - 2`` passes.
_SLICE_STEPS = 32


#: Cap on the batched kernel's dense price grids, in keys summed over
#: batch sizes: a share that would need more (large batches of long
#: contexts) falls back to the scalar core rather than hold grids far
#: larger than the keys it visits.  About 40 MB at the cap.
_GRID_KEYS = 1 << 20


class VectorFallback(Exception):
    """The share needs behaviour only the scalar core models.

    Raised before a drain starts when the share is EDF, or when some
    allocator branch of the scalar loop (KV exhaustion at admission,
    mid-span block starvation, preemption) could fire, or when its price
    grids would be outsized.  The caller reruns the workload on the
    scalar core.
    """


def run_core(owner, eligible: bool, needs: str, vector, scalar):
    """Run one of two cores by ``owner.mode`` and ``eligible``.

    ``mode="scalar"`` calls ``scalar``.  An ineligible configuration
    raises under ``mode="vector"`` (the error says it requires
    ``needs``) and otherwise calls ``scalar``.  An eligible one calls
    ``vector`` and reruns ``scalar`` on :class:`VectorFallback`, which a
    vector core raises before touching any state the rerun reads.
    ``owner.last_mode`` records the core that runs; returns its result.
    """
    if owner.mode != "scalar":
        if eligible:
            try:
                report = vector()
            except VectorFallback:
                pass
            else:
                owner.last_mode = "vector"
                return report
        elif owner.mode == "vector":
            raise ValueError(f"mode='vector' requires {needs}")
    owner.last_mode = "scalar"
    return scalar()


def _guess_resets(service: np.ndarray, ready: np.ndarray,
                  carry: float) -> np.ndarray:
    """Which requests open a busy period, by float Lindley: a guess.

    With ``C`` the prefix sum of the service times, the max-plus form
    ``finish_k = C_k + max(carry, max_{j<=k}(ready_j - C_{j-1}))``
    gives every finish in one pass; request ``k`` opens a period when
    it is ready after its predecessor finishes (``carry`` before the
    first).  Rounding can misjudge a near tie, so callers verify every
    boundary against the exact clocks.
    """
    total = np.cumsum(service)
    lead = np.maximum(np.maximum.accumulate(ready - (total - service)),
                      carry)
    finish = total + lead
    return ready > np.concatenate(([carry], finish[:-1]))


class _WorkArrays(threading.local):
    """The busy-period kernels' per-step arrays, kept per thread across
    chunks and shares.

    Both kernels gather a chunk's step seconds and watts here and run
    its clock and energy in the complex buffer: 32 bytes a step, about
    2 MB at ``_CHUNK_STEPS``.  Allocated afresh for each share, that
    memory went back to the kernel between shares and was faulted in
    again page by page: about 25k minor faults and a fifth of a
    40k-request prefix-affinity round over 32 devices (2-core x86_64
    host).  Kept per thread, so drains on a thread pool never share
    one; each thread keeps the largest chunk it has drained.
    """

    size = 0

    def take(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``size``-entry views: step seconds, step watts, and the
        complex buffer of :func:`_step_chains`."""
        if size > self.size:
            self.size = size
            self.seconds = np.empty(size)
            self.watts = np.empty(size)
            self.path = np.empty(size, dtype=np.complex128)
        return self.seconds[:size], self.watts[:size], self.path[:size]


_WORK = _WorkArrays()


def _step_chains(seconds: np.ndarray, watts: np.ndarray, energy: float,
                 path: np.ndarray) -> None:
    """Fill ``path``, a complex buffer of steps for
    :func:`_segment_clocks`: real parts the step seconds, imaginary
    parts the step joules (seconds times watts), with ``energy``, the
    total carried in, folded into the first step (the scalar loop's
    first ``energy +=``).
    """
    path.real = seconds
    joules = path.imag
    np.multiply(seconds, watts, out=joules)
    joules[0] += energy


def _segment_clocks(path: np.ndarray, first: np.ndarray,
                    begin: np.ndarray) -> None:
    """Run the clocks and the energy of consecutive periods of ``path``,
    in place.

    ``path`` holds step seconds in its real parts and step joules in
    its imaginary parts (:func:`_step_chains`).  Period ``i`` owns
    ``path[first[i]:first[i+1]]`` and starts at ``begin[i]`` (``first``
    strictly increasing from 0).  Afterwards ``path.real[t]`` is the
    clock after step ``t`` and ``path.imag[t]`` the energy.

    Each period's start is folded into its first step (the scalar loop's
    first ``now +=``), then every period is summed strictly left to
    right — the rest of the ``now +=`` chain: a period of at least
    ``_SLICE_STEPS`` steps by one ``add.accumulate`` of its slice,
    shorter ones together, one column at a time: pass ``j`` adds the
    clock after step ``j - 1`` to step ``j`` of every short period
    longer than ``j``.  The energy never resets.  A long period's slice
    carries it too, with the energy before it folded into its first
    step: IEEE complex addition adds real and imaginary parts
    separately, so each part is its own sequential chain, bit for bit.
    Each maximal run of short periods takes one energy-only accumulate,
    so the chain stays strictly in step order.  A call takes one
    accumulate per long period, one per short run, and at most
    ``_SLICE_STEPS - 2`` column passes.
    """
    clock, joules = path.real, path.imag
    clock[first] += begin
    stop = np.append(first[1:], path.shape[0])
    length = stop - first
    sliced = length >= _SLICE_STEPS
    # ``add.accumulate`` is ``cumsum`` without its Python-level wrapper,
    # which would cost more than the sum on short slices.
    accumulate = np.add.accumulate
    # Steps before ``done`` hold their final energy.
    done = 0
    for lo, hi in zip(first[sliced].tolist(), stop[sliced].tolist()):
        if lo > done:
            # The short run before it, through its first step.
            run = joules[max(done - 1, 0):lo + 1]
            accumulate(run, out=run)
        elif lo:
            joules[lo] += joules[lo - 1]
        part = path[lo:hi]
        accumulate(part, out=part)
        done = hi
    if done < path.shape[0]:
        run = joules[max(done - 1, 0):]
        accumulate(run, out=run)
    short = np.flatnonzero(~sliced & (length > 1))
    if short.size:
        # Longest first, so the periods longer than j are a prefix.
        short = short[np.argsort(-length[short])]
        heads, size = first[short], length[short]
        longer = np.searchsorted(-size, -np.arange(1, int(size[0])))
        for j, count in enumerate(longer.tolist(), 1):
            at = heads[:count] + j
            clock[at] += clock[at - 1]


def _period_clocks(path: np.ndarray, off: np.ndarray, ready: np.ndarray,
                   reset: np.ndarray, carry: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(start, finish)`` clocks of consecutive batch-1 requests.

    Request ``k`` owns ``path[off[k]:off[k+1]]`` (its prefill, then its
    decode steps).  It opens a busy period at ``ready[k]`` when
    ``reset[k]``, else it starts at its predecessor's finish (``carry``
    for the first); the periods run through :func:`_segment_clocks`,
    in place on ``path``.
    """
    opens = reset.copy()
    opens[0] = True
    heads = np.flatnonzero(opens)
    begin = np.where(reset[heads], ready[heads], carry)
    _segment_clocks(path, off[heads], begin)
    finish = path.real[off[1:] - 1]
    start = np.empty_like(finish)
    start[1:] = finish[:-1]
    start[heads] = begin
    return start, finish


def _gather(stride: np.ndarray | None, length: np.ndarray,
            *reads: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Read runs of flat price tables, one gather per table.

    Run ``s`` reads ``length[s]`` entries from index ``first[s]`` in
    steps of ``stride[s]`` (0 repeats one entry); each ``(flat, first,
    out)`` triple writes every run's reads of ``flat``, runs
    concatenated, into ``out`` (as long as the reads).  Entry ``t`` of
    the concatenation, ``t - head[s]`` into run ``s``, reads ``first[s]
    + (t - head[s]) * stride[s]``: a per-run base ``first - head *
    stride`` plus ``t * stride``, all elementwise, with no sequential
    pass over the steps.  ``stride=None`` reads every run at unit stride
    (a one-step run reads ``first[s]`` at any stride), which skips the
    per-step stride pass.  ``take`` in ``"wrap"`` mode writes straight
    into ``out``, where the default mode would copy through a new
    buffer, and every index is in range, so nothing wraps.
    """
    head_step = np.cumsum(length) - length
    step = np.arange(reads[0][2].shape[0], dtype=np.int64)
    if stride is not None:
        head_step *= stride
        step *= np.repeat(stride, length)
    for flat, first, out in reads:
        index = np.repeat(first - head_step, length)
        index += step
        flat.take(index, out=out, mode="wrap")


def _accumulate(total: float, a: np.ndarray, b: np.ndarray) -> float:
    """``total`` plus every ``a[j] * b[j]``, added strictly left to right
    (one sequential ``cumsum``: the scalar loop's ``+=`` chain)."""
    path = np.empty(a.shape[0] + 1)
    path[0] = total
    np.multiply(a, b, out=path[1:])
    return float(np.add.accumulate(path, out=path)[-1])


def _prefix_estimates(seconds: np.ndarray, base: list[int],
                      lo: list[int], hi: list[int]
                      ) -> tuple[array, list[tuple[int, int, int]]]:
    """Per-batch strided prefix sums of the decode seconds: the clock
    guess of :meth:`VectorServingRun._schedule`.

    A span of batch ``b`` from context key ``c`` reads keys ``c + b*j``:
    one residue class mod ``b``.  So batch ``b``'s keys ``lo..hi``
    (at ``seconds[base[b] + key]``) are laid out one residue per row,
    and row ``r`` holds the exclusive prefix sums of its keys.  Returns
    the rows flattened into one array and, per batch, ``(lo, row width,
    offset)``: key ``c`` sits at ``offset + ((c-lo) % b) * width +
    (c-lo) // b``, and ``m`` steps from it sum to the entry ``m``
    further on minus its own.  A float guess: callers verify.
    """
    parts = []
    index = [(0, 0, 0)]
    at = 0
    for b in range(1, len(lo)):
        keys = seconds[base[b] + lo[b]:base[b] + hi[b] + 1]
        cols = -(-keys.shape[0] // b)
        grid = np.zeros(cols * b)
        grid[:keys.shape[0]] = keys
        rows = np.zeros((b, cols + 1))
        np.cumsum(grid.reshape(cols, b).T, axis=1, out=rows[:, 1:])
        parts.append(rows.ravel())
        index.append((lo[b], cols + 1, at))
        at += rows.size
    # An array.array, not a list: Python floats on read for ``bisect``
    # at 8 bytes an entry.
    return array("d", np.concatenate(parts).tobytes()), index


class _Chunk(NamedTuple):
    """One chunk's records from :meth:`VectorServingRun._schedule`.

    Columns count steps from the chunk's start (column ``c`` is the
    clock after ``c`` steps); iterations count from 0 per chunk.
    """

    #: Step runs in order, read by :func:`_gather`: per run the first
    #: flat seconds and watts index, the key stride, the step count.
    ctx_first: list[int]
    gen_first: list[int]
    stride: list[int]
    length: list[int]
    #: Arrivals the walk left waiting: (column, admission, iteration).
    wait_col: list[int]
    wait_p: list[int]
    wait_it: list[int]
    #: Per admission: prefill column, iteration, live count it stalled.
    adm_col: list[int]
    adm_it: list[int]
    adm_live: list[int]
    #: Finished admissions in finish order and the column after each.
    fin: list[int]
    fin_col: list[int]
    #: Idle jumps: the column where the clock resets, and its value.
    reset_col: list[int]
    reset_val: list[float]


class VectorServingRun:
    """One batch serving run on the array-backed fast path."""

    def __init__(self, sim: "ServingSimulator", *, arrays: RequestArrays,
                 session_ids: np.ndarray | None = None,
                 prefix_tokens: np.ndarray | None = None,
                 prefix_cache=None):
        if not sim.vector_eligible():
            raise VectorFallback("configuration requires the scalar oracle")
        self.sim = sim
        self.kv = sim.kv_cache
        self.arrays = arrays
        # Prefix-cache-aware admission (the trace fast path): replicates
        # ``_DeviceRun._prefill_cost`` bit-for-bit — same LRU lookup /
        # insert call sequence in admission order — against a real
        # :class:`~repro.engine.prefix_cache.PrefixCache`.
        self._session_ids = session_ids
        self._prefix_tokens = prefix_tokens
        self._prefix_cache = prefix_cache
        if prefix_cache is not None and (session_ids is None
                                         or prefix_tokens is None):
            raise ValueError("prefix_cache requires session_ids and "
                             "prefix_tokens columns")
        self.prefix_hits = 0
        self.prefix_misses = 0
        #: Finished request indices in completion order.
        self._done: list[int] = []
        self.now = 0.0
        self.energy = 0.0
        self.prefill_stall_s = 0.0
        self.pricing = sim.pricing
        # Admission order: stable sort on (ready time, injection order)
        # — exactly the scalar FCFS pending-heap pop order.
        self._order = self.arrays.admission_order()
        self._ready_sorted = self.arrays.ready_s[self._order]
        #: Busy-period boundaries the kernel's float guess got wrong and
        #: re-derived from the exact clocks.
        self.boundary_repairs = 0
        #: Times the server went from idle to busy (it starts idle): a
        #: busy-period kernel's periods.
        self.busy_periods = 0

    # -- the batch-1 busy-period kernel --------------------------------
    def _prefill_prices(self, prompt: np.ndarray) -> np.ndarray:
        """``(2, n)`` prefill seconds and watts in admission order.

        The LRU pre-pass: the admission order is fixed up front, so
        one :meth:`~repro.engine.prefix_cache.PrefixCache.reuse_all`
        call over it replays the scalar ``_DeviceRun._prefill_cost``'s
        exact cache sequence (keyed by session ids, a bijective
        relabelling of the scalar path's session strings) and fixes
        each request's cached prefix.  One
        :meth:`~repro.engine.pricing.Pricing.prefills` call then reads
        every price from the dense prefill tables, one gather per
        distinct cached prefix (a never-seen key is priced once).
        """
        cached = np.zeros_like(prompt)
        cache = self._prefix_cache
        if cache is not None:
            order = self._order
            prefix = np.minimum(self._prefix_tokens[order], prompt - 1)
            rows = np.flatnonzero(prefix > 0)
            hit = np.array(cache.reuse_all(
                self._session_ids[order[rows]].tolist(),
                prefix[rows].tolist()), dtype=bool)
            hits = int(np.count_nonzero(hit))
            self.prefix_hits += hits
            self.prefix_misses += rows.shape[0] - hits
            cached[rows[hit]] = prefix[rows[hit]]
        return self.pricing.prefills(prompt, cached)

    def _exact_clocks(self, steps: np.ndarray, watts: np.ndarray,
                      off: np.ndarray, ready: np.ndarray, carry: float,
                      energy: float, service: np.ndarray, path: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, float]:
        """Start and finish clocks of one chunk, guessed then verified,
        and the energy after it (``energy`` before); ``path`` is the
        complex work array the two chains run in.

        Busy periods are independent given their ready times, so the
        float guess (:func:`_guess_resets`) only has to pick the
        boundaries.  It reads ``service``, each request's service time
        as :meth:`_drain_busy_periods` sums it from the price tables,
        which rounds differently from the steps' own sum.  So every
        boundary is checked against the exact clocks: a reset needs
        ``ready_k >= finish_{k-1}``, a continuation ``ready_k <=
        finish_{k-1}`` (at equality both give the same float).  A wrong
        guess is flipped and the clocks recomputed from it; requests
        before it keep theirs, since a clock depends only on its own
        period's prefix.  A boundary wrong again after its flip raises
        ``RuntimeError``.

        A repair re-chains the path's tail from the flipped request, in
        place (:func:`_step_chains`: ``steps`` and ``watts`` still hold
        the raw steps), with the energy before the tail carried in.
        Energy never resets, so the first pass's energy there is exact,
        and the tail's first step adds it as ``s·w + E`` where the
        first pass added ``E + s·w``: IEEE addition is commutative and
        the chain stays in step order, so no energy bit changes.
        """
        reset = _guess_resets(service, ready, carry)
        start = np.empty(ready.shape[0])
        finish = np.empty(ready.shape[0])
        lo = 0
        flipped = -1
        while True:
            base = off[lo]
            tail = path[base:]
            _step_chains(steps[base:], watts[base:], energy, tail)
            start[lo:], finish[lo:] = _period_clocks(
                tail, off[lo:] - base, ready[lo:], reset[lo:], carry)
            prev = np.concatenate(([carry], finish[lo:-1]))
            bad = np.flatnonzero(np.where(reset[lo:], ready[lo:] < prev,
                                          ready[lo:] > prev))
            if not bad.size:
                return start, finish, float(path.imag[-1])
            k = int(bad[0])
            carry = float(prev[k])
            lo += k
            if lo == flipped:
                raise RuntimeError(f"boundary {lo} wrong after its repair")
            reset[lo] = not reset[lo]
            flipped = lo
            self.boundary_repairs += 1
            if lo:
                energy = float(path.imag[off[lo] - 1])

    def _decode_grids(self, prefill: np.ndarray, lo: list[int],
                      hi: list[int], gen_hi: list[int]
                      ) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
        """Flat ``(seconds, watts)`` price tables for the kernels' gathers.

        Entry ``k < n`` of each is admission ``k``'s prefill.  After
        them, for each batch ``b >= 1`` (list index ``b``; index 0 is
        unused), a dense grid of the pricing tables: context keys
        ``lo[b]..hi[b]`` and generated keys ``b..gen_hi[b]``, filled
        once through :meth:`~repro.engine.pricing.Pricing.span` (only
        never-seen keys are priced).  A decode step of batch ``b`` at
        keys ``(ctx, gen)`` reads ``seconds[ctx_base[b] + ctx]`` and
        ``watts[gen_base[b] + gen]``; returns ``(seconds, watts,
        ctx_base, gen_base)``.
        """
        seconds, watts = [prefill[0]], [prefill[1]]
        ctx_base, gen_base = [0], [0]
        ctx_end = gen_end = prefill.shape[1]
        for batch in range(1, len(lo)):
            ctx_keys = hi[batch] - lo[batch] + 1
            gen_keys = gen_hi[batch] - batch + 1
            grid_s, grid_w = self.pricing.span(
                batch, lo[batch], batch, max(ctx_keys, gen_keys), stride=1)
            seconds.append(grid_s[:ctx_keys])
            watts.append(grid_w[:gen_keys])
            ctx_base.append(ctx_end - lo[batch])
            gen_base.append(gen_end - batch)
            ctx_end += ctx_keys
            gen_end += gen_keys
        return (np.concatenate(seconds), np.concatenate(watts), ctx_base,
                gen_base)

    def _drain_busy_periods(self, prompt: np.ndarray, count: np.ndarray,
                            final: np.ndarray, prefill: np.ndarray) -> None:
        """Serve a batch-1 FCFS population in one busy-period pass.

        At batch 1, step ``j`` of a request prices at context key
        ``prompt + j`` and generated key ``1 + j`` (a request with
        ``stop_tokens == 0`` still takes one step), so one fill of the
        pricing tables and one gather per chunk price every step: each
        request reads its prefill, then a unit-stride run of decode keys.
        The same keys give each request's service guess for
        :meth:`_exact_clocks` from one prefix sum of the decode seconds:
        its prefill plus the sum's difference over its keys.  The steps
        lie in admission order as ``[prefill_k, decode steps of k...]``,
        and :meth:`_exact_clocks` runs the clock and the energy (which
        never resets, carried across chunks) over them in one sequential
        pass.
        """
        arrays = self.arrays
        n = arrays.n
        order = self._order
        ready = self._ready_sorted
        lo = int(prompt.min())
        seconds, watts, ctx_base, gen_base = self._decode_grids(
            prefill, [0, lo], [0, int(final.max()) - 1],
            [0, int(count.max())])
        # Exclusive prefix sums of the decode seconds from key ``lo``.
        sums = np.zeros(seconds.shape[0] - n + 1)
        np.cumsum(seconds[n:], out=sums[1:])
        service = prefill[0] + (sums[final - lo] - sums[prompt - lo])
        # Two runs per request: its prefill, then its decode steps.
        length = np.ones(2 * n, dtype=np.int64)
        length[1::2] = count
        ctx_first = np.repeat(np.arange(n), 2)
        gen_first = ctx_first.copy()
        ctx_first[1::2] = ctx_base[1] + prompt
        gen_first[1::2] = gen_base[1] + 1
        size = count + 1
        ends = np.cumsum(size)
        energy = 0.0
        now = 0.0
        # The server starts idle: the first request opens a period.
        self.busy_periods += 1
        a = 0
        while a < n:
            done = int(ends[a - 1]) if a else 0
            b = max(int(np.searchsorted(ends, done + _CHUNK_STEPS,
                                        side="right")), a + 1)
            off = np.zeros(b - a + 1, dtype=np.int64)
            np.cumsum(size[a:b], out=off[1:])
            runs = slice(2 * a, 2 * b)
            steps, step_watts, path = _WORK.take(int(off[-1]))
            _gather(None, length[runs], (seconds, ctx_first[runs], steps),
                    (watts, gen_first[runs], step_watts))
            start, finish, energy = self._exact_clocks(
                steps, step_watts, off, ready[a:b], now, energy,
                service[a:b], path)
            self.busy_periods += int(np.count_nonzero(
                start[1:] > finish[:-1])) + bool(a and start[0] > now)
            arrays.start_s[order[a:b]] = start
            arrays.finish_s[order[a:b]] = finish
            now = float(finish[-1])
            a = b
        self.now = now
        self.energy = energy
        self._done = order.tolist()

    # -- the batched busy-period kernel --------------------------------
    def _drain_batched(self, prompt: np.ndarray, count: np.ndarray,
                       final: np.ndarray, prefill: np.ndarray) -> None:
        """Serve a batch > 1 FCFS population in a few passes per chunk.

        FCFS admits in the fixed :meth:`admission_order`, and under
        :meth:`_serve_all`'s static bound nothing else reads the
        allocator, so the run is a pure function of the clock decisions.
        Each chunk of about ``_CHUNK_STEPS`` steps runs three passes:

        * **schedule** (:meth:`_schedule`): a lean walk over admissions,
          arrival cuts, completions and idle jumps with the scalar
          loop's exact integer bookkeeping and a float guess of the
          clock;
        * **exact**: one gather prices every step (:func:`_gather`), and
          :func:`_segment_clocks` runs the clock, with a period reset at
          each idle jump, and the energy, carried across chunks, in one
          sequential pass (:func:`_step_chains`);
        * **verify and repair**: every decision that read the clock is
          checked against the exact clocks — each admission must be
          ready by its start, each arrival left waiting (the last step
          of a span that was not cut, a jump, the end of an admission
          run) must still be ahead of the clock.  The first iteration
          holding a wrong guess is rerun on the exact clock and the
          chunk rescheduled (``boundary_repairs`` counts these); one
          wrong again after its repair raises ``RuntimeError``.  The
          rerun reads the exact clock before the next gather overwrites
          the work arrays.

        ``prefill_stall_s`` is one more sequential ``cumsum``: each
        prefill times the live count that waited on it.
        """
        arrays = self.arrays
        n = arrays.n
        order = self._order
        ready = self._ready_sorted
        # Key bounds per batch size b: the live contexts sum at least the
        # b smallest prompts and at most the b largest contexts before a
        # last step; the generated counts sum at most the b largest.
        top = min(self.sim.max_batch_size, n)
        lo = [0] + np.cumsum(np.sort(prompt)[:top]).tolist()
        hi = [0] + np.cumsum(np.sort(final)[::-1][:top] - 1).tolist()
        gen_hi = [0] + np.cumsum(np.sort(count)[::-1][:top]).tolist()
        seconds, watts, ctx_base, gen_base = self._decode_grids(
            prefill, lo, hi, gen_hi)
        guess, guess_at = _prefix_estimates(seconds, ctx_base, lo, hi)
        columns = (ready.tolist(), prefill[0].tolist(), prompt.tolist(),
                   final.tolist(), count.tolist(), seconds, watts, ctx_base,
                   gen_base, guess, guess_at)
        waited = np.empty(n)
        done: list[int] = []
        energy = now = 0.0
        # The server starts idle; a first arrival after time 0 opens
        # its period with an idle jump, counted with the others.
        self.busy_periods += int(ready[0] <= now)
        # (next admission, decode steps so far, live heap, summed
        # context, summed prompt, clock)
        state = (0, 0, [], 0, 0, 0.0)
        while state[0] < n or state[2]:
            forced: set[int] = set()
            exact = None
            while True:
                chunk, after = self._schedule(state, columns, forced, exact)
                length = np.array(chunk.length)
                steps, step_watts, path = _WORK.take(int(length.sum()))
                _gather(np.array(chunk.stride), length,
                        (seconds, np.array(chunk.ctx_first), steps),
                        (watts, np.array(chunk.gen_first), step_watts))
                # An idle jump at column 0 replaces the carry: the last
                # begin at a column wins.
                first = np.array([0] + chunk.reset_col)
                begin = np.array([now] + chunk.reset_val)
                keep = np.append(first[1:] != first[:-1], True)
                first, begin = first[keep], begin[keep]
                _step_chains(steps, step_watts, energy, path)
                _segment_clocks(path, first, begin)
                clock = path.real
                p0, p1 = state[0], after[0]
                # An admission starts at its period's begin at a head,
                # else at the clock after the step before it.
                adm_col = np.array(chunk.adm_col, dtype=np.int64)
                head = np.searchsorted(first, adm_col, side="right") - 1
                start = np.where(first[head] == adm_col, begin[head],
                                 clock[adm_col - 1])
                wait_col = np.array(chunk.wait_col, dtype=np.int64)
                wait_clock = np.where(wait_col > 0, clock[wait_col - 1], now)
                wrong = np.concatenate((
                    np.array(chunk.adm_it, dtype=np.int64)[
                        ready[p0:p1] > start],
                    np.array(chunk.wait_it, dtype=np.int64)[
                        ready[np.array(chunk.wait_p, dtype=np.int64)]
                        <= wait_clock]))
                if not wrong.size:
                    break
                it = int(wrong.min())
                if it in forced:
                    raise RuntimeError(f"iteration {it} wrong after its repair")
                forced.add(it)
                self.boundary_repairs += 1
                exact = (lambda col, clock=clock, carry=now:
                         carry if col == 0 else float(clock[col - 1]))
            energy = float(path.imag[-1])
            self.busy_periods += len(chunk.reset_col)
            arrays.start_s[order[p0:p1]] = start
            arrays.finish_s[order[chunk.fin]] = clock[
                np.array(chunk.fin_col, dtype=np.int64) - 1]
            waited[p0:p1] = chunk.adm_live
            done += chunk.fin
            now = float(clock[-1])
            state = after[:5] + (now,)
        self.now = now
        self.energy = energy
        self.prefill_stall_s = _accumulate(0.0, prefill[0], waited)
        self._done = order[done].tolist()

    def _schedule(self, state: tuple, columns: tuple, forced: set[int],
                  exact) -> tuple[_Chunk, tuple]:
        """The schedule pass: walk one chunk of the scalar loop's events.

        Replays the FCFS epochs of ``_ServingRun`` from ``state`` with
        the same integer bookkeeping — a heap of ``finish step * n +
        admission`` keys stands in for the live list (ties pop in
        admission order, the scalar loop's finish order) — but no numpy
        call: the clock is a float guess advanced by
        :func:`_prefix_estimates` differences, and an arrival cut is a
        ``bisect`` in them.  Iterations (a decode span,
        then admissions, then any idle jump) listed in ``forced`` start
        from ``exact(col)``, the verified clock, and price their span
        exactly with :func:`~repro.engine.pricing.integrate_span`, so a
        repaired decision cannot go wrong twice.  Stops at the end of
        the first iteration past ``_CHUNK_STEPS`` steps or when every
        request is done; returns the chunk's :class:`_Chunk` records and
        the state after it.
        """
        p, taken_so_far, heap, ctx, prompt_sum, now = state
        heap = heap.copy()
        (ready, prefill, prompt, final, count, seconds, watts, ctx_base,
         gen_base, guess, guess_at) = columns
        n = len(ready)
        max_batch = self.sim.max_batch_size
        max_span = self.sim.max_span_steps
        ctx_first, gen_first, stride, length = [], [], [], []
        wait_col, wait_p, wait_it = [], [], []
        adm_col, adm_it, adm_live = [], [], []
        fin, fin_col = [], []
        reset_col, reset_val = [], []
        push, pop = heapq.heappush, heapq.heappop
        col = it = 0
        batch = len(heap)
        while True:
            exact_now = forced and it in forced
            if exact_now:
                now = exact(col)
            if batch:
                span = heap[0] // n - taken_so_far
                if max_span is not None and span > max_span:
                    span = max_span
                c0 = ctx_base[batch] + ctx
                g0 = gen_base[batch] + ctx - prompt_sum + batch
                cut = batch < max_batch and p < n and span > 1
                if exact_now:
                    stop = c0 + batch * span
                    taken, now, _ = integrate_span(
                        now, 0.0, seconds[c0:stop:batch],
                        watts[g0:g0 + batch * span:batch],
                        ready[p] if cut else math.inf)
                else:
                    lo, width, at = guess_at[batch]
                    q, r = divmod(ctx - lo, batch)
                    i0 = at + r * width + q
                    k = (bisect.bisect_left(guess, guess[i0] + (ready[p] - now),
                                            i0 + 1, i0 + span)
                         if cut else i0 + span)
                    taken = k - i0
                    now += guess[k] - guess[i0]
                if cut and taken > 1:
                    wait_col.append(col + taken - 1)
                    wait_p.append(p)
                    wait_it.append(it)
                ctx_first.append(c0)
                gen_first.append(g0)
                stride.append(batch)
                length.append(taken)
                col += taken
                taken_so_far += taken
                ctx += batch * taken
                bound = (taken_so_far + 1) * n
                while heap and heap[0] < bound:
                    a = pop(heap) % n
                    fin.append(a)
                    fin_col.append(col)
                    ctx -= final[a]
                    prompt_sum -= prompt[a]
                batch = len(heap)
            while True:
                while batch < max_batch and p < n:
                    if ready[p] > now:
                        wait_col.append(col)
                        wait_p.append(p)
                        wait_it.append(it)
                        break
                    adm_col.append(col)
                    adm_it.append(it)
                    adm_live.append(batch)
                    ctx_first.append(p)
                    gen_first.append(p)
                    stride.append(0)
                    length.append(1)
                    now += prefill[p]
                    col += 1
                    ctx += prompt[p]
                    prompt_sum += prompt[p]
                    push(heap, (taken_so_far + count[p]) * n + p)
                    batch += 1
                    p += 1
                if batch or p == n:
                    break
                # Idle: jump the clock to the next arrival.
                reset_col.append(col)
                reset_val.append(ready[p])
                now = ready[p]
            it += 1
            if not batch or col >= _CHUNK_STEPS:
                break
        return (_Chunk(ctx_first, gen_first, stride, length, wait_col,
                       wait_p, wait_it, adm_col, adm_it, adm_live, fin,
                       fin_col, reset_col, reset_val),
                (p, taken_so_far, heap, ctx, prompt_sum, now))

    def _serve_all(self) -> RequestArrays:
        """Run to completion; every request must be served.

        FCFS shares take a busy-period kernel, :meth:`_drain_busy_periods`
        at batch 1, else :meth:`_drain_batched`, which read the
        admission-order columns and prefill prices computed here.  EDF,
        and any share past one static bound, raise
        :class:`VectorFallback` before the prefix cache is touched:

        * **KV**: ``max_batch_size`` requests at the largest final
          context fit the free pool together.  Then the scalar loop
          never touches KV pressure: a live sequence holds
          ``blocks_for(context)`` blocks and its context never exceeds
          its final ``prompt + max(stop, 1)``, so at most
          ``max_batch_size`` live sequences hold at most the bound,
          hence at most the pool, at every instant — before and after
          any growth of up to their remaining steps.  So an admission
          (the others hold at most ``(max_batch_size - 1)`` maxima)
          always finds its prompt's blocks, ``span_growth_cap`` always
          returns the whole span, and a single step that opens a block
          always finds one free: no branch of the scalar loop that
          reads the allocator can fire.  At batch 1 each admission
          finds the whole pool free, so this is exactly the scalar
          loop's hazard: KV exhaustion fires when some final context
          outgrows the pool (``blocks_for`` is monotone).
        * **Grid**: the dense price grids of :meth:`_decode_grids` (at
          most ``b`` times the largest final context keys per batch
          size ``b``) stay within ``_GRID_KEYS``.

        The vector core has no drop path, so a short count is a bug.
        """
        if self.sim.policy == "edf":
            raise VectorFallback("EDF admission runs on the scalar core")
        arrays = self.arrays
        if arrays.n:
            order = self._order
            prompt = arrays.prompt_tokens[order]
            count = np.maximum(arrays.stop_tokens[order], 1)
            final = prompt + count
            batch = self.sim.max_batch_size
            largest = int(final.max())
            if (batch * self.kv.blocks_for(largest) > self.kv.free_blocks
                    or batch * (batch + 1) // 2 * largest > _GRID_KEYS):
                raise VectorFallback("the share could meet KV pressure or "
                                     "need outsized price grids")
            prefill = self._prefill_prices(prompt)
            drain = (self._drain_busy_periods if batch == 1
                     else self._drain_batched)
            drain(prompt, count, final, prefill)
            arrays.prefill_s[order] = prefill[0]
            arrays.context[order] = final
        if len(self._done) != arrays.n:
            raise RuntimeError(
                f"vector run finished {len(self._done)} of "
                f"{arrays.n} requests")
        return arrays

    def execute_arrays(self) -> RequestArrays:
        """Run to completion with outcomes in the array columns only.

        The population-scale sink: returns the filled
        :class:`RequestArrays` without building a single per-request
        object.
        """
        return self._serve_all()

    def execute(self) -> "ResilienceReport":
        """Run to completion and report like the scalar core.

        The :meth:`execute_arrays` drain plus a report built from the
        outcome columns: one :class:`ServedRequest` per request, in
        completion order stably sorted by request id — the scalar
        report's order, field for field.
        """
        from repro.engine.server import ResilienceReport, ServedRequest
        arrays = self._serve_all()
        done = np.array(self._done, dtype=np.int64)
        rows = done[np.argsort(arrays.request_id[done], kind="stable")]
        prompt = arrays.prompt_tokens[rows]
        deadline = arrays.deadline_s[rows].astype(object)
        deadline[~arrays.deadline_mask[rows]] = None
        served = list(map(
            ServedRequest, arrays.request_id[rows].tolist(),
            arrays.arrival_s[rows].tolist(), arrays.start_s[rows].tolist(),
            arrays.finish_s[rows].tolist(), prompt.tolist(),
            (arrays.context[rows] - prompt).tolist(), deadline.tolist(),
            arrays.prefill_s[rows].tolist(), itertools.repeat(1),
            itertools.repeat(False)))
        return ResilienceReport(
            served=served,
            wallclock_s=self.now,
            energy_joules=self.energy,
            offered_qps=offered_qps(
                arrays.n, float(arrays.arrival_s.max()) if arrays.n else 0.0,
                self.now),
            prefill_stall_s=self.prefill_stall_s,
            offered=arrays.n,
        )
