"""Batched fast path of the serving event loop.

:class:`VectorServingRun` replays exactly the event sequence of the
scalar :class:`~repro.engine.server._ServingRun` — same admission order,
same span cuts, same per-step kernel/power pricing — but holds the
offered population as struct-of-arrays (:class:`~repro.engine.state.
RequestArrays`) and integrates each decode span with one ``np.cumsum``
instead of a per-token Python loop.  The report it returns is
byte-identical to the scalar oracle's (the equivalence property tests
pin this), which is only possible because every accumulation is kept
*sequential*:

* decode spans and prefills are priced through the simulator's
  :class:`~repro.engine.pricing.Pricing` — exact integer-grid tables
  and prefill memos shared with the scalar loop, which reads the same
  tables whenever its configuration is pure and it is not the oracle
  (``mode="scalar"`` keeps pricing spans directly, so every
  auto-vs-scalar byte comparison checks the tables end to end);
* each span is spent by :func:`~repro.engine.pricing.integrate_span`,
  one sequential ``np.cumsum`` (strictly left to right, unlike
  ``np.sum``'s pairwise tree) that reproduces the scalar ``now +=`` /
  ``energy +=`` loop bit for bit;
* admissions run in the scalar pop order (a stable argsort on ready
  time for FCFS, a deadline-keyed heap fed in arrival order for EDF)
  with the same float operations.

Eligibility (checked by :meth:`~repro.engine.server.ServingSimulator.
vector_eligible`): no fault injector, no thermal model, no degradation
policy, no power-model noise.  Those features make cost time-varying or
stateful, which breaks both the memoization and the closed-form span
maths; runs that need them stay on the scalar oracle.

KV pressure is the one *dynamic* hazard: an eligible run can still
exhaust the paged cache mid-flight, and the scalar response (admission
stall, preemption, recompute-on-resume) is inherently sequential.  The
vector run tracks block occupancy arithmetically against a snapshot of
the free pool — never touching the real allocator — and raises
:class:`VectorFallback` the moment the scalar core would have seen
``KVCacheExhausted``; the caller then reruns the whole workload on the
scalar path, which is deterministic and therefore safe to restart.

At batch 1 under FCFS the run skips the epoch loop altogether and
drains the whole population in a few numpy passes per chunk (the
busy-period kernel, :meth:`VectorServingRun._drain_busy_periods`): a
batch-1 FCFS server is a single-server queue, ``start_k = max(ready_k,
finish_{k-1})``, and inside a busy period the clock is one sequential
``cumsum`` over the period's prefill and decode steps — the epoch
loop's ``now +=`` chain, bit for bit.  The KV hazard is static there:
a request whose final context outgrows the free pool raises
:class:`VectorFallback` up front.

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

import heapq
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.kv_cache import span_growth_cap
from repro.engine.pricing import integrate_span
from repro.engine.state import RequestArrays

if TYPE_CHECKING:
    from repro.engine.server import ResilienceReport, ServingSimulator


#: Steps (prefills included) per chunk of the batch-1 kernel.  Chunks
#: hold whole requests, so temporaries stay bounded at any share size.
_CHUNK_STEPS = 1 << 16


class VectorFallback(Exception):
    """The vector run met a condition only the scalar oracle can model.

    Raised on any event the scalar core would handle with allocator
    state (KV exhaustion at admission, mid-span block starvation,
    preemption).  The run's caller discards the partial vector state and
    reruns scalar; determinism makes the restart exact.
    """


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


def _period_clocks(steps: np.ndarray, off: np.ndarray, ready: np.ndarray,
                   reset: np.ndarray, carry: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(start, finish)`` clocks of consecutive batch-1 requests.

    Request ``k`` owns ``steps[off[k]:off[k+1]]`` (its prefill, then its
    decode steps).  It opens a busy period at ``ready[k]`` when
    ``reset[k]``, else it starts at its predecessor's finish (``carry``
    for the first).  Each period becomes one row ``[start, steps...]``,
    zero-padded to a power-of-two width; rows of one width form a 2-D
    slab whose ``cumsum(axis=1)`` adds every row strictly left to right
    — the epoch loop's ``now +=`` chain — and padding only ever follows
    the values read back.
    """
    opens = reset.copy()
    opens[0] = True
    heads = np.flatnonzero(opens)
    first = off[heads]
    length = np.diff(first, append=off[-1])
    # frexp's exponent e has length < 2**e: room for the start value.
    width = np.left_shift(1, np.frexp(length)[1], dtype=np.int64)
    rank = np.argsort(width, kind="stable")
    sorted_width = width[rank]
    row_sorted = np.cumsum(sorted_width) - sorted_width
    row = np.empty_like(row_sorted)
    row[rank] = row_sorted
    clock = np.zeros(int(row_sorted[-1] + sorted_width[-1]))
    clock[row] = np.where(reset[heads], ready[heads], carry)
    dest = np.repeat(row + 1 - first, length) + np.arange(off[-1])
    clock[dest] = steps
    bounds = np.flatnonzero(np.diff(sorted_width, append=0)) + 1
    lo = 0
    for hi in bounds.tolist():
        w = int(sorted_width[hi - 1])
        stop = int(row_sorted[hi - 1]) + w
        slab = clock[int(row_sorted[lo]):stop].reshape(-1, w)
        slab.cumsum(axis=1, out=slab)
        lo = hi
    return clock[dest[off[:-1]] - 1], clock[dest[off[1:] - 1]]


class _VecSeq:
    """One live decode slot (the vector core's ``LiveSequence``)."""

    __slots__ = ("index", "start_s", "prefill_s", "prompt_tokens",
                 "remaining", "context")

    def __init__(self, index: int, start_s: float, prefill_s: float,
                 prompt_tokens: int, remaining: int):
        self.index = index
        self.start_s = start_s
        self.prefill_s = prefill_s
        self.prompt_tokens = prompt_tokens
        self.remaining = remaining
        self.context = prompt_tokens


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
        self.live: list[_VecSeq] = []
        # Arithmetic shadow of the paged allocator: the real cache is
        # never touched, so a fallback leaves no state to unwind.
        self._free = self.kv.free_blocks
        self._block = self.kv.config.block_tokens
        self.pricing = sim.pricing
        # Admission order: stable sort on (ready time, injection order)
        # — exactly the scalar pending-heap pop order.  Ready times are
        # pre-gathered in that order so the per-admission peek is one
        # flat index instead of two.
        self._order = self.arrays.admission_order()
        self._ready_sorted = self.arrays.ready_s[self._order]
        self._p = 0  # next unpromoted position in ``_order``
        self._edf = sim.policy == "edf"
        # EDF keeps a promoted heap keyed like the scalar ready heap:
        # (absolute deadline, promotion order).
        self._promoted: list[tuple[float, int, int]] = []
        self._promote_seq = 0
        #: Whether the last drain ran the batch-1 busy-period kernel.
        self.kernel = False
        #: Busy-period boundaries the kernel's float guess got wrong and
        #: re-derived from the exact clocks.
        self.boundary_repairs = 0

    # -- scheduling ----------------------------------------------------
    def _peek_pending(self) -> float:
        """Ready time of the earliest unpromoted request (inf if none)."""
        if self._p >= self.arrays.n:
            return math.inf
        return float(self._ready_sorted[self._p])

    def _edf_key(self, i: int) -> float:
        if not self.arrays.deadline_mask[i]:
            return math.inf
        return (float(self.arrays.arrival_s[i])
                + float(self.arrays.deadline_s[i]))

    def _pop_ready(self) -> int | None:
        """Promote everything arrived by ``now``; pop the policy's head."""
        arrays = self.arrays
        if not self._edf:
            p = self._p
            if p < arrays.n and self._ready_sorted[p] <= self.now:
                self._p = p + 1
                return int(self._order[p])
            return None
        while (self._p < arrays.n
               and self._ready_sorted[self._p] <= self.now):
            i = int(self._order[self._p])
            self._p += 1
            self._promote_seq += 1
            heapq.heappush(self._promoted,
                           (self._edf_key(i), self._promote_seq, i))
        if not self._promoted:
            return None
        return heapq.heappop(self._promoted)[2]

    def _has_waiting(self) -> bool:
        return self._p < self.arrays.n or bool(self._promoted)

    # -- admission -----------------------------------------------------
    def _admission_cost(self, i: int, prompt: int) -> tuple[float, float]:
        """Request ``i``'s prefill cost, prefix cache consulted.

        Mirrors ``_DeviceRun._prefill_cost`` exactly: the LRU lookup
        refreshes recency even on a token-count mismatch, a hit prices
        only the unshared suffix, and a miss inserts the prefix (evicting
        LRU entries) before paying the full prefill.  Keys are session
        ids — a bijective relabeling of the scalar path's session
        strings, so the LRU sequence is identical.
        """
        cache = self._prefix_cache
        if cache is None:
            return self.pricing.prefill(prompt)
        prefix = min(int(self._prefix_tokens[i]), prompt - 1)
        if prefix <= 0:
            return self.pricing.prefill(prompt)
        session = int(self._session_ids[i])
        entry = cache.lookup(session)
        if entry is not None and entry.token_count == prefix:
            self.prefix_hits += 1
            return self.pricing.prefill(prompt, prefix)
        self.prefix_misses += 1
        try:
            cache.insert(session, prefix)
        except ValueError:
            pass  # prefix exceeds the whole cache: serve uncached
        return self.pricing.prefill(prompt)

    def _admit(self, i: int) -> None:
        arrays = self.arrays
        prompt = int(arrays.prompt_tokens[i])
        blocks = self.kv.blocks_for(prompt)
        if blocks > self._free:
            raise VectorFallback("KV exhaustion at admission")
        self._free -= blocks
        base, power = self._admission_cost(i, prompt)
        start_s = self.now
        # Scalar ``_spend`` at speed 1.0: /1.0 and *1.0 are exact
        # identities, so the plain accumulation is bit-identical.
        self.now += base
        self.energy += base * power
        self.prefill_stall_s += base * len(self.live)
        self.live.append(_VecSeq(
            index=i,
            start_s=start_s,
            prefill_s=base,
            prompt_tokens=prompt,
            remaining=int(arrays.stop_tokens[i]),
        ))

    # -- decode epochs -------------------------------------------------
    def _finish(self, seq: _VecSeq) -> None:
        self.live.remove(seq)
        self._free += self.kv.blocks_for(seq.context)
        arrays = self.arrays
        i = seq.index
        arrays.start_s[i] = seq.start_s
        arrays.prefill_s[i] = seq.prefill_s
        arrays.finish_s[i] = self.now
        arrays.context[i] = seq.context
        self._done.append(i)

    def _sums(self) -> tuple[int, int]:
        """The live batch's summed context and generated-token count
        (the token about to be emitted included)."""
        ctx_sum = 0
        prompt_sum = 0
        for seq in self.live:
            ctx_sum += seq.context
            prompt_sum += seq.prompt_tokens
        return ctx_sum, ctx_sum - prompt_sum + len(self.live)

    def _decode_span(self, span: int) -> None:
        """Price up to ``span`` steps; cumsum replaces the spend loop."""
        live = self.live
        batch = len(live)
        base, power = self.pricing.span(batch, *self._sums(), span)
        next_ready = (self._peek_pending()
                      if batch < self.sim.max_batch_size else math.inf)
        taken, self.now, self.energy = integrate_span(
            self.now, self.energy, base, power, next_ready)

        block = self._block
        grown = 0
        finished = None
        for seq in live:
            ctx = seq.context
            grown += ((ctx + taken + block - 1) // block
                      - (ctx + block - 1) // block)
            seq.remaining -= taken
            seq.context = ctx + taken
            if seq.remaining <= 0:
                if finished is None:
                    finished = []
                finished.append(seq)
        self._free -= grown
        if finished is not None:
            for seq in finished:
                self._finish(seq)

    def _decode_single(self) -> None:
        """One per-token epoch, mirroring the scalar span==1 branch.

        The scalar branch prices scalars (``float(np.mean([...]))``);
        the integer sums make those means exact, so a one-key read of
        the span tables is bit-exact.
        """
        live = self.live
        base, power = self.pricing.span(len(live), *self._sums(), 1)
        base, power = float(base[0]), float(power[0])
        self.now += base
        self.energy += base * power
        block = self._block
        for seq in list(live):
            if seq.context % block == 0:  # next token opens a new block
                if self._free == 0:
                    raise VectorFallback("KV exhaustion mid-decode")
                self._free -= 1
            seq.remaining -= 1
            seq.context += 1
            if seq.remaining <= 0:
                self._finish(seq)

    def _epoch(self) -> None:
        live = self.live
        span = (live[0].remaining if len(live) == 1
                else min(seq.remaining for seq in live))
        if self.sim.max_span_steps is not None:
            span = min(span, self.sim.max_span_steps)
        if span > 1:
            span = max(span_growth_cap(live, self._block, self._free, span),
                       1)
        if span > 1:
            self._decode_span(span)
        else:
            self._decode_single()

    # -- main loop -----------------------------------------------------
    def _run_loop(self) -> None:
        max_batch = self.sim.max_batch_size
        while self.live or self._has_waiting():
            while len(self.live) < max_batch:
                i = self._pop_ready()
                if i is None:
                    break
                self._admit(i)
            if not self.live:
                nxt = self._peek_pending()
                if nxt == math.inf:
                    break
                self.now = max(self.now, nxt)
                continue
            self._epoch()

    # -- the batch-1 busy-period kernel --------------------------------
    def _prefill_prices(self, prompt: np.ndarray) -> np.ndarray:
        """``(2, n)`` prefill seconds and watts in admission order.

        The LRU pre-pass: at batch 1 the admission order is fixed up
        front, so walking it replays :meth:`_admission_cost`'s exact
        lookup/insert sequence against the prefix cache.
        """
        prefill = self.pricing.prefill
        cache = self._prefix_cache
        if cache is None:
            return np.array([prefill(p) for p in prompt.tolist()]).T
        order = self._order
        prefix = np.minimum(self._prefix_tokens[order], prompt - 1)
        lookup, insert = cache.lookup, cache.insert
        costs = []
        hits = misses = 0
        for p, pre, session in zip(prompt.tolist(), prefix.tolist(),
                                   self._session_ids[order].tolist()):
            if pre > 0:
                entry = lookup(session)
                if entry is not None and entry.token_count == pre:
                    hits += 1
                    costs.append(prefill(p, pre))
                    continue
                misses += 1
                try:
                    insert(session, pre)
                except ValueError:
                    pass  # prefix exceeds the whole cache: serve uncached
            costs.append(prefill(p))
        self.prefix_hits += hits
        self.prefix_misses += misses
        return np.array(costs).T

    def _exact_clocks(self, steps: np.ndarray, off: np.ndarray,
                      ready: np.ndarray, carry: float
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Start and finish clocks of one chunk, guessed then verified.

        Busy periods are independent given their ready times, so the
        float guess only has to pick the boundaries.  Every boundary is
        checked against the exact clocks: a reset needs ``ready_k >=
        finish_{k-1}``, a continuation ``ready_k <= finish_{k-1}`` (at
        equality both give the same float).  A wrong guess is flipped
        and the clocks recomputed from it; requests before it keep
        theirs, since a clock depends only on its own period's prefix.
        """
        reset = _guess_resets(np.add.reduceat(steps, off[:-1]), ready,
                              carry)
        start = np.empty(ready.shape[0])
        finish = np.empty(ready.shape[0])
        lo = 0
        while True:
            base = off[lo]
            start[lo:], finish[lo:] = _period_clocks(
                steps[base:], off[lo:] - base, ready[lo:], reset[lo:],
                carry)
            prev = np.concatenate(([carry], finish[lo:-1]))
            bad = np.flatnonzero(np.where(reset[lo:], ready[lo:] < prev,
                                          ready[lo:] > prev))
            if not bad.size:
                return start, finish
            k = int(bad[0])
            carry = float(prev[k])
            lo += k
            reset[lo] = not reset[lo]
            self.boundary_repairs += 1

    def _drain_busy_periods(self) -> None:
        """Serve a batch-1 FCFS population without the epoch loop.

        At batch 1, step ``j`` of a request prices at context key
        ``prompt + j`` and generated key ``1 + j`` (a request with
        ``stop_tokens == 0`` still takes one step), so one fill of the
        pricing tables and one gather per chunk price every step.  The
        steps lie in admission order as ``[prefill_k, decode steps of
        k...]``: energy never resets, so it is one ``cumsum`` carried
        across chunks; the clock is :meth:`_exact_clocks`.
        """
        self.kernel = True
        arrays = self.arrays
        n = arrays.n
        if not n:
            return
        order = self._order
        ready = self._ready_sorted
        prompt = arrays.prompt_tokens[order]
        count = np.maximum(arrays.stop_tokens[order], 1)
        final = prompt + count
        # Each admission finds the whole pool free, so the loop would
        # meet KV exhaustion exactly when some final context outgrows it.
        block = self._block
        if int(((final + block - 1) // block).max()) > self._free:
            raise VectorFallback("KV exhaustion: a request outgrows the pool")
        prefill = self._prefill_prices(prompt)
        lo = int(prompt.min())
        seconds, power = self.pricing.span(
            1, lo, 1, max(int(final.max()) - lo, int(count.max())))
        size = count + 1
        ends = np.cumsum(size)
        energy = 0.0
        now = 0.0
        a = 0
        while a < n:
            done = int(ends[a - 1]) if a else 0
            b = max(int(np.searchsorted(ends, done + _CHUNK_STEPS,
                                        side="right")), a + 1)
            c = size[a:b]
            off = np.zeros(b - a + 1, dtype=np.int64)
            np.cumsum(c, out=off[1:])
            heads = off[:-1]
            # Per step: the decode index j, and -1 at each prefill.
            gen = np.arange(off[-1]) - np.repeat(heads + 1, c)
            steps = seconds[gen + np.repeat(prompt[a:b] - lo, c)]
            watts = power[gen]
            steps[heads] = prefill[0, a:b]
            watts[heads] = prefill[1, a:b]
            path = np.empty(off[-1] + 1)
            path[0] = energy
            np.multiply(steps, watts, out=path[1:])
            energy = float(np.add.accumulate(path, out=path)[-1])
            start, finish = self._exact_clocks(steps, off, ready[a:b], now)
            arrays.start_s[order[a:b]] = start
            arrays.finish_s[order[a:b]] = finish
            now = float(finish[-1])
            a = b
        arrays.prefill_s[order] = prefill[0]
        arrays.context[order] = final
        self.now = now
        self.energy = energy
        self._done = order.tolist()

    def _serve_all(self) -> RequestArrays:
        """Run to completion; every request must be served.

        The vector core has no drop path — KV pressure raises
        :class:`VectorFallback` instead — so a short count is a bug.
        Batch-1 FCFS runs take the busy-period kernel (whenever every
        ready time is finite: an infinite one never admits).
        """
        ready = self._ready_sorted
        if (self.sim.max_batch_size == 1 and not self._edf
                and (not ready.size or math.isfinite(ready[-1]))):
            self._drain_busy_periods()
        else:
            self._run_loop()
        if len(self._done) != self.arrays.n:
            raise RuntimeError(
                f"vector run finished {len(self._done)} of "
                f"{self.arrays.n} requests")
        return self.arrays

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
        outcome columns: one :class:`ServedRequest` per request in
        completion order, then stably sorted by request id — the scalar
        report's order, field for field.
        """
        from repro.engine.server import ResilienceReport, ServedRequest
        arrays = self._serve_all()
        request_id = arrays.request_id.tolist()
        arrival = arrays.arrival_s.tolist()
        start = arrays.start_s.tolist()
        finish = arrays.finish_s.tolist()
        prompt = arrays.prompt_tokens.tolist()
        context = arrays.context.tolist()
        deadline = arrays.deadline_s.tolist()
        mask = arrays.deadline_mask.tolist()
        prefill = arrays.prefill_s.tolist()
        served = [ServedRequest(
            request_id=request_id[i],
            arrival_s=arrival[i],
            start_s=start[i],
            finish_s=finish[i],
            prompt_tokens=prompt[i],
            output_tokens=context[i] - prompt[i],
            deadline_s=deadline[i] if mask[i] else None,
            prefill_s=prefill[i],
            attempts=1,
            degraded=False,
        ) for i in self._done]
        served.sort(key=lambda r: r.request_id)
        return ResilienceReport(
            served=served,
            wallclock_s=self.now,
            energy_joules=self.energy,
            offered_qps=arrays.offered_qps(self.now),
            prefill_stall_s=self.prefill_stall_s,
            offered=arrays.n,
        )
