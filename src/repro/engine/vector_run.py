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

* ``np.cumsum`` adds strictly left-to-right (unlike ``np.sum``'s
  pairwise tree), so prepending the running clock/energy to the span's
  per-step costs and cumsum-ing reproduces the scalar ``now +=`` /
  ``energy +=`` loop bit-for-bit;
* span pricing calls the very same vectorized
  :meth:`~repro.hardware.kernels.KernelEngine.decode_step_seconds` /
  :meth:`~repro.hardware.power.PowerModel.decode_power` expressions the
  scalar span path uses, on identical inputs — and memoizes them in
  dense integer-keyed tables: contexts and generated counts are
  integers, so a batch of ``b`` sequences prices its steps at mean
  contexts ``(ctx_sum + b*j) / b`` whose numerators walk a small
  integer grid, and both pricing functions are elementwise in that
  argument (each grid point's price is computed once, by the same
  ufunc, so reuse is bit-exact);
* admissions run in the scalar pop order (a stable argsort on ready
  time for FCFS, a deadline-keyed heap fed in arrival order for EDF)
  with the same float operations, just with the batch-1 prefill kernel
  memoized per prompt length — legal because with power noise disabled
  the prefill cost is a pure function of the prompt.

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

from repro.engine.state import RequestArrays

if TYPE_CHECKING:
    from repro.engine.server import ResilienceReport, ServingSimulator


#: Pricing-table keys above this bypass the dense caches (pathological
#: contexts would otherwise allocate huge tables for no reuse).
_TABLE_KEY_LIMIT = 1 << 22

# ndarray.sum() routes through two Python wrapper frames before landing
# on this very reduction; at one call per pricing lookup (millions per
# population-scale run) the frames are measurable.  Bit-exact: the
# method is defined as np.add.reduce.
_sum = np.add.reduce


class VectorFallback(Exception):
    """The vector run met a condition only the scalar oracle can model.

    Raised on any event the scalar core would handle with allocator
    state (KV exhaustion at admission, mid-span block starvation,
    preemption).  The run's caller discards the partial vector state and
    reruns scalar; determinism makes the restart exact.
    """


class _VecSeq:
    """One live decode slot (the vector core's ``_LiveSequence``)."""

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
        self.engine = sim.engine
        self.kv = sim.kv_cache
        self.arrays = arrays
        # Prefix-cache-aware admission (the trace fast path): replicates
        # ``_DeviceRun._prefill_cost`` bit-for-bit — same LRU lookup /
        # insert call sequence in admission order — against a real
        # :class:`~repro.engine.prefix_cache.PrefixCache`, with the warm
        # suffix kernel memoized per (prompt, prefix) pair (pure under
        # the eligibility guarantees, exactly like ``_prefill_cost``).
        self._session_ids = session_ids
        self._prefix_tokens = prefix_tokens
        self._prefix_cache = prefix_cache
        if prefix_cache is not None and (session_ids is None
                                         or prefix_tokens is None):
            raise ValueError("prefix_cache requires session_ids and "
                             "prefix_tokens columns")
        self._suffix_memo: dict[tuple[int, int], tuple[float, float]] = {}
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
        self._prefill_memo: dict[int, tuple[float, float]] = {}
        # Dense per-batch pricing tables: tbl[batch][ctx_sum + batch*j]
        # caches decode_step_seconds((ctx_sum + batch*j)/batch, batch)
        # (resp. decode_power for generated-count keys).  Exact because
        # both functions are elementwise and the keys are integers.
        self._base_tbl: dict[int, np.ndarray] = {}
        self._power_tbl: dict[int, np.ndarray] = {}
        self._single_memo: dict[tuple[int, int], float] = {}
        self._single_power_memo: dict[tuple[int, int], float] = {}
        self._idx = np.arange(256, dtype=np.int64)
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

    # -- scheduling ----------------------------------------------------
    def _peek_pending(self) -> float | None:
        """Ready time of the earliest not-yet-promoted request."""
        if self._p >= self.arrays.n:
            return None
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
    def _prefill_cost(self, prompt_tokens: int) -> tuple[float, float]:
        """Memoized (base seconds, watts) of a batch-1 prefill.

        Pure-function memoization: the kernel jitter is a stateless hash
        of (profile, padded length, seed) and eligibility guarantees the
        power model is noise-free, so equal prompts price equally.
        """
        hit = self._prefill_memo.get(prompt_tokens)
        if hit is not None:
            return hit
        stats = self.engine.kernels.prefill(self.engine.profile,
                                            prompt_tokens)
        power = self.engine.power.prefill_power(prompt_tokens)
        cost = (stats.seconds, power)
        self._prefill_memo[prompt_tokens] = cost
        return cost

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
            return self._prefill_cost(prompt)
        prefix = min(int(self._prefix_tokens[i]), prompt - 1)
        if prefix <= 0:
            return self._prefill_cost(prompt)
        session = int(self._session_ids[i])
        entry = cache.lookup(session)
        if entry is not None and entry.token_count == prefix:
            self.prefix_hits += 1
            key = (prompt, prefix)
            hit = self._suffix_memo.get(key)
            if hit is None:
                from repro.engine.prefix_cache import prefill_with_prefix
                stats = prefill_with_prefix(self.engine, prompt, prefix)
                power = self.engine.power.prefill_power(prompt - prefix)
                hit = (stats.seconds, power)
                self._suffix_memo[key] = hit
            return hit
        self.prefix_misses += 1
        try:
            cache.insert(session, prefix)
        except ValueError:
            pass  # prefix exceeds the whole cache: serve uncached
        return self._prefill_cost(prompt)

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
    def _kv_span_cap(self, span: int) -> int:
        """Largest ``j <= span`` all live sequences can grow together.

        Same binary search as the scalar ``_kv_span_limit``, against the
        arithmetic free-pool shadow.
        """
        block = self._block
        contexts = np.fromiter((seq.context for seq in self.live),
                               dtype=np.int64, count=len(self.live))
        held = (contexts + block - 1) // block

        def growth(j: int) -> int:
            return int(((contexts + j + block - 1) // block - held).sum())

        if growth(span) <= self._free:
            return span
        lo, hi = 0, span
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if growth(mid) <= self._free:
                lo = mid
            else:
                hi = mid - 1
        return lo

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

    def _lookup(self, table: dict[int, np.ndarray], batch: int,
                keys: np.ndarray, price) -> np.ndarray:
        """Table-backed elementwise pricing over integer grid keys.

        ``price(values)`` is called once per never-seen grid point with
        ``values = keys / batch``; hits are returned from the dense
        per-batch table.  Bit-exact versus pricing the whole span array
        directly (both paths evaluate the same elementwise ufunc
        expression on the same float64 inputs).
        """
        hi = int(keys[-1])  # keys are nondecreasing
        if hi >= _TABLE_KEY_LIMIT:
            return np.asarray(price(keys.astype(np.float64) / batch),
                              dtype=np.float64)
        tbl = table.get(batch)
        if tbl is None or hi >= tbl.shape[0]:
            size = max(hi + 257, 0 if tbl is None else 2 * tbl.shape[0])
            grown = np.full(size, np.nan)
            if tbl is not None:
                grown[:tbl.shape[0]] = tbl
            table[batch] = tbl = grown
        vals = tbl[keys]
        total = _sum(vals)  # nan probe: one reduction beats isnan+any
        if total != total:
            miss = np.isnan(vals)
            miss_keys = keys[miss]
            tbl[miss_keys] = np.asarray(
                price(miss_keys.astype(np.float64) / batch),
                dtype=np.float64)
            vals = tbl[keys]
        return vals

    def _decode_span(self, span: int) -> None:
        """Price up to ``span`` steps; cumsum replaces the spend loop."""
        live = self.live
        batch = len(live)
        ctx_sum = 0
        prompt_sum = 0
        for seq in live:
            ctx_sum += seq.context
            prompt_sum += seq.prompt_tokens
        gen_sum = ctx_sum - prompt_sum + batch
        if span > self._idx.shape[0]:
            self._idx = np.arange(2 * span, dtype=np.int64)
        # batch == 1 strides by the identity; skipping the multiply is
        # exact and saves a temporary on every single-slot epoch.
        strided = (self._idx[:span] if batch == 1
                   else self._idx[:span] * batch)
        # mean context at step j is (ctx_sum + batch*j)/batch — integer
        # numerators, so the dense tables resolve most steps.  Clamping
        # the generated key at ``batch`` reproduces max(mean, 1.0).
        base = self._lookup(
            self._base_tbl, batch, strided + ctx_sum,
            lambda v: self.engine.kernels.decode_step_seconds(
                self.engine.profile, v, batch))
        gen_keys = strided + gen_sum
        if gen_keys[0] < batch:
            gen_keys = np.maximum(gen_keys, batch)
        power = self._lookup(
            self._power_tbl, batch, gen_keys,
            lambda v: self.engine.power.decode_power(v, batch))

        # Sequential partial sums: now_path[j] is the clock after j
        # steps, bit-identical to the scalar per-step ``now +=`` loop.
        now_path = np.empty(span + 1)
        now_path[0] = self.now
        now_path[1:] = base
        now_path.cumsum(out=now_path)
        next_ready = (self._peek_pending()
                      if batch < self.sim.max_batch_size else None)
        taken = span
        if next_ready is not None:
            # The scalar loop checks before spending step j (j >= 1);
            # now_path is nondecreasing, so the first step at or past
            # next_ready falls out of one binary search.
            pos = int(np.searchsorted(now_path[1:span], next_ready,
                                      side="left"))
            if pos < span - 1:
                taken = pos + 1
        energy_path = np.empty(taken + 1)
        energy_path[0] = self.energy
        np.multiply(base[:taken], power[:taken], out=energy_path[1:])
        energy_path.cumsum(out=energy_path)
        self.now = float(now_path[taken])
        self.energy = float(energy_path[taken])

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
        the integer sums make those means exact, so memoizing on
        ``(batch, ctx_sum)`` / ``(batch, clamped gen_sum)`` is bit-exact
        (scalar and array ufunc calls agree bitwise).
        """
        live = self.live
        batch = len(live)
        ctx_sum = 0
        prompt_sum = 0
        for seq in live:
            ctx_sum += seq.context
            prompt_sum += seq.prompt_tokens
        gen_sum = ctx_sum - prompt_sum + batch
        base = self._single_memo.get((batch, ctx_sum))
        if base is None:
            base = float(self.engine.kernels.decode_step_seconds(
                self.engine.profile, ctx_sum / batch, batch))
            self._single_memo[(batch, ctx_sum)] = base
        gen_key = max(gen_sum, batch)
        power = self._single_power_memo.get((batch, gen_key))
        if power is None:
            power = float(self.engine.power.decode_power(
                gen_key / batch, batch))
            self._single_power_memo[(batch, gen_key)] = power
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
            # Cheap sufficient test first: each sequence can cross at
            # most ceil(span/block)+1 block boundaries, so a roomy free
            # pool skips the exact binary search entirely.
            worst = len(self.live) * (
                (span + self._block - 1) // self._block + 1)
            if worst > self._free:
                span = max(self._kv_span_cap(span), 1)
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
                if nxt is None:
                    break
                self.now = max(self.now, nxt)
                continue
            self._epoch()

    def _serve_all(self) -> RequestArrays:
        """Run to completion; every request must be served.

        The vector core has no drop path — KV pressure raises
        :class:`VectorFallback` instead — so a short count is a bug.
        """
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
