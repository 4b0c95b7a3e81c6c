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


class VectorFallback(Exception):
    """The vector run met a condition only the scalar oracle can model.

    Raised on any event the scalar core would handle with allocator
    state (KV exhaustion at admission, mid-span block starvation,
    preemption).  The run's caller discards the partial vector state and
    reruns scalar; determinism makes the restart exact.
    """


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
