"""Event-driven serving simulator: arrivals, continuous batching, faults.

Section III-B observes that *"edge deployment costs also benefit from
batching and increased queries per second"*.  This module quantifies
that: a :class:`ServingSimulator` drives the engine with a request
arrival process and continuous batching — new requests join the running
decode batch at step boundaries, finished sequences free their slots —
and reports the throughput / latency-percentile / energy / cost surface
as a function of offered load.

The simulation advances in decode-step *epochs*: at each epoch boundary
the scheduler admits queued requests (up to the batch cap and paged
KV-cache capacity), the kernel model prices the step for the current
batch and context profile, and the power model integrates energy.

Prefill follows the paper's batch-1 protocol: an admission prefills
alone, stalling the live decode batch for the prefill's duration.  That
stall is *attributed explicitly* — each request records its own
``prefill_s`` and the report accumulates ``prefill_stall_s``, the decode
seconds lost to other requests' prefills — so queue-delay percentiles
measure pure queueing, not hidden head-of-line blocking.

The serving path is fault-aware (see :mod:`repro.faults`): a seeded
:class:`~repro.faults.FaultInjector` derates clocks and pressures the KV
cache, a :class:`~repro.hardware.thermal.ThermalModel` throttles on
temperature, and a :class:`~repro.faults.DegradationPolicy` adds
timeouts, bounded retries with exponential backoff, KV preemption with
recompute-on-resume, and an admission controller that sheds or shrinks
work under overload.  Every run returns a :class:`ResilienceReport`
(the serving outcome plus fault/degradation counters); with no faults
configured the extra counters are simply zero.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.stats import json_number, nan_percentile, slo_attainment
from repro.engine.engine import InferenceEngine
from repro.engine.kv_cache import (
    KVCacheExhausted,
    PagedKVCache,
    span_growth_cap,
)
from repro.engine.pricing import Pricing, cut_span, span_path
from repro.engine.request import GenerationRequest
from repro.engine.state import (
    LiveSequence,
    RequestArrays,
    RequestState,
    RunCounters,
    offered_qps,
    require_finite_arrivals,
)
from repro.engine.vector_run import VectorServingRun, run_core
from repro.workloads.arrivals import poisson_arrivals

if TYPE_CHECKING:  # imported lazily to keep repro.faults decoupled
    from repro.faults.degradation import DegradationPolicy
    from repro.faults.injector import FaultInjector
    from repro.hardware.thermal import ThermalConfig


@dataclass(slots=True)
class ServedRequest:
    """Latency accounting of one request through the server."""

    request_id: int
    arrival_s: float
    #: When the (final) attempt was admitted — prefill starts here.
    start_s: float
    finish_s: float
    prompt_tokens: int
    output_tokens: int
    deadline_s: float | None = None
    #: Batch-1 prefill duration of the final attempt.
    prefill_s: float = 0.0
    #: Admission attempts consumed (1 = no retries).
    attempts: int = 1
    #: Whether the admission controller shrank this request's budget.
    degraded: bool = False
    #: Derating seconds in the final attempt's service (not serialized).
    slowdown_s: float = 0.0

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for a decode slot (excludes own prefill)."""
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency including queueing, retries, preemptions."""
        return self.finish_s - self.arrival_s

    @property
    def service_s(self) -> float:
        """Prefill + decode time of the completing attempt."""
        return self.finish_s - self.start_s

    @property
    def met_deadline(self) -> bool | None:
        """Whether the request finished inside its deadline (None if
        it had none)."""
        if self.deadline_s is None:
            return None
        return self.latency_s <= self.deadline_s


@dataclass
class ResilienceReport:
    """Aggregate outcome of a serving run, with fault and degradation
    accounting.

    ``deadline_hit_rate`` is scored over the *offered* population:
    requests lost to aborts, sheds, or exhausted retries count as
    misses.  That makes the metric honest under faults — a server cannot
    improve it by dropping hard requests.
    """

    served: list[ServedRequest]
    wallclock_s: float
    energy_joules: float
    offered_qps: float
    #: Decode-batch seconds stalled by other requests' batch-1 prefills
    #: (the paper's prefill protocol, attributed instead of hidden).
    prefill_stall_s: float = 0.0
    #: Requests offered to the server (served + shed + failed).
    offered: int = 0
    #: Wallclock spent with derated clocks (thermal, DVFS, or injected).
    throttle_residency_s: float = 0.0
    #: Times the thermal state machine tripped into THROTTLED.
    thermal_throttle_events: int = 0
    #: Extra wallclock added by derated clocks versus nominal.
    fault_slowdown_s: float = 0.0
    #: Sequences evicted from the KV cache (recompute-on-resume).
    preemptions: int = 0
    #: Previously preempted requests re-admitted.
    resumes: int = 0
    #: Retry attempts scheduled (transient aborts, opted-in timeouts).
    retries: int = 0
    #: Requests that completed after at least one retry.
    successful_retries: int = 0
    #: Attempts aborted by the degradation watchdog.
    timeouts: int = 0
    #: Transient aborts injected by the fault schedule.
    injected_aborts: int = 0
    #: Requests permanently failed (abort with no retry budget left).
    failed: int = 0
    #: Requests rejected or dropped by the admission controller.
    shed: int = 0
    #: Requests admitted with a shrunken token budget.
    degraded_requests: int = 0
    #: Decode tokens saved by degraded-mode budget shrinking.
    tokens_saved: int = 0
    #: Deadline-carrying requests that were never served.
    unserved_with_deadline: int = 0

    @property
    def completed(self) -> int:
        """Requests fully served."""
        return len(self.served)

    @property
    def achieved_qps(self) -> float:
        """Completed requests per second of wallclock."""
        if self.wallclock_s <= 0:
            return 0.0
        return self.completed / self.wallclock_s

    @property
    def total_output_tokens(self) -> int:
        """Generated tokens across all served requests."""
        return sum(r.output_tokens for r in self.served)

    @property
    def total_tokens(self) -> int:
        """Prompt + generated tokens."""
        return sum(r.prompt_tokens + r.output_tokens for r in self.served)

    @property
    def tokens_per_second(self) -> float:
        """Aggregate decode throughput."""
        if self.wallclock_s <= 0:
            return 0.0
        return self.total_output_tokens / self.wallclock_s

    def latency_percentile(self, q: float) -> float:
        """End-to-end latency percentile (q in [0, 100]).

        ``nan`` when nothing completed: a run that shed every request
        has no latency distribution, and a 0.0 placeholder would read as
        an (impossibly good) measurement.
        """
        return nan_percentile([r.latency_s for r in self.served], q)

    @property
    def deadline_hit_rate(self) -> float:
        """On-time completions over all offered deadline-carrying requests.

        Vacuously 1.0 when requests completed but none carried a
        deadline; ``nan`` when the run completed nothing and no
        deadline-carrying request was lost either — e.g. every request
        shed before admission on a deadline-free stream — since there is
        no population to score.
        """
        with_deadlines = [r for r in self.served if r.deadline_s is not None]
        return slo_attainment(sum(bool(r.met_deadline) for r in with_deadlines),
                              len(with_deadlines),
                              self.unserved_with_deadline, len(self.served))

    @property
    def mean_batch_occupancy(self) -> float:
        """Average concurrent sequences, weighted by request service time."""
        if self.wallclock_s <= 0:
            return 0.0
        busy = sum(r.finish_s - r.start_s for r in self.served)
        return busy / self.wallclock_s

    @property
    def throttle_residency_frac(self) -> float:
        """Fraction of wallclock spent throttled."""
        if self.wallclock_s <= 0:
            return 0.0
        return self.throttle_residency_s / self.wallclock_s

    # -- canonical serialization ---------------------------------------
    def to_dict(self) -> dict:
        """A plain-data rendering with every per-request outcome.

        The scalar/vector equivalence gates compare this byte-for-byte
        (via :meth:`to_json`), so it includes full per-request detail,
        not just aggregates.
        """
        return {
            "completed": self.completed,
            "wallclock_s": self.wallclock_s,
            "energy_joules": self.energy_joules,
            "offered_qps": self.offered_qps,
            "prefill_stall_s": self.prefill_stall_s,
            "deadline_hit_rate": json_number(self.deadline_hit_rate),
            "p50_latency_s": json_number(self.latency_percentile(50)),
            "p95_latency_s": json_number(self.latency_percentile(95)),
            "served": [
                {
                    "request_id": r.request_id,
                    "arrival_s": r.arrival_s,
                    "start_s": r.start_s,
                    "finish_s": r.finish_s,
                    "prompt_tokens": r.prompt_tokens,
                    "output_tokens": r.output_tokens,
                    "deadline_s": json_number(r.deadline_s),
                    "prefill_s": r.prefill_s,
                    "attempts": r.attempts,
                    "degraded": r.degraded,
                }
                for r in self.served
            ],
            "offered": self.offered,
            "throttle_residency_s": self.throttle_residency_s,
            "thermal_throttle_events": self.thermal_throttle_events,
            "fault_slowdown_s": self.fault_slowdown_s,
            "preemptions": self.preemptions,
            "resumes": self.resumes,
            "retries": self.retries,
            "successful_retries": self.successful_retries,
            "timeouts": self.timeouts,
            "injected_aborts": self.injected_aborts,
            "failed": self.failed,
            "shed": self.shed,
            "degraded_requests": self.degraded_requests,
            "tokens_saved": self.tokens_saved,
            "unserved_with_deadline": self.unserved_with_deadline,
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical runs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


#: Admission policies: first-come-first-served or earliest-deadline-first.
SCHEDULING_POLICIES = ("fcfs", "edf")

#: Execution modes: the scalar oracle, the batched numpy fast path, or
#: automatic selection (vector whenever the configuration is eligible).
SERVING_MODES = ("auto", "scalar", "vector")


class ServingSimulator:
    """Continuous-batching server over one engine.

    ``faults``, ``thermal``, and ``degradation`` are all optional; a bare
    simulator behaves as the fault-free server the ablation studies use.
    ``kv_cache`` overrides the engine's paged cache (e.g. a deliberately
    small one to study memory pressure); admissions and per-token appends
    are accounted against it, and exhaustion triggers preemption with
    recompute-on-resume, mirroring vLLM's fallback.

    ``mode`` selects the event-loop core: ``"scalar"`` is the oracle,
    ``"vector"`` the batched numpy fast path (only legal for eligible
    configurations — no faults, thermal, degradation, or power noise),
    and ``"auto"`` (default) picks vector whenever eligible.  Both cores
    produce byte-identical reports; :attr:`last_mode` records which one
    actually ran.  The vector core's busy-period kernels serve FCFS
    only, and only shares that cannot meet KV pressure; EDF and
    KV-tight runs raise :class:`~repro.engine.vector_run.
    VectorFallback` before any work and run on the scalar core, which
    still reads the shared price tables.
    """

    def __init__(self, engine: InferenceEngine, max_batch_size: int = 8,
                 policy: str = "fcfs", *,
                 faults: "FaultInjector | None" = None,
                 thermal: "ThermalConfig | None" = None,
                 degradation: "DegradationPolicy | None" = None,
                 kv_cache: PagedKVCache | None = None,
                 max_span_steps: int | None = None,
                 mode: str = "auto"):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {SCHEDULING_POLICIES}")
        if max_span_steps is not None and max_span_steps <= 0:
            raise ValueError("max_span_steps must be positive")
        if mode not in SERVING_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {SERVING_MODES}")
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.policy = policy
        self.faults = faults
        self.thermal_config = thermal
        self.degradation = degradation
        self.kv_cache = kv_cache if kv_cache is not None else engine.kv_cache
        #: Cap on multi-token span pricing (None = unbounded; 1 = the
        #: original per-token stepping, kept for equivalence testing).
        self.max_span_steps = max_span_steps
        self.mode = mode
        #: Core that executed the most recent :meth:`run` ("scalar" or
        #: "vector"); None before the first run.
        self.last_mode: str | None = None
        #: Prices both cores share: the process-wide memo of this
        #: engine spec when pure, else a private non-memoizing one.  The
        #: oracle (``mode="scalar"``) still prices decode directly.
        self.pricing = (Pricing.shared(engine) if self.vector_eligible()
                        else Pricing(engine, pure=False))

    # ------------------------------------------------------------------
    def vector_eligible(self) -> bool:
        """Whether this configuration admits the vector fast path.

        Static test only — KV exhaustion is dynamic and handled by
        :class:`~repro.engine.vector_run.VectorFallback` at run time.
        """
        return (self.faults is None
                and self.thermal_config is None
                and self.degradation is None
                and self.engine.power.noise_std == 0)

    def run(self, requests: list[GenerationRequest],
            arrival_times: np.ndarray,
            deadlines: np.ndarray | None = None) -> ResilienceReport:
        """Serve ``requests`` arriving at ``arrival_times`` (seconds).

        ``deadlines`` (seconds after each arrival) enables the EDF policy
        and the report's deadline hit rate.  The run is deterministic:
        the same inputs, seed, and fault schedule reproduce the report
        exactly — in either mode.  Outside ``mode="scalar"`` an eligible
        run tries the vector core first and reruns scalar on
        :class:`~repro.engine.vector_run.VectorFallback` (EDF, or a
        share a busy-period kernel cannot serve).
        """
        if len(requests) != len(arrival_times):
            raise ValueError("requests and arrival_times must align")
        if deadlines is not None and len(deadlines) != len(requests):
            raise ValueError("deadlines must align with requests")
        if self.policy == "edf" and deadlines is None:
            raise ValueError("the edf policy requires deadlines")
        arrivals = np.asarray(arrival_times, dtype=np.float64)
        require_finite_arrivals(arrivals)
        return run_core(
            self, self.vector_eligible(),
            "an eligible configuration (no faults, thermal, degradation, "
            "or power noise)",
            lambda: VectorServingRun(self, arrays=RequestArrays(
                requests, arrivals, deadlines)).execute(),
            lambda: _ServingRun(self, requests, arrivals,
                                deadlines).execute())

    # ------------------------------------------------------------------
    def run_poisson(self, rng: np.random.Generator, qps: float,
                    num_requests: int, prompt_tokens: int = 150,
                    output_tokens: int = 256,
                    deadline_s: float | None = None) -> ResilienceReport:
        """Serve a Poisson arrival stream at ``qps`` offered load.

        ``deadline_s`` attaches a uniform per-request deadline, enabling
        deadline metrics (and the EDF policy) on synthetic streams.
        """
        arrivals = poisson_arrivals(rng, qps, num_requests)
        requests = [
            GenerationRequest(i, prompt_tokens, output_tokens)
            for i in range(num_requests)
        ]
        deadlines = (np.full(num_requests, float(deadline_s))
                     if deadline_s is not None else None)
        return self.run(requests, arrivals, deadlines)


class _ServingRun:
    """State and event loop of one serving run.

    Scheduling uses two heaps (the O(n log n) replacement for the old
    linear-scan-plus-reheapify admission):

    * ``pending`` — min-heap on ready time: requests not yet arrived
      (or backing off before a retry);
    * ``ready`` — min-heap on the policy key: eligible requests, keyed
      by first arrival (FCFS) or absolute deadline (EDF).

    Requests are promoted from ``pending`` to ``ready`` lazily as the
    clock passes their ready time.

    A run can also be driven *incrementally* (the fleet gateway's mode):
    construct with no requests, :meth:`inject` work as it is routed,
    interleave :meth:`run_until` calls up to successive event horizons,
    :meth:`evacuate` survivors on a device crash, and read
    :meth:`report` at the end.  The batch :meth:`execute` path is the
    same machinery with the horizon at infinity.
    """

    def __init__(self, sim: ServingSimulator,
                 requests: list[GenerationRequest] | None = None,
                 arrival_times: np.ndarray | None = None,
                 deadlines: np.ndarray | None = None):
        self.sim = sim
        self.engine = sim.engine
        self.kv = sim.kv_cache
        self.faults = sim.faults
        self.degradation = sim.degradation
        if sim.thermal_config is not None:
            from repro.hardware.thermal import ThermalModel
            self.thermal: "ThermalModel | None" = ThermalModel(sim.thermal_config)
        else:
            self.thermal = None

        self.now = 0.0
        self.energy = 0.0
        self.prefill_stall_s = 0.0
        self.live: list[LiveSequence] = []
        self.served: list[ServedRequest] = []
        #: Terminal drops in chronological order: ``(index, kind)`` with
        #: kind ``"shed"`` or ``"failed"``.  An incremental driver (the
        #: fleet gateway) reads this with a cursor to attribute each
        #: drop to a specific request; batch runs only need the counters.
        self.dropped: list[tuple[int, str]] = []
        self.counters = RunCounters()
        self.requests: dict[int, GenerationRequest] = {}
        self.states: dict[int, RequestState] = {}
        self._next_index = 0
        self._push_seq = 0
        self._horizon = math.inf
        #: Queued requests as ``(ready time or policy key, push seq,
        #: index, stop length)``: the stop length, ``max(stop_lengths())``
        #: of the request, is computed once at inject.
        self.pending: list[tuple[float, int, int, int]] = []
        self.ready: list[tuple[float, int, int, int]] = []
        #: Decode tokens this run still owes: the ``remaining`` of every
        #: live sequence plus the stop length of every queued request.
        #: Kept exact at every change, so routing reads it in O(1).
        self.decode_backlog = 0
        #: Summed ``context`` and ``prompt_tokens`` of the live batch,
        #: the pricing keys :meth:`_span_keys` reads.
        self.ctx_sum = 0
        self.prompt_sum = 0
        if requests is not None:
            for i in range(len(requests)):
                self.inject(
                    requests[i], float(arrival_times[i]),
                    deadline_s=(float(deadlines[i]) if deadlines is not None
                                else None))
        self._pressure_blocks = 0
        self._my_kv_ids: set[int] = set()
        #: The last table-priced decode span, kept so a later call on
        #: the same path resumes it: ``(pricing, path, batch, ctx_sum,
        #: gen_sum)`` with ``path`` from :func:`span_path` and the keys
        #: of its first step.  The oracle and impure runs never set it.
        self._span: tuple | None = None

    # -- incremental driving (fleet gateway seam) ----------------------
    def inject(self, request: GenerationRequest, arrival_s: float,
               deadline_s: float | None = None,
               ready_s: float | None = None) -> int:
        """Hand one request to this run; returns its run-local index.

        ``arrival_s`` is the request's *original* arrival (latency and
        EDF urgency account from here); ``ready_s`` is when this run may
        first admit it — later than the arrival for work re-routed after
        a device crash (re-route time plus any backoff).
        """
        index = self._next_index
        self._next_index += 1
        self.requests[index] = request
        self.states[index] = RequestState(
            index=index,
            first_arrival_s=float(arrival_s),
            deadline_s=deadline_s,
        )
        self._push_pending(float(arrival_s if ready_s is None else ready_s),
                           index, max(request.stop_lengths()))
        return index

    # -- scheduling ----------------------------------------------------
    def _push_pending(self, ready_s: float, index: int, stop: int) -> None:
        """Queue ``index`` (stop length ``stop``) to become ready at
        ``ready_s``."""
        self._push_seq += 1
        heapq.heappush(self.pending, (ready_s, self._push_seq, index, stop))
        self.decode_backlog += stop

    def _ready_key(self, index: int) -> float:
        state = self.states[index]
        if self.sim.policy == "edf":
            # Injected streams may mix deadline-free work into an EDF
            # queue; no deadline means no urgency (sorts last).
            if state.deadline_s is None:
                return math.inf
            return state.first_arrival_s + float(state.deadline_s)
        return state.first_arrival_s

    def _push_ready(self, index: int, stop: int) -> None:
        """Move ``index`` into the ready heap (backlog unchanged: the
        caller takes it off ``pending`` or hands back what
        :meth:`_pop_ready` took)."""
        self._push_seq += 1
        heapq.heappush(self.ready,
                       (self._ready_key(index), self._push_seq, index, stop))

    def _promote(self) -> None:
        while self.pending and self.pending[0][0] <= self.now:
            _, _, index, stop = heapq.heappop(self.pending)
            self._push_ready(index, stop)

    def _pop_ready(self) -> tuple[int, int] | None:
        """Dequeue the policy's head as ``(index, stop length)``."""
        if not self.ready:
            return None
        _, _, index, stop = heapq.heappop(self.ready)
        self.decode_backlog -= stop
        return index, stop

    def _backlog(self) -> int:
        """Arrived-and-waiting queue depth.

        Future arrivals still sitting in ``pending`` are not load; only
        requests whose arrival (or retry backoff) time has passed count
        toward admission-control decisions.
        """
        self._promote()
        return len(self.ready)

    def _shed_worst_ready(self) -> None:
        """Reject the least-urgent ready request.

        Admission control sheds from the tail of the queue — the latest
        deadline under EDF, the newest arrival under FCFS — never the
        head the policy is about to serve.
        """
        worst = max(self.ready)
        self.ready.remove(worst)
        heapq.heapify(self.ready)
        self.decode_backlog -= worst[3]
        self.counters.shed += 1
        self.dropped.append((worst[2], "shed"))
        self._record_unserved(self.states[worst[2]])

    # -- fault plumbing ------------------------------------------------
    def _speed(self) -> float:
        speed = 1.0
        if self.faults is not None:
            speed *= self.faults.speed_factor(self.now)
        if self.thermal is not None:
            speed *= self.thermal.speed_factor()
        return max(speed, 0.05)

    def _power_scale(self) -> float:
        return self.thermal.power_scale() if self.thermal is not None else 1.0

    def _spend(self, base_seconds: float, power_w: float) -> float:
        """Advance the clock by a derated phase; integrate energy/heat."""
        speed = self._speed()
        effective = base_seconds / speed
        watts = power_w * self._power_scale()
        self.now += effective
        self.energy += effective * watts
        if speed < 1.0:
            self.counters.throttle_residency_s += effective
        self.counters.fault_slowdown_s += effective - base_seconds
        if self.thermal is not None:
            self.thermal.advance(effective, watts)
        return effective

    def _apply_kv_pressure(self) -> None:
        if self.faults is None:
            return
        fraction = self.faults.kv_pressure_fraction(self.now)
        target = int(fraction * self.kv.config.total_blocks)
        if target > self._pressure_blocks:
            self._pressure_blocks += self.kv.reserve_blocks(
                target - self._pressure_blocks)
        elif target < self._pressure_blocks:
            self.kv.release_reserved(self._pressure_blocks - target)
            self._pressure_blocks = target

    # -- request lifecycle ---------------------------------------------
    def _record_unserved(self, state: RequestState) -> None:
        if state.deadline_s is not None:
            self.counters.unserved_with_deadline += 1

    def _retry_or_fail(self, state: RequestState, *, allow_retry: bool) -> None:
        policy = self.degradation
        if (policy is not None and allow_retry
                and state.attempts <= policy.max_retries):
            self.counters.retries += 1
            state.retried = True
            self._push_pending(self.now + policy.backoff_s(state.attempts),
                               state.index, self._stop(state.index))
        else:
            self.counters.failed += 1
            self.dropped.append((state.index, "failed"))
            self._record_unserved(state)

    def _stop(self, index: int) -> int:
        """Stop length of request ``index`` (its backlog term while
        queued)."""
        return max(self.requests[index].stop_lengths())

    def _remove_live(self, seq: LiveSequence) -> None:
        """Take ``seq`` out of the batch, freeing its KV and its share
        of the backlog and span-key counters."""
        self.live.remove(seq)
        self.decode_backlog -= seq.remaining
        self.ctx_sum -= seq.context
        self.prompt_sum -= seq.prompt_tokens
        if seq.kv_seq_id is not None:
            self.kv.release_sequence(seq.kv_seq_id)
            self._my_kv_ids.discard(seq.kv_seq_id)

    def _preempt(self, seq: LiveSequence) -> None:
        """Evict a live sequence; it re-queues for recompute-on-resume."""
        self._remove_live(seq)
        self.counters.preemptions += 1
        state = self.states[seq.index]
        state.preempted = True
        self._push_pending(self.now, seq.index, self._stop(seq.index))

    def _pick_victim(self, exclude: LiveSequence) -> LiveSequence | None:
        """The live sequence ``exclude`` may evict to grow, or None.

        FCFS evicts the most recently admitted (vLLM-style LIFO), and
        only one admitted after ``exclude``: when every other sequence
        is older, ``exclude`` itself yields.  So the oldest live
        sequence is never evicted and gains a token every epoch — the
        progress guarantee that rules out two sequences evicting each
        other forever under recompute-on-resume.
        """
        if self.sim.policy == "edf":
            # Latest absolute deadline loses its slot first.  A deadline
            # of 0.0 is real and maximally urgent; only None means none.
            return max((s for s in self.live if s is not exclude),
                       key=lambda s: (s.arrival_s + (np.inf if s.deadline_s
                                                     is None else s.deadline_s),
                                      s.start_s),
                       default=None)
        return max((s for s in self.live if s.start_s > exclude.start_s),
                   key=lambda s: s.start_s, default=None)

    def _finish(self, seq: LiveSequence) -> None:
        self._remove_live(seq)
        state = self.states[seq.index]
        if state.retried:
            self.counters.successful_retries += 1
        self.served.append(ServedRequest(
            request_id=seq.request_id,
            arrival_s=seq.arrival_s,
            start_s=seq.start_s,
            finish_s=self.now,
            prompt_tokens=seq.prompt_tokens,
            output_tokens=seq.context - seq.prompt_tokens,
            deadline_s=seq.deadline_s,
            prefill_s=seq.prefill_s,
            attempts=state.attempts,
            degraded=state.degraded,
            slowdown_s=self.counters.fault_slowdown_s - seq.slowdown_mark_s,
        ))

    # -- admission -----------------------------------------------------
    def _admission_budget(self, stop: int, state: RequestState) -> int:
        """Stop length ``stop`` after any degraded-mode budget shrink."""
        policy = self.degradation
        if state.budget_tokens is not None:
            return min(stop, state.budget_tokens)
        if policy is None or not policy.sheds_load:
            return stop
        if self._backlog() <= policy.shed_queue_depth:
            return stop
        budget = policy.degraded_budget()
        if budget is None or budget >= stop:
            return stop
        state.budget_tokens = budget
        state.degraded = True
        self.counters.degraded_requests += 1
        self.counters.tokens_saved += stop - budget
        return budget

    def _try_admit_one(self) -> bool:
        """Admit the next eligible request; False when admission stalls."""
        self._promote()
        head = self._pop_ready()
        if head is None:
            return False
        index, stop = head
        request = self.requests[index]
        state = self.states[index]
        policy = self.degradation

        # Drop queued requests whose deadline already passed.
        if (policy is not None and policy.drop_expired
                and state.deadline_s is not None
                and self.now > state.first_arrival_s + state.deadline_s):
            self.counters.shed += 1
            self.dropped.append((index, "shed"))
            self._record_unserved(state)
            return True

        # Admission controller: under overload, reject the least-urgent
        # queued work (queue tail), never the head being admitted.
        if (policy is not None and policy.sheds_load
                and policy.shed_mode == "reject"):
            while self._backlog() > policy.shed_queue_depth:
                self._shed_worst_ready()

        budget = self._admission_budget(stop, state)

        # Reserve prompt KV blocks; on exhaustion the head request waits.
        kv_id = self.engine.new_sequence_id()
        try:
            self.kv.allocate_sequence(kv_id, request.prompt_tokens)
        except KVCacheExhausted:
            self._push_ready(index, stop)
            self.decode_backlog += stop
            return False
        self._my_kv_ids.add(kv_id)

        state.attempts += 1
        if state.preempted:
            state.preempted = False
            self.counters.resumes += 1

        # Batch-1 prefill: stalls the live decode batch (attributed).
        base_seconds, power = self._prefill_cost(request)
        start_s = self.now
        slowdown_mark_s = self.counters.fault_slowdown_s
        effective = self._spend(base_seconds, power)
        self.prefill_stall_s += effective * len(self.live)

        # Transient engine failure on this attempt (fault schedule).
        if (self.faults is not None
                and self.faults.should_abort(request.request_id, state.attempts)):
            self.counters.injected_aborts += 1
            self.kv.release_sequence(kv_id)
            self._my_kv_ids.discard(kv_id)
            self._retry_or_fail(state, allow_retry=True)
            return True

        self.live.append(LiveSequence(
            request_id=request.request_id,
            index=index,
            arrival_s=state.first_arrival_s,
            start_s=start_s,
            prefill_s=effective,
            prompt_tokens=request.prompt_tokens,
            remaining=budget,
            context=request.prompt_tokens,
            deadline_s=state.deadline_s,
            kv_seq_id=kv_id,
            attempt=state.attempts,
            slowdown_mark_s=slowdown_mark_s,
        ))
        self.decode_backlog += budget
        self.ctx_sum += request.prompt_tokens
        self.prompt_sum += request.prompt_tokens
        return True

    def _prefill_cost(self, request: GenerationRequest) -> tuple[float, float]:
        """(base seconds, watts) of this request's batch-1 prefill.

        The seam subclasses override for prefix-cache-aware admission:
        a warm prefix prefills only the unshared suffix.
        """
        return self.sim.pricing.prefill(request.prompt_tokens)

    # -- epochs --------------------------------------------------------
    def _sweep_timeouts(self) -> None:
        policy = self.degradation
        if policy is None or policy.timeout_s is None:
            return
        for seq in [s for s in self.live
                    if self.now - s.start_s > policy.timeout_s]:
            self._remove_live(seq)
            self.counters.timeouts += 1
            self._retry_or_fail(self.states[seq.index],
                                allow_retry=policy.retry_on_timeout)

    def _decode_epoch(self) -> None:
        span = self._span_limit()
        if span > 1:
            self._decode_span(span)
            return
        batch, ctx_sum, gen_sum = self._span_keys()
        if self.sim.pricing.pure and self.sim.mode != "scalar":
            base, power = self.sim.pricing.span(batch, ctx_sum, gen_sum, 1)
        else:
            base, power = self._direct_prices(batch, ctx_sum, gen_sum, 1)
        self._spend(float(base[0]), float(power[0]))

        for seq in list(self.live):
            if seq not in self.live:
                continue  # preempted as a victim earlier in this sweep
            if not self._append_with_preemption(seq):
                continue  # could not fit even after evictions; requeued
            seq.remaining -= 1
            seq.context += 1
            self.decode_backlog -= 1
            self.ctx_sum += 1
            if seq.remaining <= 0:
                self._finish(seq)

    # -- multi-token span pricing --------------------------------------
    def _span_limit(self) -> int:
        """Longest run of decode steps with no possible event in between.

        Events that can change the batch or the clock model mid-span
        force per-token stepping: fault/thermal derating (time-varying
        speed), an admission stalled on KV exhaustion (re-attempted — with
        side effects — every epoch), a sequence finishing, or the KV pool
        running out (preemption).  Arrival and timeout boundaries depend
        on the priced step times, so they cut the span later, inside
        :meth:`_decode_span`.
        """
        if self.faults is not None or self.thermal is not None:
            return 1
        if self.ready and len(self.live) < self.sim.max_batch_size:
            return 1
        span = min(seq.remaining for seq in self.live)
        if self.sim.max_span_steps is not None:
            span = min(span, self.sim.max_span_steps)
        if span > 1:
            span = max(span_growth_cap(self.live, self.kv.config.block_tokens,
                                       self.kv.free_blocks, span), 1)
        return span

    def _decode_span(self, span: int) -> None:
        """Price up to ``span`` decode steps in one kernel call.

        The batch is membership-stable for the whole span (guaranteed by
        :meth:`_span_limit`), so the per-step mean context and mean
        generated-token count each advance by exactly one per step — the
        whole span prices as one table read (impure or oracle runs: one
        kernel/power evaluation).  The clock and energy integrate
        step-by-step in the same order as per-token stepping
        (bit-identical event times), and the span is cut at the first
        boundary where an arrival promotion or a degradation timeout
        would have fired.
        """
        batch, ctx_sum, gen_sum = self._span_keys()
        # An arrival can only trigger admission while a slot is free; a
        # timeout sweep fires once the clock strictly passes the oldest
        # live sequence's deadline.  An incremental run additionally
        # stops at its horizon: events past it (gateway injections,
        # crashes) are not known yet.
        next_ready = (self.pending[0][0]
                      if self.pending and batch < self.sim.max_batch_size
                      else math.inf)
        if self.sim.pricing.pure and self.sim.mode != "scalar":
            # Pure pricing (no timeouts, speed 1.0: ``_spend``'s /1.0,
            # *1.0 and += 0.0 are exact identities): read the tables and
            # spend the span the way the vector core does, resuming the
            # stored path when the run still stands on it.
            start = self._span_offset(batch, ctx_sum, gen_sum)
            # Resume only when the stored path covers the whole span.
            if start < 0 or start + span >= self._span[1].shape[1]:
                base, power = self.sim.pricing.span(batch, ctx_sum, gen_sum,
                                                    span)
                self._span = (self.sim.pricing,
                              span_path(self.now, self.energy, base, power),
                              batch, ctx_sum, gen_sum)
                start = 0
            path = self._span[1]
            end = cut_span(path, start, start + span,
                           min(next_ready, self._horizon))
            taken = end - start
            self.now = float(path[0, end])
            self.energy = float(path[1, end])
        else:
            base, power = self._direct_prices(batch, ctx_sum, gen_sum, span)
            policy = self.degradation
            timeout_at = (min(seq.start_s for seq in self.live)
                          + policy.timeout_s
                          if policy is not None
                          and policy.timeout_s is not None else math.inf)
            taken = 0
            for j in range(span):
                if j > 0 and (self.now >= next_ready
                              or self.now > timeout_at
                              or self.now >= self._horizon):
                    break
                self._spend(float(base[j]), float(power[j]))
                taken += 1

        live = self.live
        # The span cap guarantees the whole batch grows ``taken`` tokens
        # out of the free pool before any finisher frees its blocks.
        self.kv.extend_all([seq.kv_seq_id for seq in live], taken)
        self.decode_backlog -= taken * batch
        self.ctx_sum += taken * batch
        for seq in list(live):
            seq.remaining -= taken
            seq.context += taken
            if seq.remaining <= 0:
                self._finish(seq)

    def _direct_prices(self, batch: int, ctx_sum: int, gen_sum: int,
                       steps: int) -> tuple[np.ndarray, np.ndarray]:
        """(seconds, watts) of ``steps`` decode steps of a stable batch,
        priced by the kernel and power models themselves (impure and
        oracle runs): step ``j`` runs at mean context ``(ctx_sum +
        batch*j) / batch`` and mean generated count ``(gen_sum +
        batch*j) / batch``, at least 1.  A one-step call prices bitwise
        like a scalar call (see :mod:`repro.engine.pricing`)."""
        offset = batch * np.arange(steps, dtype=np.float64)
        base = self.engine.kernels.decode_step_seconds(
            self.engine.profile, (ctx_sum + offset) / batch, batch)
        power = np.asarray(self.engine.power.decode_power(
            np.maximum((gen_sum + offset) / batch, 1.0), batch),
            dtype=np.float64)
        return base, power

    def _span_keys(self) -> tuple[int, int, int]:
        """The live batch's size, summed context and summed generated
        count (this step's token included): a span's pricing keys."""
        batch = len(self.live)
        return batch, self.ctx_sum, self.ctx_sum + batch - self.prompt_sum

    def _span_offset(self, batch: int, ctx_sum: int, gen_sum: int) -> int:
        """Column of the stored span this state stands on, or -1.

        The keys must lie on the span (``ctx_sum - ctx0 == gen_sum -
        gen0 == batch*k``) and the clock and energy must equal column
        ``k`` bit for bit.  The test checks itself: equal keys read equal
        table prices, so the rest of the stored path is exactly the path
        a fresh pricing from here would build — whatever the batch's
        membership.
        """
        stored = self._span
        if stored is None:
            return -1
        pricing, path, batch0, ctx0, gen0 = stored
        grown = ctx_sum - ctx0
        if (batch != batch0 or pricing is not self.sim.pricing
                or gen_sum - gen0 != grown or grown % batch):
            return -1
        k = grown // batch
        if (not 0 <= k < path.shape[1] - 1 or path[0, k] != self.now
                or path[1, k] != self.energy):
            return -1
        return k

    def quiet_until(self) -> float:
        """A time up to which :meth:`run_until` changes nothing visible.

        For any ``horizon <= quiet_until()``, ``run_until(horizon)``
        appends no served or dropped record and leaves the batch's
        membership as it is; it may only move the clock along the
        stored span.  That holds up to the clock before the last step
        of the span the next decode call would take on the stored path
        (a step after a call's first runs only while the clock before it
        is below the horizon, and nobody finishes before that span
        ends), and up to the next pending ready time while a batch slot
        is free.  In every other case (no live batch, an admission
        stalled on KV with a free slot, no stored span on this state:
        the oracle and impure runs) the bound is the clock itself.
        """
        if not self.live:
            return self.now
        start = self._span_offset(*self._span_keys())
        if start < 0:
            return self.now
        path = self._span[1]
        # A one-step span (e.g. an admission stalled on KV with a free
        # slot) bounds at column ``start``: the clock itself.
        end = min(start + self._span_limit(), path.shape[1] - 1)
        bound = float(path[0, end - 1])
        if self.pending and len(self.live) < self.sim.max_batch_size:
            bound = min(bound, self.pending[0][0])
        return max(self.now, bound)

    def _append_with_preemption(self, seq: LiveSequence) -> bool:
        """Grow a sequence's KV by one token, evicting victims if needed."""
        while True:
            try:
                self.kv.append_token(seq.kv_seq_id)
                return True
            except KVCacheExhausted:
                victim = self._pick_victim(exclude=seq)
                if victim is None:
                    if (self.kv.reserved_blocks == 0
                            and self.kv.blocks_for(seq.context + 1)
                            > self.kv.config.total_blocks):
                        # The whole cache cannot hold it: fail, don't spin.
                        self._remove_live(seq)
                        self.counters.failed += 1
                        self.dropped.append((seq.index, "failed"))
                        self._record_unserved(self.states[seq.index])
                        return False
                    self._preempt(seq)
                    return False
                self._preempt(victim)

    def _advance_idle(self) -> str:
        """No live batch: jump to the next arrival or fault boundary.

        Returns ``"advanced"`` after moving the clock, ``"parked"`` when
        the next unblocking event lies at or beyond the run's horizon
        (an incremental run waits for its driver there), and ``"stuck"``
        when nothing can ever unblock the head request — the caller must
        shed it to guarantee progress.
        """
        targets = []
        if self.pending:
            targets.append(self.pending[0][0])
        if self.ready and self.faults is not None:
            boundary = self.faults.next_boundary_after(self.now)
            if boundary is not None:
                targets.append(boundary)
        if targets:
            target = min(targets)
            if target >= self._horizon:
                return "parked"
            self.now = max(self.now, target)
            return "advanced"
        return "stuck" if self.ready else "parked"

    def _shed_unservable_head(self) -> None:
        """Drop a request that cannot fit the KV cache even when idle."""
        head = self._pop_ready()
        if head is None:
            return
        index = head[0]
        self.counters.failed += 1
        self.dropped.append((index, "failed"))
        self._record_unserved(self.states[index])

    # -- main loop -----------------------------------------------------
    def run_until(self, horizon: float) -> None:
        """Advance the run until ``horizon`` (or until out of work).

        Events strictly before the horizon are processed; an epoch
        started before it may finish past it (epochs are atomic), but no
        *new* work starts at or after the horizon, and an idle run never
        jumps its clock across it — the driver may still inject earlier
        work.
        """
        self._horizon = horizon
        try:
            while self.pending or self.ready or self.live:
                if self.now >= horizon:
                    break
                self._apply_kv_pressure()
                self._promote()
                while (len(self.live) < self.sim.max_batch_size
                       and self._try_admit_one()):
                    pass
                if self.now >= horizon:
                    # An admission prefill crossed the horizon.  The
                    # driver may still inject arrivals earlier than the
                    # clock now stands; starting a decode epoch here
                    # would price them out of the batch and diverge from
                    # the batch oracle (which already holds them in
                    # ``pending`` and admits them first).
                    break
                if not self.live:
                    if not (self.pending or self.ready):
                        break
                    status = self._advance_idle()
                    if status == "stuck":
                        self._shed_unservable_head()
                    elif status == "parked":
                        break
                    continue
                self._sweep_timeouts()
                if not self.live:
                    continue
                self._decode_epoch()
        finally:
            self._horizon = math.inf

    def drain(self) -> None:
        """Run every remaining event to completion."""
        self.run_until(math.inf)

    def release(self) -> None:
        """Return every held KV resource (shared caches come back clean)."""
        for kv_id in list(self._my_kv_ids):
            self.kv.release_sequence(kv_id)
        self._my_kv_ids.clear()
        if self._pressure_blocks:
            self.kv.release_reserved(self._pressure_blocks)
            self._pressure_blocks = 0

    def cancel(self, request_id: int) -> bool:
        """Withdraw an unfinished request from this run (hedging seam).

        Removes every queued or live copy of ``request_id`` — KV is
        released, pending/ready entries are dequeued — without touching
        the shed/failed counters: a cancelled request is not a service
        failure, its outcome is owned by whoever duplicated it (the
        gateway's first-wins hedge).  Decode tokens already produced
        stay priced in the run's clock and energy — hedging's true cost.
        Returns True when an unfinished copy was withdrawn, False when
        the request already reached a terminal outcome here (or was
        never injected).
        """
        indices = {index for index, request in self.requests.items()
                   if request.request_id == request_id}
        if not indices:
            return False
        cancelled = False
        for seq in [s for s in self.live if s.index in indices]:
            self._remove_live(seq)
            cancelled = True
        for heap in (self.ready, self.pending):
            keep = [entry for entry in heap if entry[2] not in indices]
            if len(keep) != len(heap):
                self.decode_backlog -= sum(entry[3] for entry in heap
                                           if entry[2] in indices)
                heap[:] = keep
                heapq.heapify(heap)
                cancelled = True
        return cancelled

    def evacuate(self) -> list[tuple[GenerationRequest, RequestState]]:
        """Crash this run: strip all in-flight and queued work.

        Live sequences lose their KV and partial decode; queued requests
        are dequeued.  Everything comes back as (request, state) pairs in
        run-injection order so a fleet gateway can re-route them with
        their original arrival and deadline accounting intact.  Served
        requests and counters stay — the device's report remains honest
        about what it did before dying.
        """
        survivors: list[int] = []
        for seq in list(self.live):
            self._remove_live(seq)
            survivors.append(seq.index)
        for heap in (self.ready, self.pending):
            while heap:
                survivors.append(heapq.heappop(heap)[2])
        self.decode_backlog = 0
        return [(self.requests[index], self.states[index])
                for index in sorted(survivors)]

    def execute(self) -> ResilienceReport:
        try:
            self.drain()
            return self.report()
        finally:
            # A shared engine cache must come back clean, even on error.
            self.release()

    def report(self) -> ResilienceReport:
        """The run's report so far (an incremental driver reads this
        after draining; :meth:`execute` wraps it with cleanup)."""
        n = len(self.states)
        return ResilienceReport(
            served=sorted(self.served, key=lambda r: r.request_id),
            wallclock_s=self.now,
            energy_joules=self.energy,
            offered_qps=offered_qps(n, max(
                (s.first_arrival_s for s in self.states.values()),
                default=0.0), self.now),
            prefill_stall_s=self.prefill_stall_s,
            offered=n,
            throttle_residency_s=self.counters.throttle_residency_s,
            thermal_throttle_events=(self.thermal.throttle_events
                                     if self.thermal is not None else 0),
            fault_slowdown_s=self.counters.fault_slowdown_s,
            preemptions=self.counters.preemptions,
            resumes=self.counters.resumes,
            retries=self.counters.retries,
            successful_retries=self.counters.successful_retries,
            timeouts=self.counters.timeouts,
            injected_aborts=self.counters.injected_aborts,
            failed=self.counters.failed,
            shed=self.counters.shed,
            degraded_requests=self.counters.degraded_requests,
            tokens_saved=self.counters.tokens_saved,
            unserved_with_deadline=self.counters.unserved_with_deadline,
        )
