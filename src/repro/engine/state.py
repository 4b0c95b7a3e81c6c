"""Event-loop state of a serving run, scalar- and array-backed.

The serving simulator has two interchangeable cores (see
:mod:`repro.engine.server` and :mod:`repro.engine.vector_run`):

* the **scalar** oracle — per-request Python objects
  (:class:`LiveSequence`, :class:`RequestState`) threaded through two
  heaps, able to express every feature (faults, thermal derating,
  preemption, degradation, incremental fleet driving);
* the **vector** fast path — the same request population held as
  struct-of-arrays (:class:`RequestArrays`) so admissions, decode-span
  pricing, and token/energy accounting run as batched numpy epochs.

This module owns the state representations both cores share, plus the
mutable counter block (:class:`RunCounters`) and the report assembly
they must agree on byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.engine.request import GenerationRequest


def require_finite_arrivals(arrival_s: np.ndarray, offset: int = 0) -> None:
    """Raise ``ValueError`` naming the first non-finite arrival time.

    A NaN arrival never compares as ready, so an event loop waiting on
    it spins forever; an infinite one is never admitted, so a run ends
    short.  Both are input errors.  ``offset`` numbers the rows of a
    slice in its whole stream.
    """
    bad = np.flatnonzero(~np.isfinite(arrival_s))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"arrival time of row {row + offset} is "
                         f"{float(arrival_s[row])}; arrival times must be "
                         "finite")


@dataclass(eq=False)
class LiveSequence:
    """One sequence currently holding a decode slot (scalar core)."""

    request_id: int
    index: int
    arrival_s: float
    start_s: float
    prefill_s: float
    prompt_tokens: int
    remaining: int
    context: int
    deadline_s: float | None
    kv_seq_id: int | None
    attempt: int
    #: The run's ``fault_slowdown_s`` at admission, before the prefill.
    slowdown_mark_s: float


@dataclass
class RequestState:
    """Cross-attempt bookkeeping for one offered request (scalar core)."""

    index: int
    first_arrival_s: float
    deadline_s: float | None
    attempts: int = 0
    #: Sticky degraded token cap (set once by the admission controller).
    budget_tokens: int | None = None
    degraded: bool = False
    preempted: bool = False
    #: A retry (not a preemption resume) was scheduled for this request.
    retried: bool = False


@dataclass
class RunCounters:
    """Mutable fault/degradation tallies for one run."""

    throttle_residency_s: float = 0.0
    fault_slowdown_s: float = 0.0
    preemptions: int = 0
    resumes: int = 0
    retries: int = 0
    successful_retries: int = 0
    timeouts: int = 0
    injected_aborts: int = 0
    failed: int = 0
    shed: int = 0
    degraded_requests: int = 0
    tokens_saved: int = 0
    unserved_with_deadline: int = 0


class RequestArrays:
    """Struct-of-arrays view of one run's offered request population.

    Column ``i`` describes request ``i`` in injection order.  Static
    columns are fixed at construction; outcome columns (``start_s``,
    ``prefill_s``, ``finish_s``, ``context``) are filled in by the
    vector core's busy-period kernels.  ``deadline_s`` uses ``nan`` for "no
    deadline" so the whole column stays a float64 array.
    """

    __slots__ = ("n", "request_id", "prompt_tokens", "stop_tokens",
                 "arrival_s", "ready_s", "deadline_s", "deadline_mask",
                 "start_s", "prefill_s", "finish_s", "context")

    def __init__(self, requests: "list[GenerationRequest]",
                 arrival_times: np.ndarray,
                 deadlines: np.ndarray | None = None,
                 deadline_mask: np.ndarray | None = None):
        n = len(requests)
        built = self.from_columns(
            np.fromiter((r.request_id for r in requests), np.int64, n),
            np.fromiter((r.prompt_tokens for r in requests), np.int64, n),
            np.fromiter((max(r.stop_lengths()) for r in requests),
                        np.int64, n),
            arrival_times, deadlines, deadline_mask)
        for name in self.__slots__:
            setattr(self, name, getattr(built, name))

    @classmethod
    def from_columns(cls, request_id: np.ndarray, prompt_tokens: np.ndarray,
                     stop_tokens: np.ndarray, arrival_s: np.ndarray,
                     deadlines: np.ndarray | None = None,
                     deadline_mask: np.ndarray | None = None
                     ) -> "RequestArrays":
        """Build directly from columns, skipping per-request objects.

        The population-scale path: a trace generator already holds the
        request population as parallel arrays, and round-tripping a
        million rows through :class:`GenerationRequest` instances just
        to tear them back apart would dominate the run.  ``__init__``
        delegates here with ``stop_tokens`` = ``max(r.stop_lengths())``,
        so this is the one validation site.  ``deadline_mask``
        distinguishes a *missing* deadline (scalar ``None``) from a
        numeric one; a nan value with the mask set is passed through
        faithfully, mirroring the scalar core.
        """
        self = cls.__new__(cls)
        request_id = np.asarray(request_id, dtype=np.int64)
        n = request_id.shape[0]
        self.n = n
        self.request_id = request_id.copy()
        self.prompt_tokens = np.asarray(prompt_tokens,
                                        dtype=np.int64).copy()
        self.stop_tokens = np.asarray(stop_tokens, dtype=np.int64).copy()
        if (self.prompt_tokens.shape != (n,)
                or self.stop_tokens.shape != (n,)):
            raise ValueError("token columns must align with request_id")
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64).copy()
        if self.arrival_s.shape != (n,):
            raise ValueError("arrival_s must align with request_id")
        require_finite_arrivals(self.arrival_s)
        self.ready_s = self.arrival_s.copy()
        if deadlines is None:
            self.deadline_s = np.full(n, np.nan)
            self.deadline_mask = np.zeros(n, dtype=bool)
        else:
            self.deadline_s = np.asarray(deadlines, dtype=np.float64).copy()
            if self.deadline_s.shape != (n,):
                raise ValueError("deadlines must align with request_id")
            if deadline_mask is None:
                self.deadline_mask = np.ones(n, dtype=bool)
            else:
                self.deadline_mask = np.asarray(
                    deadline_mask, dtype=bool).copy()
                if self.deadline_mask.shape != (n,):
                    raise ValueError(
                        "deadline_mask must align with request_id")
        self.start_s = np.full(n, np.nan)
        self.prefill_s = np.zeros(n)
        self.finish_s = np.full(n, np.nan)
        self.context = np.zeros(n, dtype=np.int64)
        return self

    # ------------------------------------------------------------------
    def admission_order(self) -> np.ndarray:
        """Request indices sorted by (ready time, injection order).

        This is exactly the scalar pending-heap pop order: the heap key
        is ``(ready_s, push_seq)`` and batch runs push in injection
        order, so a stable sort on the ready column reproduces it.
        """
        return np.argsort(self.ready_s, kind="stable")


def offered_qps(n: int, last_arrival_s: float, now: float) -> float:
    """The offered rate both cores report: ``n`` arrivals over the last
    arrival time.

    A burst at time 0 (or a single request) rates over the run clock
    ``now`` instead of 1/0 = inf; an empty run at time 0 offers 0.0.
    """
    if last_arrival_s > 0:
        return n / last_arrival_s
    if now > 0:
        return n / now
    return 0.0
