"""The vector partition-and-drain: pure functions over request columns.

Eligible runs bypass the gateway's per-event loop entirely, through
either entry point: :meth:`~repro.fleet.gateway.FleetGateway.run` folds
its request stream into columns (:func:`_stream_columns`) and
:meth:`~repro.fleet.gateway.FleetGateway.run_trace` collects a chunked
column trace (:func:`_collect_trace`); both then share one partition
(:func:`_assign`: round-robin or prefix-affinity), one per-device drain
(:func:`_drain`) on the array-backed vector core, and one eligibility
rule (:meth:`~repro.fleet.gateway.FleetGateway.vector_eligible`).
``run`` reports a :class:`~repro.fleet.report.FleetReport`,
``run_trace`` the column-native :class:`~repro.fleet.trace.
FleetTraceReport`; the gateway assembles both from what :func:`_drain`
returns.

Every function here takes its inputs explicitly — the routing policy,
the fleet's device specs in name order, the columns — and reads no
gateway state, so a drain is a pure function of the rows and the fleet.
Prefix affinity ranks through :func:`_rendezvous_winners`, the one
routine both cores share: the scalar gateway ranks its routable pool
with it per arrival, :func:`_assign` the whole fleet per distinct
session.  The ranking is rendezvous (highest-random-weight) hashing
with one sha256 per session and per device name (a gateway hashes
its names once), and a candidate's weight is the splitmix64 finalizer
of the two keys' XOR.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.engine.state import RequestArrays, require_finite_arrivals
from repro.engine.vector_run import VectorServingRun
from repro.fleet.device import FleetDevice

#: Weight-matrix bytes :func:`_rendezvous_winners` holds per block of
#: sessions (8 per session and candidate).
_RENDEZVOUS_BLOCK_BYTES = 1 << 18

#: The vector core's work counters (attributes of
#: :class:`~repro.engine.vector_run.VectorServingRun`) that
#: :func:`_drain_share` returns and a gateway sums over shares.
_COUNTERS = ("boundary_repairs", "busy_periods")


class _ShareOutcome(NamedTuple):
    """What :func:`_drain_share` returns for one device's share.

    Module level, so a process executor can pickle it.
    """

    #: The core's :class:`~repro.engine.server.ResilienceReport` when
    #: the drain builds objects, else the outcome columns ``(start_s,
    #: finish_s, context)``.
    result: object
    now: float
    energy: float
    prefix_hits: int
    prefix_misses: int
    #: Each of ``_COUNTERS`` mapped to the run's count.
    counters: dict[str, int]


#: The partition columns each device's share carries.
_SHARE_DTYPE = np.dtype([
    ("request_id", np.int64), ("arrival_s", np.float64),
    ("prompt_tokens", np.int64), ("stop_tokens", np.int64),
    ("deadline_s", np.float64), ("deadline_mask", bool),
    ("session", np.int64), ("prefix_tokens", np.int64)])
_SHARE_COLUMNS = _SHARE_DTYPE.names


# -- the column builders ------------------------------------------------
def _arrival_order(stream) -> list:
    """``stream`` in the scalar loop's order: by arrival time, ties by
    stream position.  Both callers run on arrivals checked finite, so a
    stable argsort of the arrival column orders exactly as sorting on
    ``(arrival_s, position)`` would, ties and signed zeros included."""
    arrival = np.fromiter((item.arrival_s for item in stream), np.float64,
                          len(stream))
    return [stream[i] for i in np.argsort(arrival, kind="stable").tolist()]


def _stream_columns(stream) -> tuple[dict, Callable[[int], bytes]]:
    """Fold a request stream into the columns :func:`_collect_trace`
    builds, plus their session head (see :func:`_assign`).

    Rows follow the scalar loop's order (:func:`_arrival_order`).
    Session strings are relabelled to ints by first appearance — a
    bijection, so every prefix-cache LRU sequence is unchanged — and
    stateless rows carry no prefix, exactly as the scalar device
    never looks them up.
    """
    ordered = _arrival_order(stream)
    keys: dict[str, int] = {}
    table = np.array([
        (f.request.request_id, f.arrival_s, f.request.prompt_tokens,
         max(f.request.stop_lengths()),
         np.nan if f.deadline_s is None else f.deadline_s,
         f.deadline_s is not None,
         -1 if f.session is None else keys.setdefault(f.session,
                                                       len(keys)),
         0 if f.session is None else f.prefix_tokens)
        for f in ordered], dtype=_SHARE_DTYPE)
    heads = [_session_head(key) for key in keys]
    return {name: table[name] for name in _SHARE_COLUMNS}, heads.__getitem__


def _session_head(key: str) -> bytes:
    """A session key's rendezvous head: its bytes plus the ``b":"``
    separator (see :func:`_rendezvous_winners`)."""
    return key.encode() + b":"


def _trace_head(session: int) -> bytes:
    """:func:`_session_head` specialized to a trace's int sessions:
    ``b"s%d:"`` is the head of :func:`~repro.workloads.population.
    session_key`, inlined (the oracle-equivalence tests pin the
    agreement)."""
    return b"s%d:" % session


def _collect_trace(chunks) -> tuple[dict, Callable[[int], bytes]]:
    """Fold a chunk stream into drain-ready columns and their session
    head (see :func:`_assign`).

    One pass: validates arrivals (finite, and nondecreasing within and
    across chunks) and deadline uniformity, then expands the single
    deadline into the per-request deadline column and mask that
    :func:`_stream_columns` builds.
    """
    parts: list[list[np.ndarray]] = [[] for _ in range(6)]
    deadline: float | None = None
    first = True
    prev_last = -math.inf
    rows = 0
    for chunk in chunks:
        n = int(chunk.n)
        if n == 0:
            continue
        arrival = np.ascontiguousarray(chunk.arrival_s, dtype=np.float64)
        require_finite_arrivals(arrival, rows)
        rows += n
        if float(arrival[0]) < prev_last or (
                n > 1 and bool(np.any(np.diff(arrival) < 0))):
            raise ValueError("trace arrivals must be nondecreasing")
        prev_last = float(arrival[-1])
        if first:
            deadline = chunk.deadline_s
            first = False
        elif chunk.deadline_s != deadline:
            raise ValueError("all chunks must share one deadline_s")
        parts[0].append(arrival)
        for bucket, column in zip(parts[1:], (
                chunk.request_id, chunk.prompt_tokens,
                chunk.output_tokens, chunk.session,
                chunk.prefix_tokens)):
            bucket.append(np.ascontiguousarray(column, dtype=np.int64))
    if not parts[0]:
        raise ValueError("the trace is empty")
    names = ("arrival_s", "request_id", "prompt_tokens", "stop_tokens",
             "session", "prefix_tokens")
    columns = {name: np.concatenate(bucket)
               for name, bucket in zip(names, parts)}
    n = columns["arrival_s"].shape[0]
    columns["deadline_s"] = np.full(
        n, np.nan if deadline is None else float(deadline))
    columns["deadline_mask"] = np.full(n, deadline is not None)
    return columns, _trace_head


# -- the partition ------------------------------------------------------
def _assign(policy: str, name_keys: np.ndarray, session: np.ndarray,
            head) -> np.ndarray:
    """Per-row device index: the partition both entry points drain.

    ``name_keys`` are the rendezvous keys (:func:`_keys`) of the fleet's
    device names in ascending name order.
    With round-robin routing and no faults the scalar event loop is
    exactly equivalent to assigning the k-th arrival (in arrival
    order, ties by stream position — the scalar sort) to the k-th
    device modulo the fleet; under prefix-affinity each session goes
    to its whole-fleet rendezvous winner (``head(session)`` is the
    session's key bytes plus the rendezvous separator).
    ``np.unique`` folds the column to its distinct sessions first, so
    the ranking hashes each session once, not each request.
    """
    if policy != "prefix-affinity":
        return np.arange(session.shape[0], dtype=np.int64) % len(name_keys)
    uniq, inverse = np.unique(session, return_inverse=True)
    lut = _rendezvous_winners(map(head, uniq.tolist()), name_keys)
    return lut[inverse]


def _rendezvous_winners(heads, name_keys: np.ndarray) -> np.ndarray:
    """Index of each session's rendezvous winner among the candidates.

    Each of ``heads`` is a session's head (:func:`_session_head`) and
    ``name_keys`` are the candidates' name keys (:func:`_keys` of their
    name bytes) in ascending name order.  A candidate's weight is the
    splitmix64 finalizer of ``key(head) ^ key(name)``, and the winner
    holds the largest weight, the largest name among equals
    (:func:`_last_argmax`).  Both cores rank through it: the scalar
    gateway's ``_pick`` over its routable pool, :func:`_assign` over
    the whole fleet (with no failure source the scalar pool provably
    stays the full fleet).  Names never change, so callers hash each
    one once.

    Each session is hashed once; the weights are ``uint64`` array
    arithmetic, which wraps as the finalizer needs, over blocks of
    sessions whose weight matrix fits ``_RENDEZVOUS_BLOCK_BYTES``.
    """
    block = max(1, _RENDEZVOUS_BLOCK_BYTES // (8 * len(name_keys)))
    heads = iter(heads)
    winners = [np.empty(0, dtype=np.int64)]
    while (keys := _keys(itertools.islice(heads, block))).size:
        z = keys[:, None] ^ name_keys
        z ^= z >> 30
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> 27
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        winners.append(_last_argmax(z))
    return np.concatenate(winners)


def _keys(items) -> np.ndarray:
    """Each byte string's rendezvous key: the first 8 bytes, read
    little-endian, of its sha256."""
    digests = b"".join(hashlib.sha256(item).digest() for item in items)
    return np.frombuffer(digests, dtype="<u8")[::4]


def _last_argmax(weights: np.ndarray) -> np.ndarray:
    """Per row, the index of the *last* maximum of ``weights``: the
    rendezvous rule that an equal weight later in name order wins."""
    return weights.shape[1] - 1 - np.argmax(weights[:, ::-1], axis=1)


# -- the drain ----------------------------------------------------------
def _drain(specs, columns: dict, assign: np.ndarray, objects: bool,
           jobs: int = 1, executor: str = "thread") -> list:
    """Drain each device's share of ``columns`` on the vector core.

    ``specs`` are the fleet's device specs in name order and ``assign``
    each row's device index (:func:`_assign`).  Given the partition,
    each device drains its share independently: ``run_until`` segments
    compose bitwise when nothing is injected between them, so the
    per-arrival ping-pong of the scalar loop prices the very same
    epochs.  Every share runs through :func:`_drain_share` — a pure task
    over a fresh clone of the device — so shares may execute on any
    executor in any order without changing a byte.  Each clone prices
    through its spec's process-wide :meth:`~repro.engine.pricing.
    Pricing.shared` memo, so a device spec's prefill and decode
    tables are built once per process and reused by every later drain
    and fresh fleet (a process pool builds them once per worker).
    Returns ``(share columns, outcome)`` per device, in name order, each
    outcome a :class:`_ShareOutcome`.
    Raises :class:`~repro.engine.vector_run.VectorFallback` when a
    share has no busy-period kernel (EDF devices, a batch that could
    meet KV pressure or need outsized price grids).
    """
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=len(specs))
    shares = []
    start = 0
    for n_d in counts.tolist():
        idx = order[start:start + n_d]
        start += n_d
        shares.append({name: columns[name][idx] for name in _SHARE_COLUMNS})
    tasks = [(spec, objects, share) for spec, share in zip(specs, shares)]
    if jobs == 1:
        outcomes = [_drain_share(*task) for task in tasks]
    else:
        pool_cls = (concurrent.futures.ThreadPoolExecutor
                    if executor == "thread"
                    else concurrent.futures.ProcessPoolExecutor)
        with pool_cls(max_workers=jobs) as pool:
            futures = [pool.submit(_drain_share, *task) for task in tasks]
            # Collected in device order regardless of completion order;
            # a fallback in any share propagates here.
            outcomes = [future.result() for future in futures]
    return list(zip(shares, outcomes))


def _drain_share(spec, objects, share) -> _ShareOutcome:
    """Serve one device's partition share on a fresh clone.

    A pure task (module level, so a process executor can pickle it): it
    builds its own :class:`~repro.fleet.device.FleetDevice` from the
    (picklable) spec — construction is deterministic — so serial,
    thread-pool, and process-pool executions perform identical float
    work on identical fresh state, and the gateway's own devices (prefix
    caches included) stay untouched for a scalar fallback.  The clone
    prices through the spec's process-wide shared memo (memoized prices
    are pure, so sharing changes no bit).  With ``objects`` the
    outcome's result is the core's report (:meth:`~repro.engine.
    vector_run.VectorServingRun.execute`), otherwise its outcome
    columns.
    Raises :class:`~repro.engine.vector_run.VectorFallback` (picklable
    across a process boundary) when no busy-period kernel serves the
    share (EDF, KV pressure, outsized price grids).
    """
    device = FleetDevice(spec)
    arrays = RequestArrays.from_columns(
        share["request_id"], share["prompt_tokens"], share["stop_tokens"],
        share["arrival_s"], share["deadline_s"], share["deadline_mask"])
    vrun = VectorServingRun(
        device.simulator, arrays=arrays,
        session_ids=share["session"], prefix_tokens=share["prefix_tokens"],
        prefix_cache=device.run._prefix_cache)
    if objects:
        result = vrun.execute()
    else:
        vrun.execute_arrays()
        result = (arrays.start_s, arrays.finish_s, arrays.context)
    return _ShareOutcome(result, vrun.now, vrun.energy, vrun.prefix_hits,
                         vrun.prefix_misses,
                         {name: getattr(vrun, name) for name in _COUNTERS})


def _counter_totals(drained) -> dict[str, int]:
    """Each work counter summed over :func:`_drain`'s shares."""
    return {name: sum(outcome.counters[name] for _, outcome in drained)
            for name in _COUNTERS}
