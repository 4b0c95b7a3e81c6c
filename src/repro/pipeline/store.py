"""Memoization store for expensive experiment intermediates.

``ArtifactStore`` caches producer results keyed by
``(producer_id, seed, params-hash)``.  Two tiers:

* an in-memory dict, shared by every artifact of one ``run_all`` — this
  is what makes the pipeline compute ``run_characterizations`` once
  instead of four times;
* an optional on-disk tier (``cache_dir``) built on
  :mod:`repro.core.persistence`, which survives across processes and
  makes warm ``repro run --all`` invocations fast.

Lookups are single-flight: when parallel pipeline jobs request the same
key, exactly one thread computes while the others block on the per-key
lock and then read the memoized value.  Hit/miss/compute-time counters
feed the ``--timing`` instrumentation.

Disk entries are checksummed envelopes
(:func:`repro.core.persistence.save_cached_artifact`): a corrupt
pickle, checksum mismatch, or stale schema version is *counted*
(``StoreStats.disk_corruptions``, per-producer breakdown) and logged
once per key before recomputing, instead of silently degrading to a
miss.  Chaos mode wires a
:class:`~repro.faults.FaultInjector` into the ``faults`` seam to
deliberately corrupt freshly written entries and prove that detection
path works.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.persistence import (
    CacheCorruptionError,
    artifact_cache_path,
    load_cached_artifact_checked,
    save_cached_artifact,
)

logger = logging.getLogger(__name__)


def params_hash(params: Mapping[str, Any] | None) -> str:
    """Stable hash of a producer's keyword parameters.

    Parameters must be JSON-representable (the registry only uses ints,
    floats, strings, bools, and tuples/lists of them); tuples and lists
    hash identically so specs may use either.
    """
    canonical = json.dumps(_jsonable(dict(params or {})), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"producer params must be JSON-representable, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class CacheKey:
    """Identity of one memoized producer result."""

    producer_id: str
    seed: int
    params_hash: str


@dataclass
class StoreStats:
    """Aggregate and per-producer cache accounting."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    #: disk-tier entries that failed integrity checks (recomputed).
    disk_corruptions: int = 0
    #: producer_id -> number of actual computations.
    misses_by_producer: dict[str, int] = field(default_factory=dict)
    #: producer_id -> number of memory/disk hits.
    hits_by_producer: dict[str, int] = field(default_factory=dict)
    #: producer_id -> total compute seconds (only for misses).
    compute_seconds: dict[str, float] = field(default_factory=dict)
    #: producer_id -> number of corrupt disk entries detected.
    corruptions_by_producer: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "StoreStats") -> None:
        """Fold another run's counters in (e.g. a worker process's)."""
        self.hits += other.hits
        self.misses += other.misses
        self.disk_hits += other.disk_hits
        self.disk_corruptions += other.disk_corruptions
        for target, source in (
                (self.misses_by_producer, other.misses_by_producer),
                (self.hits_by_producer, other.hits_by_producer),
                (self.corruptions_by_producer, other.corruptions_by_producer)):
            for producer, count in source.items():
                target[producer] = target.get(producer, 0) + count
        for producer, seconds in other.compute_seconds.items():
            self.compute_seconds[producer] = (
                self.compute_seconds.get(producer, 0.0) + seconds)


class _Entry:
    """Per-key slot with its single-flight lock."""

    __slots__ = ("lock", "computed", "value")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.computed = False
        self.value: Any = None


class ArtifactStore:
    """Two-tier, thread-safe memoization of producer results.

    ``faults`` is the chaos seam: a
    :class:`~repro.faults.FaultInjector` whose pipeline config enables
    ``corrupt-cache-entry`` faults garbles freshly written disk
    entries, exercising the integrity detection/recompute path.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 faults: Any = None):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.faults = faults
        self._entries: dict[CacheKey, _Entry] = {}
        self._master = threading.Lock()
        self._stats = StoreStats()
        self._warned_corrupt: set[CacheKey] = set()

    # ------------------------------------------------------------------
    def get_or_compute(self, producer_id: str, seed: int,
                       params: Mapping[str, Any] | None,
                       compute: Callable[[], Any]) -> Any:
        """Return the memoized value for the key, computing it at most once.

        Repeated calls with the same ``(producer_id, seed, params)``
        return the *identical* object from the in-memory tier.
        """
        key = CacheKey(producer_id, seed, params_hash(params))
        with self._master:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry()
        with entry.lock:
            if entry.computed:
                self._count_hit(producer_id)
                return entry.value
            if self.cache_dir is not None:
                try:
                    cached = load_cached_artifact_checked(
                        self.cache_dir, producer_id, seed, key.params_hash)
                except CacheCorruptionError as exc:
                    self._count_corruption(key, exc)
                else:
                    if cached is not None:
                        entry.value = cached
                        entry.computed = True
                        self._count_hit(producer_id, disk=True)
                        return cached
            start = time.perf_counter()
            value = compute()
            elapsed = time.perf_counter() - start
            entry.value = value
            entry.computed = True
            self._count_miss(producer_id, elapsed)
            if self.cache_dir is not None:
                save_cached_artifact(self.cache_dir, producer_id, seed,
                                     key.params_hash, value)
                self._maybe_inject_corruption(key)
            return value

    # ------------------------------------------------------------------
    def _count_hit(self, producer_id: str, disk: bool = False) -> None:
        with self._master:
            self._stats.hits += 1
            if disk:
                self._stats.disk_hits += 1
            by = self._stats.hits_by_producer
            by[producer_id] = by.get(producer_id, 0) + 1

    def _count_miss(self, producer_id: str, seconds: float) -> None:
        with self._master:
            self._stats.misses += 1
            by = self._stats.misses_by_producer
            by[producer_id] = by.get(producer_id, 0) + 1
            times = self._stats.compute_seconds
            times[producer_id] = times.get(producer_id, 0.0) + seconds

    def _count_corruption(self, key: CacheKey,
                          exc: CacheCorruptionError) -> None:
        """Count a corrupt disk entry; warn once per key."""
        with self._master:
            self._stats.disk_corruptions += 1
            by = self._stats.corruptions_by_producer
            by[key.producer_id] = by.get(key.producer_id, 0) + 1
            first = key not in self._warned_corrupt
            self._warned_corrupt.add(key)
        if first:
            logger.warning(
                "corrupt disk cache entry for producer %r (seed %d): %s "
                "— recomputing", key.producer_id, key.seed, exc.reason)

    def _maybe_inject_corruption(self, key: CacheKey) -> None:
        """Chaos seam: garble the entry just written, when told to."""
        faults = self.faults
        if faults is None or not getattr(faults, "should_corrupt_cache",
                                         None):
            return
        if not faults.should_corrupt_cache(key.producer_id):
            return
        path = artifact_cache_path(self.cache_dir, key.producer_id,
                                   key.seed, key.params_hash)
        if path.is_file():
            # Keep the file present but unreadable: the next cold load
            # must *detect* this, not see a plain miss.
            path.write_bytes(b"\x00chaos-corrupted\x00")

    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """A snapshot of the counters (safe to read while running)."""
        with self._master:
            return StoreStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                disk_hits=self._stats.disk_hits,
                disk_corruptions=self._stats.disk_corruptions,
                misses_by_producer=dict(self._stats.misses_by_producer),
                hits_by_producer=dict(self._stats.hits_by_producer),
                compute_seconds=dict(self._stats.compute_seconds),
                corruptions_by_producer=dict(
                    self._stats.corruptions_by_producer),
            )

    def merge_stats(self, other: StoreStats) -> None:
        """Fold a worker process's counters into this store's stats."""
        with self._master:
            self._stats.merge(other)
