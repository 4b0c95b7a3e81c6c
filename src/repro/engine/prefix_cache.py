"""Prefix caching: reuse the KV state of shared prompt prefixes.

Few-shot workloads — Natural-Plan's ~1.5-2.5k-token prompts share their
in-context examples across every question — re-prefill the same prefix
thousands of times.  vLLM-style prefix caching keeps the prefix's KV
blocks resident and prefills only the unshared suffix; on the Orin this
converts most of the (already small) prefill cost into nothing, and its
real cost is KV-cache residency, which this module accounts.

Kernel cost of a suffix prefill: the weight stream is unchanged (every
layer still runs), the linear terms scale with the *suffix* length, and
attention scores the suffix queries against the *full* context.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.engine.engine import InferenceEngine
from repro.hardware.kernels import KernelStats, pad_to_tile


@dataclass(frozen=True)
class PrefixEntry:
    """One cached prefix."""

    key: str
    token_count: int
    kv_bytes: float


class PrefixCache:
    """LRU prefix registry bounded by a KV-byte budget.

    Entries hold only token counts; :meth:`lookup` and :meth:`insert`
    build the :class:`PrefixEntry` they return, and :meth:`reuse`, the
    scalar serving loop's one call per prefilled request, and
    :meth:`reuse_all`, the vector core's one call per share, build
    none.
    """

    def __init__(self, capacity_bytes: float, kv_bytes_per_token: float):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if kv_bytes_per_token <= 0:
            raise ValueError("kv_bytes_per_token must be positive")
        self.capacity_bytes = capacity_bytes
        self.kv_bytes_per_token = kv_bytes_per_token
        self._entries: OrderedDict[str, int] = OrderedDict()
        self._used = 0.0

    @property
    def used_bytes(self) -> float:
        """KV bytes held by cached prefixes.

        Maintained incrementally: a full re-sum per eviction probe made
        ``insert`` quadratic in residency, which dominates admission at
        population scale.
        """
        return self._used

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _entry(self, key: str, token_count: int) -> PrefixEntry:
        return PrefixEntry(key=key, token_count=token_count,
                           kv_bytes=token_count * self.kv_bytes_per_token)

    def lookup(self, key: str) -> PrefixEntry | None:
        """Get a cached prefix (refreshing recency), or None."""
        token_count = self._entries.get(key)
        if token_count is None:
            return None
        self._entries.move_to_end(key)
        return self._entry(key, token_count)

    def insert(self, key: str, token_count: int) -> PrefixEntry:
        """Cache a prefix, evicting least-recently-used entries to fit."""
        if token_count <= 0:
            raise ValueError("token_count must be positive")
        kv_bytes = token_count * self.kv_bytes_per_token
        if kv_bytes > self.capacity_bytes:
            raise ValueError(
                f"prefix of {token_count} tokens ({kv_bytes:.0f} B) exceeds "
                f"the cache capacity ({self.capacity_bytes:.0f} B)"
            )
        self._store(key, token_count, kv_bytes)
        return self._entry(key, token_count)

    def reuse(self, key: str, token_count: int) -> bool:
        """Whether ``key`` holds exactly a ``token_count``-token prefix:
        a serving loop's lookup, compare and insert-on-miss in one call
        (the one-key case of :meth:`reuse_all`)."""
        return self.reuse_all((key,), (token_count,))[0]

    def reuse_all(self, keys, token_counts) -> list[bool]:
        """:meth:`reuse` of each ``(key, token_count)`` pair, in order.

        A pair hits when ``key`` holds exactly a ``token_count``-token
        prefix.  Any entry of ``key`` is refreshed.  On a miss the
        prefix is cached as :meth:`insert` caches it, unless it exceeds
        the whole cache: then it is served uncached and the cache keeps
        its entries.  A replay of a whole admission order in one call
        (the vector core's prefill pre-pass) takes the same steps as
        one call per request.  The store is :meth:`_store` inlined, in
        its order, with the byte ledger kept in a local between pairs.
        """
        entries = self._entries
        get, refresh = entries.get, entries.move_to_end
        pop, oldest = entries.pop, entries.popitem
        per_token = self.kv_bytes_per_token
        capacity = self.capacity_bytes
        used = self._used
        hits = []
        hit = hits.append
        try:
            for key, token_count in zip(keys, token_counts):
                if token_count <= 0:
                    raise ValueError("token_count must be positive")
                cached = get(key)
                if cached is not None:
                    refresh(key)
                    if cached == token_count:
                        hit(True)
                        continue
                kv_bytes = token_count * per_token
                if kv_bytes <= capacity:
                    while entries and used + kv_bytes > capacity:
                        used -= oldest(last=False)[1] * per_token
                    previous = pop(key, None)
                    if previous is not None:
                        used -= previous * per_token
                    entries[key] = token_count
                    used += kv_bytes
                hit(False)
        finally:
            self._used = used
        return hits

    def _store(self, key: str, token_count: int, kv_bytes: float) -> None:
        """Make ``key`` the newest entry, evicting the oldest to fit.

        ``_used`` adds and subtracts each entry's ``token_count *
        kv_bytes_per_token`` product, so it tracks the cache bit for
        bit however it is driven.  Those sums round when the products
        are not integers, so an emptied cache may keep a residue of a
        few ulps: eviction stops at an empty cache rather than read one.
        """
        entries = self._entries
        per_token = self.kv_bytes_per_token
        while entries and self._used + kv_bytes > self.capacity_bytes:
            _, evicted = entries.popitem(last=False)
            self._used -= evicted * per_token
        previous = entries.pop(key, None)
        if previous is not None:
            self._used -= previous * per_token
        entries[key] = token_count
        self._used += kv_bytes

    def evict(self, key: str) -> None:
        """Drop one prefix."""
        token_count = self._entries.pop(key, None)
        if token_count is not None:
            self._used -= token_count * self.kv_bytes_per_token

    def __len__(self) -> int:
        return len(self._entries)


def prefill_with_prefix(engine: InferenceEngine, total_len: int,
                        cached_len: int) -> KernelStats:
    """Time a prefill where the first ``cached_len`` tokens are cached.

    Only the suffix runs: linear FLOPs on the padded suffix, attention
    scoring suffix queries against the full context, activation traffic
    for the suffix.  The weight stream is unchanged (every layer still
    executes once).
    """
    if not 0 <= cached_len < total_len:
        raise ValueError("cached_len must be in [0, total_len)")
    if cached_len == 0:
        return engine.kernels.prefill(engine.profile, total_len)
    profile = engine.profile
    calib = engine.calibration
    soc = engine.soc
    suffix = total_len - cached_len
    padded_suffix = pad_to_tile(suffix)
    padded_total = pad_to_tile(total_len)

    bw = soc.dram_bandwidth
    weight_time = profile.weight_bytes / (
        bw * calib.prefill_weight_stream_efficiency
        * soc.stream_efficiency_scale)
    peak = (soc.peak_int8_ops if profile.compute_dtype == "int8"
            else soc.peak_fp16_flops)
    linear_flops = profile.linear_flops_per_token * padded_suffix
    linear_time = linear_flops / (peak * calib.gemm_efficiency)
    # Suffix queries attend over the full (padded) context.
    attn_flops = (profile.attention_flops_per_sq_token
                  * padded_suffix * padded_total)
    attn_time = attn_flops / (peak * calib.attention_efficiency)
    activation_time = (profile.activation_bytes_per_token * suffix
                       / (bw * engine.memory.spec.streaming_efficiency))
    seconds = (calib.prefill_overhead_s * soc.host_overhead_scale
               + weight_time + linear_time + attn_time + activation_time)
    read_bytes = profile.weight_bytes + profile.activation_bytes_per_token * suffix
    write_bytes = profile.kv_bytes_per_token * suffix
    return KernelStats(
        seconds=seconds,
        flops=linear_flops + attn_flops,
        dram_read_bytes=read_bytes,
        dram_write_bytes=write_bytes,
        compute_utilization=min(1.0, (linear_flops + attn_flops)
                                / (seconds * peak)),
        bandwidth_utilization=min(1.0, (read_bytes + write_bytes)
                                  / (seconds * bw)),
    )


def prefix_caching_speedup(engine: InferenceEngine, total_len: int,
                           cached_len: int) -> float:
    """Prefill speedup from a warm prefix of ``cached_len`` tokens."""
    baseline = engine.kernels.prefill(engine.profile, total_len).seconds
    warm = prefill_with_prefix(engine, total_len, cached_len).seconds
    return baseline / warm
