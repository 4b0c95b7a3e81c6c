"""Tests for prefix caching."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.prefix_cache import (
    PrefixCache,
    PrefixEntry,
    prefill_with_prefix,
    prefix_caching_speedup,
)


@pytest.fixture()
def cache():
    # Room for ~1000 cached tokens at 1 kB/token.
    return PrefixCache(capacity_bytes=1_000_000, kv_bytes_per_token=1000.0)


class TestPrefixCacheLru:
    def test_insert_and_lookup(self, cache):
        cache.insert("few-shot-v1", 500)
        entry = cache.lookup("few-shot-v1")
        assert entry is not None
        assert entry.token_count == 500

    def test_miss_returns_none(self, cache):
        assert cache.lookup("nope") is None

    def test_eviction_order_is_lru(self, cache):
        cache.insert("a", 400)
        cache.insert("b", 400)
        cache.lookup("a")          # refresh a
        cache.insert("c", 400)     # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_used_bytes(self, cache):
        cache.insert("a", 300)
        assert cache.used_bytes == pytest.approx(300_000)

    def test_oversized_prefix_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.insert("huge", 2000)

    def test_explicit_evict(self, cache):
        cache.insert("a", 100)
        cache.evict("a")
        assert len(cache) == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PrefixCache(0, 1000.0)
        with pytest.raises(ValueError):
            PrefixCache(1000.0, 0)


class _ReferenceLru:
    """An independent model of the cache: entries keep their byte
    counts, and the ledger adds and subtracts those."""

    def __init__(self, capacity_bytes, kv_bytes_per_token):
        self.capacity_bytes = capacity_bytes
        self.kv_bytes_per_token = kv_bytes_per_token
        self._entries = OrderedDict()
        self.used_bytes = 0.0

    def lookup(self, key):
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        tokens, kv_bytes = self._entries[key]
        return PrefixEntry(key, tokens, kv_bytes)

    def insert(self, key, tokens):
        kv_bytes = tokens * self.kv_bytes_per_token
        if kv_bytes > self.capacity_bytes:
            raise ValueError("oversize")
        while self.used_bytes + kv_bytes > self.capacity_bytes:
            self.used_bytes -= self._entries.popitem(last=False)[1][1]
        if key in self._entries:
            self.used_bytes -= self._entries.pop(key)[1]
        self._entries[key] = (tokens, kv_bytes)
        self.used_bytes += kv_bytes
        return PrefixEntry(key, tokens, kv_bytes)

    def evict(self, key):
        if key in self._entries:
            self.used_bytes -= self._entries.pop(key)[1]


def _lookup_compare_insert(cache, key, tokens):
    """The serving loops' cache sequence before ``reuse`` held it."""
    entry = cache.lookup(key)
    if entry is not None and entry.token_count == tokens:
        return True
    try:
        cache.insert(key, tokens)
    except ValueError:
        pass  # prefix exceeds the whole cache: serve uncached
    return False


# One op: (kind, key, tokens); capacity is ~1000 tokens, so some
# prefixes are oversize and most streams evict.
_OPS = st.lists(st.tuples(
    st.sampled_from(["reuse", "reuse", "reuse", "lookup", "insert",
                     "evict"]),
    st.sampled_from("abcdefg"),
    st.integers(min_value=1, max_value=1200)), max_size=80)


class TestReuse:
    @given(_OPS, st.sampled_from([1000.0, 1000.3, 114688.7]))
    @settings(max_examples=150, deadline=None)
    def test_matches_lookup_compare_insert(self, ops, per_token):
        # An awkward per-token size makes every product round, so a
        # ledger that drifted from the entries' own bytes would show.
        capacity = 1_000_000 * per_token / 1000
        reused = PrefixCache(capacity, per_token)
        stepped = PrefixCache(capacity, per_token)
        # Replays each run of consecutive reuses in one reuse_all call.
        bulk = PrefixCache(capacity, per_token)
        reference = _ReferenceLru(capacity, per_token)
        caches = (reused, stepped, bulk, reference)
        pending = []

        def replay_pending():
            if pending:
                keys, counts, hits = zip(*pending)
                assert bulk.reuse_all(keys, counts) == list(hits)
                pending.clear()
            assert bulk.used_bytes == reference.used_bytes
            assert list(bulk._entries.items()) == [
                (k, count) for k, (count, _) in reference._entries.items()]

        for kind, key, tokens in ops:
            if kind != "reuse":
                replay_pending()
            if kind == "reuse":
                hit = _lookup_compare_insert(reference, key, tokens)
                assert reused.reuse(key, tokens) is hit
                assert _lookup_compare_insert(stepped, key, tokens) is hit
                pending.append((key, tokens, hit))
            elif kind == "lookup":
                entry = reference.lookup(key)
                assert (reused.lookup(key) == stepped.lookup(key)
                        == bulk.lookup(key) == entry)
            elif kind == "evict":
                for cache in caches:
                    cache.evict(key)
            elif tokens * per_token > capacity:
                for cache in caches:
                    with pytest.raises(ValueError):
                        cache.insert(key, tokens)
            else:
                entry = reference.insert(key, tokens)
                assert (reused.insert(key, tokens)
                        == stepped.insert(key, tokens)
                        == bulk.insert(key, tokens) == entry)
            assert (reused.used_bytes == stepped.used_bytes
                    == reference.used_bytes)
            order = [(k, count) for k, (count, _) in
                     reference._entries.items()]
            assert list(reused._entries.items()) == order
            assert list(stepped._entries.items()) == order
        replay_pending()

    def test_reuse_all_of_nothing(self, cache):
        cache.reuse("a", 300)
        assert cache.reuse_all([], []) == []
        assert list(cache._entries.items()) == [("a", 300)]

    def test_hit_refreshes_recency(self, cache):
        assert cache.reuse("a", 400) is False
        assert cache.reuse("b", 400) is False
        assert cache.reuse("a", 400) is True
        assert cache.reuse("c", 400) is False  # evicts b, not a
        assert "a" in cache and "b" not in cache and "c" in cache

    def test_stale_length_is_a_miss_that_replaces(self, cache):
        cache.reuse("a", 300)
        assert cache.reuse("a", 200) is False
        assert cache.lookup("a").token_count == 200
        assert cache.used_bytes == 200 * 1000.0

    def test_oversize_prefix_is_served_uncached(self, cache):
        cache.reuse("a", 300)
        assert cache.reuse("huge", 2000) is False
        assert cache.reuse("huge", 2000) is False
        assert "huge" not in cache and "a" in cache
        assert cache.used_bytes == 300 * 1000.0

    def test_oversize_length_keeps_the_stale_entry(self, cache):
        # The lookup refreshed it; the insert was refused.
        cache.reuse("a", 300)
        cache.reuse("b", 300)
        assert cache.reuse("a", 2000) is False
        assert cache.lookup("a").token_count == 300
        assert list(cache._entries) == ["b", "a"]

    def test_nonpositive_tokens_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.reuse("a", 0)
        with pytest.raises(ValueError):
            cache.reuse_all(["a", "b"], [300, -1])


class _StoringLoop:
    """The bulk replay as one ``_store`` call per miss: refresh the
    key, evict the oldest while the old entry still counts, drop the
    old entry, then insert, with the ledger on the instance.  Eviction
    stops at an empty cache (a rounded ledger can keep a residue)."""

    def __init__(self, capacity_bytes, kv_bytes_per_token):
        self.capacity_bytes = capacity_bytes
        self.kv_bytes_per_token = kv_bytes_per_token
        self.entries = OrderedDict()
        self.used_bytes = 0.0

    def reuse_all(self, keys, token_counts):
        hits = []
        for key, token_count in zip(keys, token_counts):
            if token_count <= 0:
                raise ValueError("token_count must be positive")
            cached = self.entries.get(key)
            if cached is not None:
                self.entries.move_to_end(key)
                if cached == token_count:
                    hits.append(True)
                    continue
            kv_bytes = token_count * self.kv_bytes_per_token
            if kv_bytes <= self.capacity_bytes:
                self._store(key, token_count, kv_bytes)
            hits.append(False)
        return hits

    def _store(self, key, token_count, kv_bytes):
        per_token = self.kv_bytes_per_token
        while self.entries and (self.used_bytes + kv_bytes
                                > self.capacity_bytes):
            _, evicted = self.entries.popitem(last=False)
            self.used_bytes -= evicted * per_token
        previous = self.entries.pop(key, None)
        if previous is not None:
            self.used_bytes -= previous * per_token
        self.entries[key] = token_count
        self.used_bytes += kv_bytes


class TestReuseAllInlinesTheStore:
    """``reuse_all`` stores inline; it must take the per-miss
    ``_store`` loop's steps, ledger bits included."""

    # Few keys and counts, so the same key returns with another count;
    # counts past the ~1000-token capacity are served uncached.
    _CALLS = st.lists(st.lists(st.tuples(
        st.sampled_from("abcde"),
        st.one_of(st.sampled_from([100, 300, 301, 999, 1000]),
                  st.integers(min_value=1, max_value=1300))),
        max_size=40), min_size=1, max_size=8)

    @given(_CALLS, st.sampled_from([1000.0, 1000.3, 114688.7]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_storing_loop(self, calls, per_token):
        capacity = 1_000_000 * per_token / 1000
        cache = PrefixCache(capacity, per_token)
        loop = _StoringLoop(capacity, per_token)
        for pairs in calls:
            keys = [key for key, _ in pairs]
            counts = [count for _, count in pairs]
            assert cache.reuse_all(keys, counts) == loop.reuse_all(
                keys, counts)
            assert list(cache._entries.items()) == list(loop.entries.items())
            assert cache.used_bytes == loop.used_bytes

    def test_same_key_new_count_and_oversize(self):
        cache = PrefixCache(1_000_000, 1000.3)
        loop = _StoringLoop(1_000_000, 1000.3)
        keys = ["a", "b", "a", "c", "a", "huge", "b", "a"]
        counts = [300, 300, 301, 400, 301, 1200, 300, 999]
        assert cache.reuse_all(keys, counts) == loop.reuse_all(keys, counts)
        assert list(cache._entries.items()) == list(loop.entries.items())
        assert cache.used_bytes == loop.used_bytes
        assert "huge" not in cache

    @pytest.mark.parametrize("bulk", [True, False])
    def test_an_emptied_cache_with_a_rounded_ledger(self, bulk):
        # 300 * 1000.3 + 301 * 1000.3 - ... leaves a residue once the
        # cache empties; a full-capacity prefix then evicts everything
        # and is stored, where a read of the empty cache used to raise.
        cache = PrefixCache(1_000_300.0, 1000.3)
        keys, counts = ["a", "b", "a", "a"], [300, 301, 43, 1000]
        if bulk:
            hits = cache.reuse_all(keys, counts)
        else:
            hits = [cache.reuse(k, c) for k, c in zip(keys, counts)]
        assert hits == [False] * 4
        assert list(cache._entries.items()) == [("a", 1000)]

    def test_the_ledger_survives_a_rejected_pair(self):
        cache = PrefixCache(1_000_000, 1000.3)
        with pytest.raises(ValueError):
            cache.reuse_all(["a", "b", "c"], [300, 200, 0])
        assert list(cache._entries.items()) == [("a", 300), ("b", 200)]
        assert cache.used_bytes == 300 * 1000.3 + 200 * 1000.3


class TestSuffixPrefill:
    def test_warm_prefix_is_faster(self, engine_8b):
        cold = engine_8b.kernels.prefill(engine_8b.profile, 2048).seconds
        warm = prefill_with_prefix(engine_8b, 2048, 1792).seconds
        assert warm < cold

    def test_speedup_grows_with_cached_share(self, engine_8b):
        small = prefix_caching_speedup(engine_8b, 2048, 512)
        large = prefix_caching_speedup(engine_8b, 2048, 1920)
        assert large > small > 1.0

    def test_natural_plan_shape_benefit(self, engine_8b):
        # ~1.8k-token few-shot prompt with ~1.6k shared: multi-x prefill win.
        assert prefix_caching_speedup(engine_8b, 1800, 1600) > 1.5

    def test_zero_cache_equals_baseline(self, engine_8b):
        cold = engine_8b.kernels.prefill(engine_8b.profile, 1024).seconds
        assert prefill_with_prefix(engine_8b, 1024, 0).seconds == pytest.approx(
            cold)

    def test_weight_stream_floor(self, engine_8b):
        # Even a fully warm prefix still streams the weights once.
        calib = engine_8b.calibration
        stream_s = engine_8b.profile.weight_bytes / (
            engine_8b.soc.dram_bandwidth
            * calib.prefill_weight_stream_efficiency)
        warm = prefill_with_prefix(engine_8b, 2048, 2047).seconds
        assert warm > stream_s

    def test_bounds_checked(self, engine_8b):
        with pytest.raises(ValueError):
            prefill_with_prefix(engine_8b, 100, 100)
        with pytest.raises(ValueError):
            prefill_with_prefix(engine_8b, 100, -1)
