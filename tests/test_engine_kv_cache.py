"""Tests for the paged KV cache."""

import numpy as np
import pytest

from repro.engine.kv_cache import KVCacheConfig, KVCacheExhausted, PagedKVCache


@pytest.fixture()
def cache():
    # 100 blocks of 16 tokens at 1000 bytes/token.
    return PagedKVCache(KVCacheConfig(
        bytes_per_token=1000.0, capacity_bytes=100 * 16 * 1000.0,
    ))


class TestGeometry:
    def test_total_blocks(self, cache):
        assert cache.config.total_blocks == 100

    def test_blocks_for(self, cache):
        assert cache.blocks_for(0) == 0
        assert cache.blocks_for(1) == 1
        assert cache.blocks_for(16) == 1
        assert cache.blocks_for(17) == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PagedKVCache(KVCacheConfig(bytes_per_token=0, capacity_bytes=100))
        with pytest.raises(ValueError):
            PagedKVCache(KVCacheConfig(bytes_per_token=1, capacity_bytes=100,
                                       block_tokens=0))


class TestAllocation:
    def test_allocate_and_release(self, cache):
        cache.allocate_sequence(1, 100)
        assert cache.used_blocks == cache.blocks_for(100)
        cache.release_sequence(1)
        assert cache.used_blocks == 0

    def test_duplicate_sequence_rejected(self, cache):
        cache.allocate_sequence(1, 10)
        with pytest.raises(ValueError):
            cache.allocate_sequence(1, 10)

    def test_exhaustion(self, cache):
        cache.allocate_sequence(1, 100 * 16)
        with pytest.raises(KVCacheExhausted):
            cache.allocate_sequence(2, 16)

    def test_release_unknown_is_noop(self, cache):
        cache.release_sequence(99)
        assert cache.used_blocks == 0

    def test_used_bytes(self, cache):
        cache.allocate_sequence(1, 32)
        assert cache.used_bytes == pytest.approx(2 * 16 * 1000.0)


class TestGrowth:
    def test_append_within_block_is_free(self, cache):
        cache.allocate_sequence(1, 10)
        before = cache.used_blocks
        cache.append_token(1)
        assert cache.used_blocks == before

    def test_append_across_block_boundary(self, cache):
        cache.allocate_sequence(1, 16)
        before = cache.used_blocks
        cache.append_token(1)
        assert cache.used_blocks == before + 1

    def test_append_unknown_raises(self, cache):
        with pytest.raises(KeyError):
            cache.append_token(7)

    def test_bulk_extend_matches_appends(self, cache):
        cache.allocate_sequence(1, 10)
        cache.allocate_sequence(2, 10)
        cache.extend(1, 100)
        for _ in range(100):
            cache.append_token(2)
        assert cache.blocks_for(cache.sequence_tokens(1)) == cache.blocks_for(
            cache.sequence_tokens(2))

    def test_extend_exhaustion(self, cache):
        cache.allocate_sequence(1, 16)
        with pytest.raises(KVCacheExhausted):
            cache.extend(1, 101 * 16)

    def test_extend_negative_rejected(self, cache):
        cache.allocate_sequence(1, 16)
        with pytest.raises(ValueError):
            cache.extend(1, -1)

    def test_append_when_full_raises(self, cache):
        cache.allocate_sequence(1, 100 * 16)
        with pytest.raises(KVCacheExhausted):
            cache.append_token(1)


def _state(cache, ids):
    return cache.free_blocks, [cache.sequence_tokens(i) for i in ids]


class TestBulkSpanGrowth:
    """``extend_all`` is one ``extend`` per sequence, all or nothing."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_sequence_extends(self, seed):
        rng = np.random.default_rng(seed)
        bulk, loop = (PagedKVCache(KVCacheConfig(
            bytes_per_token=1000.0, capacity_bytes=400 * 16 * 1000.0))
            for _ in range(2))
        ids = list(range(int(rng.integers(1, 9))))
        for seq_id in ids:
            # Contexts on, just before and just after block boundaries.
            context = int(16 * rng.integers(1, 6) + rng.integers(-2, 3))
            bulk.allocate_sequence(seq_id, context)
            loop.allocate_sequence(seq_id, context)
        for tokens in (0, *rng.integers(0, 40, size=5)):
            bulk.extend_all(ids, int(tokens))
            for seq_id in ids:
                loop.extend(seq_id, int(tokens))
            assert _state(bulk, ids) == _state(loop, ids)

    def test_zero_tokens_changes_nothing(self, cache):
        cache.allocate_sequence(1, 16)
        cache.allocate_sequence(2, 17)
        before = _state(cache, [1, 2])
        cache.extend_all([1, 2], 0)
        cache.extend_all([], 5)
        assert _state(cache, [1, 2]) == before

    def test_one_block_short_raises_and_changes_nothing(self, cache):
        # Each sequence crosses one boundary per 16 tokens; leave the
        # pool exactly one block short of the whole span.
        cache.allocate_sequence(1, 16)
        cache.allocate_sequence(2, 10)
        need = 2 + 1  # 16 -> 33 takes 2 blocks, 10 -> 27 takes 1
        cache.reserve_blocks(cache.free_blocks - (need - 1))
        before = _state(cache, [1, 2])
        with pytest.raises(KVCacheExhausted):
            cache.extend_all([1, 2], 17)
        assert _state(cache, [1, 2]) == before
        cache.release_reserved(1)
        cache.extend_all([1, 2], 17)
        assert _state(cache, [1, 2]) == (0, [33, 27])

    def test_unknown_sequence_and_negative_rejected(self, cache):
        cache.allocate_sequence(1, 16)
        with pytest.raises(KeyError):
            cache.extend_all([1, 7], 1)
        with pytest.raises(ValueError):
            cache.extend_all([1], -1)
        assert _state(cache, [1]) == (99, [16])


class TestCapacityPlanning:
    def test_max_sequences(self, cache):
        # 100 blocks, each 640-token sequence needs 40 blocks -> 2 fit.
        assert cache.max_sequences(640) == 2

    def test_max_sequences_tiny_context(self, cache):
        assert cache.max_sequences(1) == 100

    def test_release_returns_capacity(self, cache):
        cache.allocate_sequence(1, 640)
        cache.allocate_sequence(2, 640)
        cache.release_sequence(1)
        cache.allocate_sequence(3, 640)  # must not raise
        assert cache.used_blocks == 80
