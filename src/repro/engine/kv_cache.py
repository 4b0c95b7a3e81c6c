"""Paged KV-cache with block-level allocation (PagedAttention-style).

vLLM's core memory innovation is allocating KV cache in fixed-size token
blocks instead of contiguous max-length buffers.  The simulator keeps the
same accounting so that capacity questions — how many parallel sequences
fit at a given context length on 64GB — are answered the way the real
serving stack answers them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KVCacheConfig:
    """Paged-cache geometry."""

    #: Bytes appended per token position (model-dependent; see
    #: :attr:`repro.models.TransformerConfig.kv_bytes_per_token`).
    bytes_per_token: float
    #: Total DRAM budget for the cache in bytes.
    capacity_bytes: float
    #: Tokens per block (vLLM default 16).
    block_tokens: int = 16

    @property
    def bytes_per_block(self) -> float:
        """DRAM footprint of one block."""
        return self.bytes_per_token * self.block_tokens

    @property
    def total_blocks(self) -> int:
        """Number of allocatable blocks."""
        return int(self.capacity_bytes // self.bytes_per_block)


class KVCacheExhausted(MemoryError):
    """Raised when a sequence cannot get another cache block."""


class PagedKVCache:
    """Block allocator for sequence KV state."""

    def __init__(self, config: KVCacheConfig):
        if config.block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        if config.bytes_per_token <= 0:
            raise ValueError("bytes_per_token must be positive")
        self.config = config
        self._free_blocks = config.total_blocks
        self._reserved_blocks = 0
        self._sequences: dict[int, int] = {}  # seq id -> allocated tokens

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Blocks currently unallocated."""
        return self._free_blocks

    @property
    def used_blocks(self) -> int:
        """Blocks currently held by live sequences."""
        return self.config.total_blocks - self._free_blocks

    @property
    def used_bytes(self) -> float:
        """DRAM bytes occupied by allocated blocks."""
        return self.used_blocks * self.config.bytes_per_block

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` positions."""
        if tokens <= 0:
            return 0
        block = self.config.block_tokens
        return (tokens + block - 1) // block

    # ------------------------------------------------------------------
    @property
    def reserved_blocks(self) -> int:
        """Blocks withheld from the free pool (memory-pressure model)."""
        return self._reserved_blocks

    def reserve_blocks(self, blocks: int) -> int:
        """Withhold up to ``blocks`` free blocks from allocation.

        Models external memory pressure (another tenant, a fault-injected
        spike): reserved blocks are unavailable to sequences until
        :meth:`release_reserved` returns them.  Returns how many blocks
        were actually taken (bounded by the free pool).
        """
        taken = min(max(blocks, 0), self._free_blocks)
        self._free_blocks -= taken
        self._reserved_blocks += taken
        return taken

    def release_reserved(self, blocks: int | None = None) -> int:
        """Return reserved blocks to the free pool (all by default)."""
        if blocks is None:
            blocks = self._reserved_blocks
        freed = min(max(blocks, 0), self._reserved_blocks)
        self._reserved_blocks -= freed
        self._free_blocks += freed
        return freed

    # ------------------------------------------------------------------
    def allocate_sequence(self, seq_id: int, tokens: int) -> None:
        """Register a sequence with an initial context (the prompt)."""
        if seq_id in self._sequences:
            raise ValueError(f"sequence {seq_id} already allocated")
        needed = self.blocks_for(tokens)
        if needed > self._free_blocks:
            raise KVCacheExhausted(
                f"sequence {seq_id} needs {needed} blocks, {self._free_blocks} free"
            )
        self._free_blocks -= needed
        self._sequences[seq_id] = tokens

    def append_token(self, seq_id: int) -> None:
        """Extend a sequence by one decoded token, growing block-by-block."""
        if seq_id not in self._sequences:
            raise KeyError(f"unknown sequence {seq_id}")
        tokens = self._sequences[seq_id]
        if self.blocks_for(tokens + 1) > self.blocks_for(tokens):
            if self._free_blocks == 0:
                raise KVCacheExhausted(f"no free block for sequence {seq_id}")
            self._free_blocks -= 1
        self._sequences[seq_id] = tokens + 1

    def extend(self, seq_id: int, new_tokens: int) -> None:
        """Extend a sequence by many tokens at once (bulk accounting)."""
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        if seq_id not in self._sequences:
            raise KeyError(f"unknown sequence {seq_id}")
        tokens = self._sequences[seq_id]
        extra = self.blocks_for(tokens + new_tokens) - self.blocks_for(tokens)
        if extra > self._free_blocks:
            raise KVCacheExhausted(
                f"sequence {seq_id} needs {extra} more blocks, "
                f"{self._free_blocks} free"
            )
        self._free_blocks -= extra
        self._sequences[seq_id] = tokens + new_tokens

    def extend_all(self, seq_ids: list[int], new_tokens: int) -> None:
        """Extend every sequence in ``seq_ids`` (distinct ids) by
        ``new_tokens`` — one decode span of a whole batch.

        Same block accounting as one :meth:`extend` per sequence, but
        all or nothing: the span's total block need is checked against
        the free pool before any sequence grows.
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        sequences = self._sequences
        block = self.config.block_tokens
        extra = 0
        for seq_id in seq_ids:
            if seq_id not in sequences:
                raise KeyError(f"unknown sequence {seq_id}")
            tokens = sequences[seq_id]
            extra += ((tokens + new_tokens + block - 1) // block
                      - (tokens + block - 1) // block)
        if extra > self._free_blocks:
            raise KVCacheExhausted(
                f"{len(seq_ids)} sequences need {extra} more blocks, "
                f"{self._free_blocks} free")
        self._free_blocks -= extra
        for seq_id in seq_ids:
            sequences[seq_id] += new_tokens

    def release_sequence(self, seq_id: int) -> None:
        """Free all blocks of a finished sequence."""
        tokens = self._sequences.pop(seq_id, None)
        if tokens is not None:
            self._free_blocks += self.blocks_for(tokens)

    def sequence_tokens(self, seq_id: int) -> int:
        """Context length currently held for a sequence."""
        return self._sequences[seq_id]

    def max_sequences(self, context_len: int) -> int:
        """How many sequences of a given context length fit at once."""
        blocks_each = self.blocks_for(context_len)
        if blocks_each == 0:
            return self.config.total_blocks
        return self.config.total_blocks // blocks_each


def span_growth_cap(seqs, block: int, free: int, span: int) -> int:
    """Largest ``j <= span`` such that every sequence in ``seqs`` (each
    with a ``.context``) can grow ``j`` tokens together out of ``free``
    blocks of ``block`` tokens — the span cap both serving cores use."""
    # Cheap sufficient test first: a sequence crosses at most
    # ceil(span/block)+1 block boundaries.
    if len(seqs) * ((span + block - 1) // block + 1) <= free:
        return span
    contexts = np.fromiter((seq.context for seq in seqs), dtype=np.int64,
                           count=len(seqs))
    held = (contexts + block - 1) // block

    def fits(j: int) -> bool:
        return int(((contexts + j + block - 1) // block - held).sum()) <= free

    if fits(span):
        return span
    lo, hi = 0, span
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo
