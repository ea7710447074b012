"""Deterministic random streams, independent of worker count.

Work is split into fixed blocks keyed by (seed, block index); each block
gets its own Philox generator.  Workers claim whole blocks, so the random
numbers any path sees depend only on the seed and the block layout, never
on how many workers ran or in what order blocks finished.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 4096


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Generator for one work block, stable across worker layouts."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(block)]))


def block_count(n_items: int) -> int:
    return (n_items + BLOCK_SIZE - 1) // BLOCK_SIZE


def block_bounds(block: int, n_items: int):
    """Half-open item range [lo, hi) covered by one block."""
    lo = block * BLOCK_SIZE
    hi = min(n_items, lo + BLOCK_SIZE)
    return lo, hi
