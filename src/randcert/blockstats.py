"""Non-overlapping block statistics over bit sequences.

A sequence of n bits is split into floor(n/i) consecutive substrings of
length i (the trailing partial block is discarded) and the occurrences of
each of the 2^i possible substrings are counted. Substrings map to counter
indices by reading the i bits as a big-endian integer ("10" -> 2).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bitstream import BitSequence

# Dense 2^i counter vectors become impractical past this level.
MAX_LEVEL = 24


@dataclass(frozen=True)
class BlockCounts:
    level: int
    counts: np.ndarray  # int64, length 2^level, read-only
    total: int

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (1 << self.level,):
            raise ValueError(
                f"counts length {counts.shape} does not match level {self.level}"
            )
        if int(counts.sum()) != self.total:
            raise ValueError("counts do not sum to total")

    def __eq__(self, other):
        if not isinstance(other, BlockCounts):
            return NotImplemented
        return (
            self.level == other.level
            and self.total == other.total
            and np.array_equal(self.counts, other.counts)
        )

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "total": self.total,
            "counts": [int(c) for c in self.counts],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockCounts":
        return cls(d["level"], np.asarray(d["counts"], dtype=np.int64), d["total"])


def zero_counts(level: int) -> BlockCounts:
    return BlockCounts(level, np.zeros(1 << level, dtype=np.int64), 0)


def max_borel_level(n: int) -> int:
    """Largest i with 2^(2^i) <= n, by exact integer comparison."""
    if n < 4:
        raise ValueError(f"no admissible Borel level for n={n} (need n >= 4)")
    i = 1
    while (1 << (1 << (i + 1))) <= n:
        i += 1
    return i


def check_levels(n: int, levels: int | None = None) -> int:
    """Highest level to test on n bits: levels itself if 1 <= levels <= i_max(n),
    i_max(n) when levels is None; anything else is refused."""
    imax = max_borel_level(n)
    if levels is None:
        return imax
    if not 1 <= levels <= imax:
        raise ValueError(
            f"level {levels} is outside 1..i_max={imax} for n={n} "
            f"(level i needs n >= 2^(2^i))"
        )
    return levels


def _check_level(i: int):
    if not 1 <= i <= MAX_LEVEL:
        raise ValueError(f"block length must be in [1, {MAX_LEVEL}], got {i}")


def _count_bit_slice(bits: np.ndarray, i: int) -> np.ndarray:
    nblocks = bits.size // i
    if i == 1:
        return np.bincount(bits, minlength=2).astype(np.int64)
    vals = np.zeros(nblocks, dtype=np.int32 if i <= 31 else np.int64)
    trimmed = bits[: nblocks * i]
    for k in range(i):
        vals += trimmed[k::i].astype(vals.dtype) << (i - 1 - k)
    return np.bincount(vals, minlength=1 << i).astype(np.int64)


def count_blocks(seq: BitSequence, i: int) -> BlockCounts:
    """Count occurrences of every i-bit substring over disjoint blocks."""
    _check_level(i)
    if seq.n < i:
        raise ValueError(f"sequence of {seq.n} bits has no complete block of length {i}")
    counts = _count_bit_slice(seq.to_bit_array(), i)
    return BlockCounts(i, counts, seq.n // i)


def level_counts(seq: BitSequence, levels: int | None = None) -> list[BlockCounts]:
    """Block counts at levels 1..check_levels(seq.n, levels), each counted once."""
    return [count_blocks(seq, i) for i in range(1, check_levels(seq.n, levels) + 1)]


def merge_counts(a: BlockCounts, b: BlockCounts) -> BlockCounts:
    if a.level != b.level:
        raise ValueError(f"cannot merge counts at levels {a.level} and {b.level}")
    return BlockCounts(a.level, a.counts + b.counts, a.total + b.total)


def count_blocks_parallel(seq: BitSequence, i: int, workers: int | None = None) -> BlockCounts:
    """Chunked counting over block-aligned slices, merged; bit-identical to
    count_blocks. Worker count defaults to the CPU count."""
    _check_level(i)
    if seq.n < i:
        raise ValueError(f"sequence of {seq.n} bits has no complete block of length {i}")
    if workers is None:
        workers = os.cpu_count() or 1
    nblocks = seq.n // i
    workers = max(1, min(workers, nblocks))
    bits = seq.to_bit_array()
    per = (nblocks + workers - 1) // workers
    slices = [
        bits[s * per * i : min((s + 1) * per, nblocks) * i]
        for s in range(workers)
        if s * per < nblocks
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(lambda sl: _count_bit_slice(sl, i), slices))
    counts = np.sum(partials, axis=0, dtype=np.int64)
    return BlockCounts(i, counts, nblocks)
