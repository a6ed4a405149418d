"""Non-overlapping block statistics over bit sequences.

A sequence of n bits is split into floor(n/i) consecutive substrings of
length i (the trailing partial block is discarded) and the occurrences of
each of the 2^i possible substrings are counted. Substrings map to counter
indices by reading the i bits as a big-endian integer ("10" -> 2).

Counting works on the packed bytes directly and never unpacks the
sequence: the bits are walked in whole periods of lcm(i, 8) bits, which
always start on a byte and hold a fixed number of blocks, a bounded slab
of periods at a time, so working memory does not grow with n. The blocks
after the last whole period are counted on their own.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bitstream import BitSequence

# Dense 2^i counter vectors become impractical past this level.
MAX_LEVEL = 24

# Values fed to one bincount, which copies them to intp: 1 MiB of working memory.
_SLAB = 1 << 17


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


def _check_level(n: int, i: int):
    if not 1 <= i <= MAX_LEVEL:
        raise ValueError(f"block length must be in [1, {MAX_LEVEL}], got {i}")
    if n < i:
        raise ValueError(f"sequence of {n} bits has no complete block of length {i}")


def _count_packed(data: np.ndarray, nbits: int, i: int) -> np.ndarray:
    """Counts of the nbits // i blocks of the first nbits bits of packed bytes.

    Whole periods of lcm(i, 8) bits are counted slab by slab, each slab
    feeding at most max(_SLAB, 2^i) values to one bincount; for i dividing
    8 the values are bytes, whose histogram is folded into i-bit counts,
    otherwise they are the blocks themselves, read from the one to four
    bytes each block touches. The blocks after the last whole period are
    read from one Python integer, so pad bits beyond nbits are never read
    as data.
    """
    period = math.lcm(i, 8)
    pbytes, per_period = period // 8, period // i
    full = nbits // period
    mask = (1 << i) - 1
    counts = np.zeros(1 << i, dtype=np.int64)
    if pbytes == 1:
        hist = np.zeros(256, dtype=np.int64)
        for a in range(0, full, _SLAB):
            hist += np.bincount(data[a : min(a + _SLAB, full)], minlength=256)
        byte = np.arange(256)
        for k in range(per_period):
            np.add.at(counts, (byte >> (8 - i * (k + 1))) & mask, hist)
    else:
        periods = data[: full * pbytes].reshape(full, pbytes)
        rows = max(1, max(_SLAB, 1 << i) // per_period)
        buf = np.empty((per_period, min(rows, full)), dtype=np.uint16 if i <= 9 else np.uint32)
        for a in range(0, full, rows):
            slab = periods[a : a + rows]
            vals = buf[:, : len(slab)]
            for k, w in enumerate(vals):
                first, skip = divmod(k * i, 8)
                touched = (skip + i + 7) // 8
                np.copyto(w, slab[:, first], casting="unsafe")
                for t in range(first + 1, first + touched):
                    w <<= 8
                    w |= slab[:, t]
                w >>= 8 * touched - skip - i
                w &= mask
            counts += np.bincount(vals.ravel(), minlength=1 << i)
    tail = nbits // i - full * per_period  # blocks after the last whole period
    tail_bytes = data[full * pbytes : full * pbytes + (tail * i + 7) // 8].tobytes()
    word, width = int.from_bytes(tail_bytes, "big"), 8 * len(tail_bytes)
    for k in range(1, tail + 1):
        counts[(word >> (width - k * i)) & mask] += 1
    return counts


def count_blocks(seq: BitSequence, i: int) -> BlockCounts:
    """Count occurrences of every i-bit substring over disjoint blocks."""
    _check_level(seq.n, i)
    counts = _count_packed(np.frombuffer(seq.data, dtype=np.uint8), seq.n, i)
    return BlockCounts(i, counts, seq.n // i)


def level_counts(seq: BitSequence, levels: int | None = None) -> list[BlockCounts]:
    """Block counts at levels 1..check_levels(seq.n, levels), each counted once."""
    return [count_blocks(seq, i) for i in range(1, check_levels(seq.n, levels) + 1)]


def merge_counts(a: BlockCounts, b: BlockCounts) -> BlockCounts:
    if a.level != b.level:
        raise ValueError(f"cannot merge counts at levels {a.level} and {b.level}")
    return BlockCounts(a.level, a.counts + b.counts, a.total + b.total)


def count_blocks_parallel(seq: BitSequence, i: int, workers: int | None = None) -> BlockCounts:
    """count_blocks over period-aligned slices of the packed bytes on a thread
    pool, merged; bit-identical to count_blocks. Worker count defaults to the
    CPU count."""
    _check_level(seq.n, i)
    if workers is None:
        workers = os.cpu_count() or 1
    period = math.lcm(i, 8)
    workers = max(1, min(workers, seq.n // period))
    data = np.frombuffer(seq.data, dtype=np.uint8)
    cuts = [seq.n // period * s // workers * period for s in range(workers)] + [seq.n]

    def count(s: int) -> BlockCounts:
        lo, hi = cuts[s], cuts[s + 1]
        return BlockCounts(i, _count_packed(data[lo // 8 :], hi - lo, i), (hi - lo) // i)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return reduce(merge_counts, pool.map(count, range(workers)))
