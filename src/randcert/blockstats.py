"""Non-overlapping block statistics over bit sequences.

A sequence of n bits is split into floor(n/i) consecutive substrings of
length i (the trailing partial block is discarded) and the occurrences of
each of the 2^i possible substrings are counted. Substrings map to counter
indices by reading the i bits as a big-endian integer ("10" -> 2).

Counting works on the packed bytes directly and never unpacks the
sequence. A set of levels is counted in one walk over whole periods of
lcm(8, *levels) bits (120 bits for levels 1..5), which always start on a
byte and hold a fixed number of blocks of every level, a bounded slab of
periods at a time, so working memory does not grow with n. Every block of
a level 1..9 (the levels count_blocks takes) lies in one byte of the
period or in the 16-bit window of a byte and the next, so the walk only
histograms those windows and the bytes no window covers, and folds each
block's counts out of them. The blocks after the last whole period are
counted on their own. stream_level_counts runs the walk over a file one
chunk of whole periods at a time and sums the chunks' counts, so it never
holds the file.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import bitstream
from .bitstream import BitSequence

# The longest block that always lies in one byte or in a 16-bit window of a
# byte and the next (7 bits of skip + 9). The Borel test needs levels up to
# i_max(n) <= 5 for any n < 2^64 and the coupled bound stops at level 8, so
# no caller needs longer blocks.
MAX_LEVEL = 9

# Periods fed to one bincount, which copies them to intp: 1 MiB of working
# memory.
_SLAB = 1 << 17

# Bits per chunk of stream_level_counts, 1.875 MiB: whole slabs of whole
# periods for levels 1..4 (24 bits), 1..5 and 1..6 (120 bits), so a chunked
# count walks as many slabs as one call over the whole file.
_CHUNK_BITS = 120 * _SLAB


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


def _fold(hist: np.ndarray, width: int, skip: int, i: int) -> np.ndarray:
    """Counts of the i bits after the first skip of a histogram of width-bit values."""
    return hist.reshape(1 << skip, 1 << i, 1 << (width - skip - i)).sum(axis=(0, 2))


def _fold_windows(periods: np.ndarray, levels: list[int]) -> dict[int, np.ndarray]:
    """Counts of the blocks of every distinct level (each at most MAX_LEVEL)
    in periods, one whole lcm(8, *levels)-bit period of packed bytes per row.

    Every block lies in one byte of the period, or, when it crosses into the
    next byte, in the big-endian 16-bit window of that byte and the next;
    the last block of a period ends on the period boundary, so no window
    leaves it. One walk, _SLAB periods at a time, histograms each window
    that a block crosses (2^16 bins) and each byte that no window covers
    (256 bins). Each window's histogram is reduced at most three times
    before the next window is counted, so only one is held at a time: once
    over its leading bits to the marginal of the bits from the first that
    its crossing blocks read, from which each of those blocks is folded,
    and once for each of its two bytes, as the row and column sums of a
    (256, 256) view. (Summing over a leading axis walks contiguous rows;
    summing out short trailing runs of the full histogram costs several
    times as much.) The blocks inside one byte are folded at the end, once
    per (level, skip), from the summed histograms of the bytes that hold
    such a block.
    """
    pbytes = periods.shape[1]
    # (level, byte, skip) of every block in one period
    blocks = [(i, *divmod(o, 8)) for i in levels for o in range(0, 8 * pbytes, i)]
    windows = {}  # byte -> (level, skip) of each block crossing into the next byte
    for i, b, s in blocks:
        if s + i > 8:
            windows.setdefault(b, []).append((i, s))
    first = {b: min(s for _, s in ws) for b, ws in windows.items()}  # first bit read
    counts = {i: np.zeros(1 << i, dtype=np.int64) for i in levels}
    byte_hists = np.zeros((pbytes, 256), dtype=np.int64)
    for a in range(0, len(periods), _SLAB):
        slab = periods[a : a + _SLAB]
        for p in range(pbytes):
            if p in windows:
                hist = np.bincount(slab[:, p : p + 2].view(">u2")[:, 0], minlength=1 << 16)
                lo = first[p]
                tail = hist.reshape(1 << lo, -1).sum(axis=0)  # bits lo..15
                for i, s in windows[p]:
                    counts[i] += _fold(tail, 16 - lo, s - lo, i)
                pair = hist.reshape(256, 256)  # (this byte, the next)
                byte_hists[p] += pair.sum(axis=1)
                if p + 1 not in windows:
                    byte_hists[p + 1] += pair.sum(axis=0)
                del hist, pair, tail  # freed before the next window's bincount
            elif p - 1 not in windows:
                byte_hists[p] += np.bincount(slab[:, p], minlength=256)
    inside = {}  # (level, skip) -> bytes holding such a block whole
    for i, b, s in blocks:
        if s + i <= 8:
            inside.setdefault((i, s), []).append(b)
    for (i, s), bs in inside.items():
        counts[i] += _fold(byte_hists[bs].sum(axis=0), 8, s, i)
    return counts


def _count_packed(data: np.ndarray, nbits: int, levels) -> list[np.ndarray]:
    """Counts of the nbits // i blocks of the first nbits bits of packed bytes,
    one vector per level i in levels.

    Every level is counted in one walk over whole periods of lcm(8, *levels)
    bits (_fold_windows). The blocks after the last whole period are read
    from one Python integer, so pad bits beyond nbits are never read as data.
    """
    if not levels:  # stream_level_counts below level 1: no walk at all
        return []
    period = math.lcm(8, *levels)
    full, pbytes = nbits // period, period // 8
    rest = data[full * pbytes :]
    counts = _fold_windows(data[: full * pbytes].reshape(full, pbytes), sorted(set(levels)))
    for i, c in counts.items():
        tail = nbits // i - full * (period // i)  # blocks after the last whole period
        tail_bytes = rest[: (tail * i + 7) // 8].tobytes()
        word, width, mask = int.from_bytes(tail_bytes, "big"), 8 * len(tail_bytes), (1 << i) - 1
        for k in range(1, tail + 1):
            c[(word >> (width - k * i)) & mask] += 1
    return [counts[i] for i in levels]


def count_blocks(seq: BitSequence, i: int) -> BlockCounts:
    """Count occurrences of every i-bit substring over disjoint blocks."""
    _check_level(seq.n, i)
    (counts,) = _count_packed(np.frombuffer(seq.data, dtype=np.uint8), seq.n, (i,))
    return BlockCounts(i, counts, seq.n // i)


def level_counts(seq: BitSequence, levels: int | None = None) -> list[BlockCounts]:
    """Block counts at levels 1..check_levels(seq.n, levels), all from one
    walk over the packed bytes."""
    top = range(1, check_levels(seq.n, levels) + 1)
    counts = _count_packed(np.frombuffer(seq.data, dtype=np.uint8), seq.n, tuple(top))
    return [BlockCounts(i, c, seq.n // i) for i, c in zip(top, counts)]


def _top_level(bound: int, levels: int | None) -> int:
    """The highest level worth counting on at most bound bits (0 for none);
    check_levels on the n found decides which of them are reported."""
    imax = max_borel_level(bound) if bound >= 4 else 0
    return imax if levels is None else max(0, min(levels, imax))


def stream_level_counts(
    path, fmt: str, n: int | None = None, levels: int | None = None
) -> tuple[int, list[BlockCounts]]:
    """n and the block counts at levels 1..check_levels(n, levels) of a
    "packed" or "ascii" bit file, one chunk at a time, so the file is never
    held whole. n is the packed bit count to read (default: every bit).

    The levels are fixed before the first chunk, from an upper bound on n:
    the requested n, or 8 bits a byte of a packed file, or 1 bit a byte of
    an ASCII file; an input with no size, such as a pipe, is counted up to
    level 5, the highest i_max of any n < 2^64. Levels above i_max of the n
    read are dropped at the end. Each chunk is _CHUNK_BITS rounded down to
    whole periods of lcm(8, 1..top) bits, so no block spans two chunks and
    the chunks' counts sum to the whole file's.
    """
    if fmt != "packed" and n is not None:
        raise ValueError("n applies to packed input only")
    bound = n
    if n is None:
        info = os.stat(path)
        bound = (1 << 64) - 1  # no size, as of a pipe: fewer than 2^64 bits
        if stat.S_ISREG(info.st_mode):
            bound = 8 * info.st_size if fmt == "packed" else info.st_size
    top = _top_level(bound, levels)
    period = math.lcm(8, *range(1, top + 1))
    chunk_bits = period * max(1, _CHUNK_BITS // period)
    if fmt == "packed":
        chunks = bitstream.stream_packed(path, chunk_bits, n)
    else:
        chunks = bitstream.stream_ascii(path, chunk_bits)
    total, sums = 0, []
    for chunk in chunks:
        data = np.frombuffer(chunk.data, dtype=np.uint8)
        counts = _count_packed(data, chunk.n, tuple(range(1, top + 1)))
        sums = counts if not total else [a + b for a, b in zip(sums, counts)]
        total += chunk.n
        del chunk, data  # freed before the next chunk is read
    top = check_levels(total, levels)
    return total, [BlockCounts(i, sums[i - 1], total // i) for i in range(1, top + 1)]


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
        (counts,) = _count_packed(data[lo // 8 :], hi - lo, (i,))
        return BlockCounts(i, counts, (hi - lo) // i)

    from concurrent.futures import ThreadPoolExecutor  # imported here: it adds ~10 ms to every start

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return reduce(merge_counts, pool.map(count, range(workers)))
