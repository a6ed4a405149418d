"""Non-overlapping block statistics over bit sequences.

A sequence of n bits is split into floor(n/i) consecutive substrings of
length i (the trailing partial block is discarded) and the occurrences of
each of the 2^i possible substrings are counted. Substrings map to counter
indices by reading the i bits as a big-endian integer ("10" -> 2).

Counting works on the packed bytes directly and never unpacks the
sequence. A set of levels is counted over whole periods of lcm(8, *levels)
bits (120 bits for levels 1..5), which always start on a byte and hold a
fixed number of blocks of every level. Each level is counted from a
histogram of w-bit segments, where w is a multiple of the level and
divides the period, so no block crosses a segment: levels 1, 2, 3, 4 and 6
share 12-bit segments when 3 or 6 is counted, level 5 takes 10 bits, 7
and 9 their own width, and every other level whole bytes. Each segment
lies in one byte or in the big-endian 16-bit window of its first byte, so
one shift and one mask read it.

A count is three steps: the segments of every region of whole periods are
histogrammed, a bounded slab at a time, into one histogram per width that
the caller holds; a level's counts are then folded out of its histogram
once; and the blocks after the last whole period are counted once, on
their own. A sequence in memory is one region. stream_level_counts reads
a file one chunk of whole periods at a time and adds each chunk to the
same histograms, so it never holds the file, and the folds and the tail
cost the same however many chunks there are.
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

# The longest level whose segments always lie in one byte or in a 16-bit
# window of a byte and the next (7 bits of skip + 9). The Borel test needs
# levels up to i_max(n) <= 5 for any n < 2^64 and the coupled bound stops at
# level 8, so no caller needs longer blocks.
MAX_LEVEL = 9

# Segments fed to one bincount, as intp: 256 KiB of working memory, which
# fits in a core's L2 cache.
_SLAB = 1 << 15

# Bits per chunk of stream_level_counts, 480 KiB: whole periods of levels
# 1..4 (24 bits), 1..5 and 1..6 (120 bits), and whole slabs of the 12-bit
# (5), 10-bit (3) and 8-bit (15) segment rows they are counted from, so a
# chunked count makes as many bincounts as one pass over the whole file.
# Chunks only add to the histograms; the folds and the tail come once.
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


def check_levels(n: int, levels: int | None = None, about: str | None = None) -> int:
    """Highest level to test on n bits: levels itself if 1 <= levels <= i_max(n),
    i_max(n) when levels is None; anything else is refused, for the n that
    about names (default "n=<n>"), such as a bound on an n not yet read."""
    imax = max_borel_level(n)
    if levels is None:
        return imax
    if not 1 <= levels <= imax:
        raise ValueError(
            f"level {levels} is outside 1..i_max={imax} for {about or f'n={n}'} "
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


def _width(i: int, levels) -> int:
    """Bits in the segments level i is counted from: a multiple of i that
    divides lcm(8, *levels), so whole segments tile each period."""
    if 12 % i == 0 and (3 in levels or 6 in levels):
        return 12
    return {5: 10, 7: 7, 9: 9}.get(i, 8)


def _histograms(levels) -> dict[int, np.ndarray]:
    """An empty histogram for each segment width that levels are counted from."""
    return {w: np.zeros(1 << w, dtype=np.int64) for w in {_width(i, levels) for i in levels}}


def _segment_hist(region: np.ndarray, width: int, hist: np.ndarray) -> None:
    """Add to hist the histogram of the width-bit segments of region, packed
    bytes in whole rows of lcm(8, width) bits, one bincount per segment of a
    row and slab.

    A segment lies in one byte or in the big-endian 16-bit window of its
    first byte, so one shift and one mask read it, into one intp buffer of
    a slab that bincount then reads without a copy of its own."""
    rows = region.reshape(-1, math.lcm(8, width) // 8)
    mask = (1 << width) - 1
    buf = np.empty(min(_SLAB, len(rows)), dtype=np.intp)
    for a in range(0, len(rows), _SLAB):
        slab = rows[a : a + _SLAB]
        values = buf[: len(slab)]
        for b, s in (divmod(o, 8) for o in range(0, 8 * rows.shape[1], width)):
            bits = 8 if s + width <= 8 else 16
            word = slab[:, b] if bits == 8 else slab[:, b : b + 2].view(">u2")[:, 0]
            np.right_shift(word, bits - s - width, out=values)
            if s:
                values &= mask
            hist += np.bincount(values, minlength=1 << width)


def _fold_levels(hists: dict[int, np.ndarray], levels) -> dict[int, np.ndarray]:
    """The counts of each level in levels over the whole periods that the
    segment histograms hists (by width) were taken from.

    A level's counts are the sum over its block offsets of the folds of its
    segment histogram, which the levels of one segment width share, or of
    the counts of a multiple of it from the same segments."""
    widths = {i: _width(i, levels) for i in set(levels)}
    counts = {}
    for i in sorted(widths, reverse=True):
        # a block of a multiple of i in the same segments holds whole blocks
        # of i: folding its counts reads 2^j bins, not the 2^width histogram
        j = next((j for j in counts if j % i == 0 and widths[j] == widths[i]), None)
        hist, width = (counts[j], j) if j else (hists[widths[i]], widths[i])
        counts[i] = sum(_fold(hist, width, s, i) for s in range(0, width, i))
    return counts


def _count_tail(counts: dict[int, np.ndarray], rest: np.ndarray, nbits: int) -> None:
    """Add to counts (by level) the blocks in the first nbits bits of the
    packed bytes rest, the bits after the last whole period. They are read
    from one Python integer, so pad bits beyond nbits are never read as data."""
    raw = rest[: (nbits + 7) // 8].tobytes()
    word, width = int.from_bytes(raw, "big"), 8 * len(raw)
    for i, c in counts.items():
        mask = (1 << i) - 1
        for k in range(1, nbits // i + 1):
            c[(word >> (width - k * i)) & mask] += 1


def _count_packed(data: np.ndarray, nbits: int, levels) -> list[np.ndarray]:
    """Counts of the nbits // i blocks of the first nbits bits of packed bytes,
    one vector per level i in levels: the three steps over one region of
    whole periods of lcm(8, *levels) bits, and its tail."""
    period = math.lcm(8, *levels)
    whole = nbits // period * period
    hists = _histograms(levels)
    for width, hist in hists.items():
        _segment_hist(data[: whole // 8], width, hist)
    counts = _fold_levels(hists, levels)
    _count_tail(counts, data[whole // 8 :], nbits - whole)
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


def input_top_level(path, fmt: str, n: int | None = None, levels: int | None = None) -> int:
    """The highest level worth counting on a "packed" or "ascii" bit file of
    n packed bits (default: every bit), from an upper bound on its n: the
    requested n, or 8 bits a byte of a packed file, or 1 bit a byte of an
    ASCII file; an input with no size, such as a pipe, has fewer than 2^64
    bits, so up to level 5. A level outside 1..i_max of that bound is refused
    here, before anything is read. Below 4 bits the bound rules out every
    level, and the n read decides how the input is refused (0 is returned)."""
    if fmt != "packed" and n is not None:
        raise ValueError("n applies to packed input only")
    bound, about = n, f"n={n}"
    if n is None:
        info = os.stat(path)
        bound, about = (1 << 64) - 1, "n < 2^64"
        if stat.S_ISREG(info.st_mode):
            bound = 8 * info.st_size if fmt == "packed" else info.st_size
            about = f"n={bound}" if fmt == "packed" else f"n <= {bound}"
    return check_levels(bound, levels, about) if bound >= 4 else 0


def stream_level_counts(
    path, fmt: str, n: int | None = None, levels: int | None = None
) -> tuple[int, list[BlockCounts]]:
    """n and the block counts at levels 1..check_levels(n, levels) of a
    "packed" or "ascii" bit file, one chunk at a time, so the file is never
    held whole. n is the packed bit count to read (default: every bit).

    The levels are fixed, and checked, before the first chunk, by
    input_top_level. Levels above i_max of the n read are dropped at the
    end, and a level it does not reach is refused there. Each chunk is
    _CHUNK_BITS rounded down to whole periods of lcm(8, 1..top) bits, so no
    block spans two chunks. Every chunk adds its segments to one histogram
    per width; the levels are folded out of them, and the blocks after the
    last whole period counted, once, after the last chunk.
    """
    top = input_top_level(path, fmt, n, levels)
    counted = tuple(range(1, top + 1))
    period = math.lcm(8, *counted)
    chunk_bits = period * max(1, _CHUNK_BITS // period)
    if fmt == "packed":
        chunks = bitstream.stream_packed(path, chunk_bits, n)
    else:
        chunks = bitstream.stream_ascii(path, chunk_bits)
    hists = _histograms(counted)
    total, rest, tail = 0, np.empty(0, dtype=np.uint8), 0
    for chunk in chunks:
        data = np.frombuffer(chunk.data, dtype=np.uint8)
        whole = chunk.n // period * period  # all of it, but in the last chunk
        for width, hist in hists.items():
            _segment_hist(data[: whole // 8], width, hist)
        total += chunk.n
        rest, tail = data[whole // 8 :].copy(), chunk.n - whole
        del chunk, data  # freed before the next chunk is read
    counts = _fold_levels(hists, counted)
    _count_tail(counts, rest, tail)
    top = check_levels(total, levels)
    return total, [BlockCounts(i, counts[i], total // i) for i in range(1, top + 1)]


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
