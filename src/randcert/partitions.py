"""Set partitions of the substring alphabet, encoded as restricted-growth
strings, and Bell numbers sizing the model space.

A partition of the 2^i substrings defines one generative model: all
substrings in a block share probability mass. The canonical encoding is
the restricted-growth string (RGS): entry t is the block id of substring
t, block ids appearing in first-use order starting at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

BELL_MAX_N = 26  # B_26 ~ 4.9e19, the last value fitting unsigned 128 bits

ENUM_MAX_MODELS = 1 << 20  # larger model spaces are refused, not walked


def bell_number(n: int) -> int:
    """Exact n-th Bell number."""
    if not 0 <= n <= BELL_MAX_N:
        raise ValueError(f"bell_number defined for 0 <= n <= {BELL_MAX_N}, got {n}")
    return _partition_count(n, n)


def _partition_count(n: int, max_blocks: int, stop: float = math.inf) -> int:
    """Partitions of n items into at most max_blocks blocks, sum_{k <= max_blocks}
    S(n, k), from the exact Stirling recurrence S(m, k) = k S(m-1, k) + S(m-1, k-1).
    The sum never falls as m grows, so a partial sum past stop is returned as is."""
    row = [1] + [0] * max_blocks  # S(0, k) for k = 0..max_blocks
    for _ in range(n):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, max_blocks + 1)]
        if sum(row) > stop:
            break
    return sum(row)


def _level_for_size(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(f"alphabet size must be a power of two >= 2, got {n}")
    return n.bit_length() - 1


@dataclass(frozen=True)
class PartitionModel:
    """One generative model: a partition of the 2^level substrings."""

    level: int
    rgs: tuple  # restricted-growth string, length 2^level
    num_blocks: int
    block_sizes: tuple

    @classmethod
    def from_rgs(cls, rgs: Sequence[int]) -> "PartitionModel":
        rgs = tuple(rgs)
        level = _level_for_size(len(rgs))
        if rgs[0] != 0:
            raise ValueError("restricted-growth string must start with 0")
        hi = 0
        for t, v in enumerate(rgs[1:], 1):
            if not 0 <= v <= hi + 1:
                raise ValueError(f"non-canonical restricted-growth string at position {t}")
            hi = max(hi, v)
        k = hi + 1
        sizes = [0] * k
        for v in rgs:
            sizes[v] += 1
        return cls(level, rgs, k, tuple(sizes))

    @classmethod
    def one_block(cls, level: int) -> "PartitionModel":
        """The maximally random model: every substring equiprobable."""
        n = 1 << level
        return cls(level, (0,) * n, 1, (n,))

    @property
    def is_symmetric(self) -> bool:
        return self.num_blocks == 1

    def rgs_string(self) -> str:
        return ".".join(str(v) for v in self.rgs)


def enumerate_partitions(n: int, max_blocks: int | None = None) -> Iterator[PartitionModel]:
    """Yield every canonical RGS of length n (optionally capped at max_blocks
    blocks) exactly once, in lexicographic order; the one-block partition
    comes first."""
    level = _level_for_size(n)
    if max_blocks is None:
        max_blocks = n
    if not 1 <= max_blocks <= n:
        raise ValueError(f"max_blocks must be in [1, {n}], got {max_blocks}")
    if _partition_count(n, max_blocks, ENUM_MAX_MODELS) > ENUM_MAX_MODELS:
        raise ValueError(
            f"refusing to enumerate more than {ENUM_MAX_MODELS} partitions of "
            f"{n} items into at most {max_blocks} blocks; lower max_blocks"
        )
    return _iter_partitions(n, level, max_blocks)


def _iter_partitions(n: int, level: int, max_blocks: int) -> Iterator[PartitionModel]:
    a = [0] * n  # current RGS
    b = [0] * n  # b[t] = max(a[0..t-1]), b[0] unused
    while True:
        k = max(a) + 1
        sizes = [0] * k
        for v in a:
            sizes[v] += 1
        yield PartitionModel(level, tuple(a), k, tuple(sizes))
        # advance to the next RGS in lex order under the block cap
        t = n - 1
        while t > 0 and not (a[t] <= b[t] and a[t] + 1 < max_blocks):
            t -= 1
        if t == 0:
            return
        a[t] += 1
        for u in range(t + 1, n):
            a[u] = 0
            b[u] = max(b[u - 1], a[u - 1])
