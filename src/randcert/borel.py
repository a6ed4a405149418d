"""Borel-normality test.

A sequence of n bits is maximally random only if, for every substring
length i up to i_max = floor(log2(log2 n)), every substring frequency is
within sqrt(log2(n)/n) of the ideal 2^-i. Failing any level rules the
sequence out; passing proves nothing (the criterion is necessary, not
sufficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstream import BitSequence
from .blockstats import BlockCounts, level_counts

FLOAT_INT_END = 2**1024 - 2**970  # the least int that rounds past the largest float


@dataclass(frozen=True)
class BorelLevelReport:
    level: int
    bound: float
    deviations: np.ndarray  # signed, length 2^level
    passes: bool

    def __post_init__(self):
        dev = np.ascontiguousarray(self.deviations, dtype=np.float64)
        dev.setflags(write=False)
        object.__setattr__(self, "deviations", dev)

    @property
    def max_abs_deviation(self) -> float:
        return float(np.abs(self.deviations).max())

    def to_json_dict(self) -> dict:
        return {
            "i": self.level,
            "bound": self.bound,
            "deviations": [float(d) for d in self.deviations],
            "passes": self.passes,
        }


def borel_bound(n: int) -> float:
    """Right-hand side sqrt(log2(n)/n); constant across levels."""
    if n < 2:
        raise ValueError(f"bound undefined for n={n} (need n >= 2)")
    if n >= FLOAT_INT_END:
        raise ValueError(f"bound needs n < 2^1024 - 2^970, where floats end, got n={n}")
    return math.sqrt(math.log2(n) / n)


def borel_deviations(counts: BlockCounts) -> np.ndarray:
    """Signed per-substring deviations from the ideal frequency 2^-i."""
    if counts.total == 0:
        raise ValueError("cannot compute deviations from zero blocks")
    return counts.counts / counts.total - 2.0 ** -counts.level


def evaluate_level(counts: BlockCounts, n: int) -> BorelLevelReport:
    dev = borel_deviations(counts)
    bound = borel_bound(n)
    # strict inequality: a deviation exactly at the bound fails
    passes = bool(np.abs(dev).max() < bound)
    return BorelLevelReport(counts.level, bound, dev, passes)


def borel_test(
    seq: BitSequence | int,
    levels: int | None = None,
    *,
    counts: list[BlockCounts] | None = None,
) -> list[BorelLevelReport]:
    """Run the test at levels 1..levels (default i_max); one report per level.
    counts, a level_counts(seq, levels) result, saves counting again; with
    counts, seq may be just the bit count n."""
    if counts is None:
        counts = level_counts(seq, levels)
    n = seq if isinstance(seq, int) else seq.n
    return [evaluate_level(c, n) for c in counts]


def reports_to_json_dict(n: int, reports: list) -> dict:
    """A report section: n, each level's to_json_dict() and whether all pass.
    Serves the Borel and the coupled-bound reports alike."""
    return {
        "n": n,
        "levels": [r.to_json_dict() for r in reports],
        "overall": all(r.passes for r in reports),
    }


def reports_to_csv_rows(reports: list[BorelLevelReport]):
    """Rows of (level, substring bits, deviation, bound) for plotting."""
    for r in reports:
        for j, d in enumerate(r.deviations):
            yield r.level, format(j, f"0{r.level}b"), float(d), r.bound
