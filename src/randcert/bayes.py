"""Bayesian model selection over partition-induced generative models.

Each partition of the 2^i substrings defines a model in which all
substrings of a block share probability mass, with a Jeffreys (Dirichlet
with all concentrations 1/2) prior on the block-mass simplex. The marginal
likelihood integrates out the block masses in closed form; posteriors over
a model set follow from Bayes' rule with a flat model prior. The coupled
frequency bound gives a cheap per-level pass/fail when full enumeration is
out of reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitstream import BitSequence
from .blockstats import BlockCounts, level_counts
from .borel import FLOAT_INT_END, borel_deviations
from .errors import NumericError
from .partitions import PartitionModel
from .specialfn import log_gamma, polygamma1, stirling_tail

_LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
_LG_HALF = log_gamma(0.5)

BOUND_MAX_LEVEL = 8
BOUND_MAX_N = math.isqrt(FLOAT_INT_END - 1)  # the largest n whose n * n converts to a float


def log_marginal_blocks(m: Sequence[float], s: Sequence[float], total: float) -> float:
    """ln P(data | model) from per-block count sums m_k and block sizes s_k.

    Accepts non-integer m_k so structural identities can be checked at
    exactly symmetric (fractional) occupation.
    """
    k = len(m)
    if len(s) != k:
        raise ValueError("block counts and sizes differ in length")
    out = log_gamma(0.5 * k) - k * _LG_HALF - log_gamma(total + 0.5 * k)
    for mk, sk in zip(m, s):
        out += log_gamma(mk + 0.5) - mk * math.log(sk)
    return out


def log_marginal(counts: BlockCounts, model: PartitionModel) -> float:
    """ln P(data | model), exact, in nats."""
    if model.level != counts.level:
        raise ValueError(
            f"model level {model.level} does not match counts level {counts.level}"
        )
    m = np.bincount(model.rgs, weights=counts.counts, minlength=model.num_blocks)
    return log_marginal_blocks(m.tolist(), list(model.block_sizes), float(counts.total))


@dataclass(frozen=True)
class PosteriorTable:
    level: int
    models: list
    log_marginals: np.ndarray  # nats
    posteriors: np.ndarray
    best_index: int
    symmetric_posterior: float | None  # posterior of the one-block model, if present

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "models": [m.rgs_string() for m in self.models],
            "log_marginals": [float(v) for v in self.log_marginals],
            "posteriors": [float(p) for p in self.posteriors],
            "best_index": self.best_index,
            "best_model": self.models[self.best_index].rgs_string(),
            "symmetric_posterior": self.symmetric_posterior,
        }


def posterior(counts: BlockCounts, models: Sequence[PartitionModel]) -> PosteriorTable:
    """Normalized posteriors over the supplied models under a flat prior."""
    if not models:
        raise ValueError("model list must be non-empty")
    log_m = np.array([log_marginal(counts, mod) for mod in models])
    shifted = log_m - log_m.max()
    weights = np.exp(shifted)
    post = weights / math.fsum(weights)
    best = int(np.argmax(post))  # ties resolve to the lowest index
    sym = None
    for idx, mod in enumerate(models):
        if mod.is_symmetric:
            sym = float(post[idx])
            break
    return PosteriorTable(counts.level, list(models), log_m, post, best, sym)


@dataclass(frozen=True)
class BayesBoundReport:
    level: int
    lhs: float
    rhs: float
    passes: bool

    def to_json_dict(self) -> dict:
        return {"i": self.level, "lhs": self.lhs, "rhs": self.rhs, "passes": self.passes}


def bayes_bound_rhs(n: int, i: int) -> float:
    """Right side of the coupled frequency bound at level i for n bits."""
    if not 1 <= i <= BOUND_MAX_LEVEL:
        raise ValueError(f"level must be in [1, {BOUND_MAX_LEVEL}], got {i}")
    two_i = 1 << i
    if n < i * two_i:
        raise ValueError(
            f"bound needs n >= i * 2^i = {i * two_i} so every substring is "
            f"expected at least once, got n={n}"
        )
    if n > BOUND_MAX_N:
        raise ValueError(
            f"bound needs n <= {BOUND_MAX_N} (just under 2^512) so that n * n "
            f"converts to a float, got n={n}"
        )
    x = 0.5 + n / (i * two_i)
    half = 1 << (i - 1)  # 1 / 2^(1-i)
    # -n ln 2 + 2^i lnG(1/2) + lnG(2^i x) - lnG(2^(i-1)) - 2^i lnG(x), with
    # lnG(2^i x) - 2^i lnG(x) by Stirling's formula: its n ln 2 cancels exactly
    ln_arg = (
        i * (half - 0.5) * _LN2
        + 0.5 * (two_i - 1) * (math.log(x) - _LN_2PI)
        + two_i * _LG_HALF
        - log_gamma(half)
        + stirling_tail(two_i * x)
        - two_i * stirling_tail(x)
    )
    radicand = i * i / (n * n * polygamma1(x)) * ln_arg
    if not math.isfinite(radicand) or radicand <= 0:  # positive by construction
        raise NumericError(f"non-finite or non-positive radicand {radicand} at n={n}, i={i}")
    return math.sqrt(radicand)


def bayes_bound_lhs(counts: BlockCounts) -> float:
    """Left side: sqrt of the coupled sum of deviation products over
    substrings 1..2^i-1 (substring 0 excluded by the summation limits)."""
    d = borel_deviations(counts)[1:]
    s = float(d.sum())
    q = float((d * d).sum())
    return math.sqrt(0.5 * (s * s + q))


def bayes_bound_test(
    seq: BitSequence | int,
    levels: int | None = None,
    *,
    counts: list[BlockCounts] | None = None,
) -> list[BayesBoundReport]:
    """Coupled frequency bound at levels 1..levels (default i_max).
    counts, a level_counts(seq, levels) result, saves counting again; with
    counts, seq may be just the bit count n."""
    if counts is None:
        counts = level_counts(seq, levels)
    n = seq if isinstance(seq, int) else seq.n
    reports = []
    for c in counts:
        lhs = bayes_bound_lhs(c)
        rhs = bayes_bound_rhs(n, c.level)
        reports.append(BayesBoundReport(c.level, lhs, rhs, lhs < rhs))
    return reports

