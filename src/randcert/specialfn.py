"""Log-gamma, its Stirling tail and trigamma for the coupled frequency bound.

The bound's gamma arguments reach ~1e9, so everything is computed in log
space via the Stirling asymptotic series, with upward recurrence to move
small arguments into the asymptotic regime.
"""

from __future__ import annotations

import math

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# B_{2k} / (2k (2k-1)) for k = 1..7
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2k} for k = 1..7
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_LG_ASYMPTOTIC_MIN = 13.0
_PG_ASYMPTOTIC_MIN = 10.0


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    shift = 0.0
    while x < _LG_ASYMPTOTIC_MIN:
        shift -= math.log(x)
        x += 1.0
    return shift + (x - 0.5) * math.log(x) - x + _HALF_LN_2PI + stirling_tail(x)


def stirling_tail(z: float) -> float:
    """T(z) = ln Gamma(z) - [(z - 1/2) ln z - z + ln(2 pi) / 2] for z > 0, about
    1 / (12 z): the asymptotic series from 13 up, log_gamma less the rest below."""
    if z < _LG_ASYMPTOTIC_MIN:
        return log_gamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LN_2PI)
    inv2 = 1.0 / (z * z)
    series = 0.0
    term = 1.0 / z
    for c in _STIRLING:
        series += c * term
        term *= inv2
    return series


def polygamma1(x: float) -> float:
    """Trigamma psi_1(x) for x > 0, via recurrence into the asymptotic series."""
    if not x > 0:
        raise ValueError(f"polygamma1 requires x > 0, got {x}")
    acc = 0.0
    while x < _PG_ASYMPTOTIC_MIN:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv + 0.5 * inv2
    term = inv * inv2
    for b in _BERNOULLI:
        series += b * term
        term *= inv2
    return acc + series
