"""Seedable synthetic generators for fixtures and failure-mode regression.

All randomness comes from the Philox4x64 counter-based generator (numpy's
Philox bit generator keyed by the config seed); uniforms are derived from
the raw 64-bit output as (word >> 11) * 2**-53. Identical configs therefore
produce identical output bytes on every platform and numpy version.
"""

from __future__ import annotations

import io
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bitstream import BitSequence
from .extract import TIMESTAMPS, TimeTagSeries

BERNOULLI = "bernoulli"
MARKOV = "markov"
DETECTOR = "detector"

# Uniforms drawn at a time; a multiple of 8, so the packed chunks written to
# one buffer concatenate cleanly, and getvalue() hands that buffer over
# without a copy.
_CHUNK = 1 << 22
_BATCH = 1 << 16  # uniforms per refill of the detector streams


@dataclass(frozen=True)
class GeneratorConfig:
    kind: str
    n: int
    seed: int
    theta: float = 0.5  # P(bit = 1), bernoulli
    stay_prob: float = 0.5  # P(bit_k = bit_{k-1}), markov
    mean_interarrival: float = 1000.0  # detector, in time units
    dead_time: float = 0.0  # detector blind interval after a recorded event
    afterpulse_prob: float = 0.0  # chance of an injected same-detector event
    afterpulse_delay: float = 10.0  # fixed delay of the injected event

    def __post_init__(self):
        if self.kind not in (BERNOULLI, MARKOV, DETECTOR):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 0:
            raise ValueError("output length must be non-negative")
        for name in ("theta", "stay_prob", "afterpulse_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.dead_time < 0:
            raise ValueError("dead_time must be non-negative")
        if self.afterpulse_delay < 0:
            raise ValueError("afterpulse_delay must be non-negative")
        if self.kind == DETECTOR and not self.mean_interarrival > 0:
            raise ValueError("mean_interarrival must be positive")


def _raw_uniforms(bg, count: int) -> np.ndarray:
    raw = bg.random_raw(count)
    raw >>= np.uint64(11)
    return raw * 2.0 ** -53


def _uniform_chunks(seed: int, n: int):
    """The first n Philox uniforms of the seed, _CHUNK at a time."""
    bg = np.random.Philox(key=seed)
    for start in range(0, n, _CHUNK):
        yield _raw_uniforms(bg, min(_CHUNK, n - start))


def gen_bernoulli(cfg: GeneratorConfig) -> BitSequence:
    """n i.i.d. bits with P(1) = theta."""
    if cfg.kind != BERNOULLI:
        raise ValueError(f"config kind is {cfg.kind!r}, expected {BERNOULLI!r}")
    out = io.BytesIO()
    for u in _uniform_chunks(cfg.seed, cfg.n):
        out.write(np.packbits(u < cfg.theta))
    return BitSequence(out.getvalue(), cfg.n)


def gen_markov(cfg: GeneratorConfig) -> BitSequence:
    """First-order chain: first bit fair, then repeat the previous bit with
    probability stay_prob. stay_prob = 1/2 reduces to Bernoulli(1/2)."""
    if cfg.kind != MARKOV:
        raise ValueError(f"config kind is {cfg.kind!r}, expected {MARKOV!r}")
    out = io.BytesIO()
    prev = np.uint8(0)
    for k, u in enumerate(_uniform_chunks(cfg.seed, cfg.n)):
        flips = (u >= cfg.stay_prob).astype(np.uint8)
        if k == 0:
            flips[0] = u[0] < 0.5  # the fair first bit, as a flip from 0
        bits = np.cumsum(flips, dtype=np.uint8)  # wraps mod 256, parity kept
        bits += prev
        bits &= 1
        prev = bits[-1]
        out.write(np.packbits(bits))
    return BitSequence(out.getvalue(), cfg.n)


def _uniforms(seed: int):
    """The Philox uniform stream of the seed, one float at a time."""
    bg = np.random.Philox(key=seed)
    while True:
        yield from _raw_uniforms(bg, _BATCH).tolist()


def _arrivals(seed: int, mean: float):
    """Poisson arrivals as (time, detector) pairs in time order. Each refill
    draws 2 * _BATCH uniforms: interarrivals from the first half, detector
    coins from the second."""
    bg = np.random.Philox(key=seed)
    t = 0.0
    while True:
        u = _raw_uniforms(bg, 2 * _BATCH)
        times = t + np.cumsum(-mean * np.log1p(-u[:_BATCH]))
        t = float(times[-1])  # the clock continues across refills
        yield from zip(times.tolist(), (u[_BATCH:] < 0.5).astype(np.uint8).tolist())


def gen_detector(cfg: GeneratorConfig) -> tuple[TimeTagSeries, BitSequence]:
    """Two-detector simulation with dead time and after-pulsing.

    Poisson arrivals (exponential interarrivals, given mean) are routed to
    one of two detectors by a fair coin. An arrival within dead_time of the
    previous recorded event on the same detector is dropped. After every
    recorded event, with probability afterpulse_prob a spurious event is
    injected on the same detector after afterpulse_delay (the coin comes
    from a second Philox stream keyed seed + 2**64, so the arrival stream
    is unaffected, and is drawn only when afterpulse_prob > 0). One loop
    merges the arrivals with a queue of pending after-pulses, which stays
    empty without after-pulsing. Returns the merged recorded time tags
    (rounded to integer units) and the detector-identity bits, both of
    length n.
    """
    if cfg.kind != DETECTOR:
        raise ValueError(f"config kind is {cfg.kind!r}, expected {DETECTOR!r}")
    arrivals = _arrivals(cfg.seed, cfg.mean_interarrival)
    coins = _uniforms(cfg.seed + (1 << 64))
    times = np.empty(cfg.n, dtype=np.float64)
    bits = np.empty(cfg.n, dtype=np.uint8)
    recorded = 0
    last = [-math.inf, -math.inf]
    tau, prob = cfg.dead_time, cfg.afterpulse_prob
    # (time, detector); recorded times never decrease, so neither do the
    # after-pulse times pushed, and a FIFO pops them in time order
    pending: deque[tuple[float, int]] = deque()
    t_next, d_next = next(arrivals)
    while recorded < cfg.n:
        if pending and pending[0][0] <= t_next:
            t, det = pending.popleft()
        else:
            t, det = t_next, d_next
            t_next, d_next = next(arrivals)
        if t - last[det] < tau:
            continue
        last[det] = t
        times[recorded] = t
        bits[recorded] = det
        recorded += 1
        if prob > 0 and next(coins) < prob:
            pending.append((t + cfg.afterpulse_delay, det))
    tags = TimeTagSeries(np.rint(times).astype(np.int64), "unit", TIMESTAMPS)
    return tags, BitSequence(np.packbits(bits).tobytes(), cfg.n)


def generate(cfg: GeneratorConfig):
    if cfg.kind == BERNOULLI:
        return gen_bernoulli(cfg)
    if cfg.kind == MARKOV:
        return gen_markov(cfg)
    return gen_detector(cfg)
