"""Seedable synthetic generators for fixtures and failure-mode regression.

All randomness comes from the Philox4x64 counter-based generator (numpy's
Philox bit generator keyed by the config seed); uniforms are derived from
the raw 64-bit output as (word >> 11) * 2**-53. Identical configs therefore
produce identical output bytes on every platform and numpy version.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .bitstream import BitSequence
from .extract import TIMESTAMPS, TimeTagSeries

BERNOULLI = "bernoulli"
MARKOV = "markov"
DETECTOR = "detector"

_CHUNK = 1 << 22


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
        if self.kind == DETECTOR and not self.mean_interarrival > 0:
            raise ValueError("mean_interarrival must be positive")


def _bit_generator(seed: int) -> np.random.Philox:
    return np.random.Philox(key=seed)


def _raw_uniforms(bg, count: int) -> np.ndarray:
    raw = bg.random_raw(count)
    raw >>= np.uint64(11)
    return raw * 2.0 ** -53


class _UniformStream:
    """Lazy batched view of the Philox uniform stream."""

    def __init__(self, seed: int, batch: int = 1 << 16):
        self._bg = _bit_generator(seed)
        self._batch = batch
        self._buf = np.empty(0)
        self._pos = 0

    def take(self) -> float:
        if self._pos >= self._buf.size:
            self._buf = _raw_uniforms(self._bg, self._batch)
            self._pos = 0
        v = float(self._buf[self._pos])
        self._pos += 1
        return v


def _uniform_chunks(seed: int, n: int):
    """The first n Philox uniforms of the seed, _CHUNK at a time."""
    bg = _bit_generator(seed)
    for start in range(0, n, _CHUNK):
        yield _raw_uniforms(bg, min(_CHUNK, n - start))


def gen_bernoulli(cfg: GeneratorConfig) -> BitSequence:
    """n i.i.d. bits with P(1) = theta."""
    if cfg.kind != BERNOULLI:
        raise ValueError(f"config kind is {cfg.kind!r}, expected {BERNOULLI!r}")
    packed = [np.packbits(u < cfg.theta) for u in _uniform_chunks(cfg.seed, cfg.n)]
    # chunk size is a multiple of 8 bits, so packed chunks concatenate cleanly
    return BitSequence(b"".join(packed), cfg.n)


def gen_markov(cfg: GeneratorConfig) -> BitSequence:
    """First-order chain: first bit fair, then repeat the previous bit with
    probability stay_prob. stay_prob = 1/2 reduces to Bernoulli(1/2)."""
    if cfg.kind != MARKOV:
        raise ValueError(f"config kind is {cfg.kind!r}, expected {MARKOV!r}")
    packed = []
    prev = np.uint8(0)
    for u in _uniform_chunks(cfg.seed, cfg.n):
        flips = (u >= cfg.stay_prob).astype(np.uint8)
        if not packed:
            flips[0] = u[0] < 0.5  # the fair first bit, as a flip from 0
        bits = np.cumsum(flips, dtype=np.uint8)  # wraps mod 256, parity kept
        bits += prev
        bits &= 1
        prev = bits[-1]
        packed.append(np.packbits(bits))
    return BitSequence(b"".join(packed), cfg.n)


class _ArrivalSource:
    """Batched Poisson arrivals: (time, detector) pairs in time order."""

    def __init__(self, seed: int, mean: float, batch: int = 1 << 16):
        self._bg = _bit_generator(seed)
        self._mean = mean
        self._batch = batch
        self._times: list = []
        self._dets: list = []
        self._pos = 0
        self._t = 0.0

    def _refill(self):
        u = _raw_uniforms(self._bg, 2 * self._batch)
        dts = -self._mean * np.log1p(-u[: self._batch])
        times = self._t + np.cumsum(dts)  # the clock continues across batches
        self._t = float(times[-1])
        self._times = times.tolist()
        self._dets = (u[self._batch :] < 0.5).astype(np.uint8).tolist()
        self._pos = 0

    def next(self) -> tuple[float, int]:
        if self._pos >= len(self._times):
            self._refill()
        p = self._pos
        self._pos = p + 1
        return self._times[p], self._dets[p]


def gen_detector(cfg: GeneratorConfig) -> tuple[TimeTagSeries, BitSequence]:
    """Two-detector simulation with dead time and after-pulsing.

    Poisson arrivals (exponential interarrivals, given mean) are routed to
    one of two detectors by a fair coin. An arrival within dead_time of the
    previous recorded event on the same detector is dropped. After every
    recorded event, with probability afterpulse_prob a spurious event is
    injected on the same detector after afterpulse_delay (drawn from a
    second Philox stream keyed seed + 2**64, so the arrival stream is
    unaffected). Returns the merged recorded time tags (rounded to integer
    units) and the detector-identity bits, both of length n.
    """
    if cfg.kind != DETECTOR:
        raise ValueError(f"config kind is {cfg.kind!r}, expected {DETECTOR!r}")
    source = _ArrivalSource(cfg.seed, cfg.mean_interarrival)
    ap_stream = _UniformStream(cfg.seed + (1 << 64)) if cfg.afterpulse_prob > 0 else None
    times = np.empty(cfg.n, dtype=np.float64)
    bits = np.empty(cfg.n, dtype=np.uint8)
    recorded = 0
    last = [-math.inf, -math.inf]
    tau = cfg.dead_time
    if ap_stream is None:
        while recorded < cfg.n:
            t, det = source.next()
            if t - last[det] < tau:
                continue
            last[det] = t
            times[recorded] = t
            bits[recorded] = det
            recorded += 1
    else:
        # injected after-pulses interleave with arrivals; order via a heap
        pending: list[tuple[float, int, int]] = []
        order = 0
        t_next, d_next = source.next()
        while recorded < cfg.n:
            if pending and pending[0][0] <= t_next:
                t, _, det = heapq.heappop(pending)
            else:
                t, det = t_next, d_next
                t_next, d_next = source.next()
            if t - last[det] < tau:
                continue
            last[det] = t
            times[recorded] = t
            bits[recorded] = det
            recorded += 1
            if ap_stream.take() < cfg.afterpulse_prob:
                heapq.heappush(pending, (t + cfg.afterpulse_delay, order, det))
                order += 1
    tags = TimeTagSeries(np.rint(times).astype(np.int64), "unit", TIMESTAMPS)
    return tags, BitSequence(np.packbits(bits).tobytes(), cfg.n)


def generate(cfg: GeneratorConfig):
    if cfg.kind == BERNOULLI:
        return gen_bernoulli(cfg)
    if cfg.kind == MARKOV:
        return gen_markov(cfg)
    return gen_detector(cfg)
