"""Seedable synthetic generators for fixtures and failure-mode regression.

All randomness comes from the Philox4x64 counter-based generator (numpy's
Philox bit generator keyed by the config seed); uniforms are derived from
the raw 64-bit output as (word >> 11) * 2**-53. Identical configs therefore
produce identical output bytes on every platform and numpy version.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bitstream import BitSequence, concat
from .extract import TIMESTAMPS, TimeTagSeries

BERNOULLI = "bernoulli"
MARKOV = "markov"
DETECTOR = "detector"

_CHUNK = 1 << 22  # uniforms drawn at a time; a multiple of 8, so the packed chunks concatenate
_BATCH = 1 << 16  # uniforms per refill of the detector streams; fixes the output bytes
_PIECE = 1 << 12  # arrivals listed as Python floats at a time


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
        # Philox keys are below 2^128, and the detector's coins take seed + 2^64
        if not 0 <= self.seed < (1 << 128) - (1 << 64):
            raise ValueError(f"seed must be in [0, 2^128 - 2^64), got {self.seed}")
        for name in ("theta", "stay_prob", "afterpulse_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        # an infinite dead time would drop every later arrival and never return
        for name in ("dead_time", "afterpulse_delay"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        mean = self.mean_interarrival
        if self.kind == DETECTOR and not (math.isfinite(mean) and mean > 0):
            raise ValueError(f"mean_interarrival must be finite and positive, got {mean}")


def _raw_uniforms(bg, count: int) -> np.ndarray:
    raw = bg.random_raw(count)
    raw >>= np.uint64(11)
    return raw * 2.0 ** -53


def _uniform_chunks(seed: int, n: int):
    """The first n Philox uniforms of the seed, _CHUNK at a time."""
    bg = np.random.Philox(key=seed)
    for start in range(0, n, _CHUNK):
        yield _raw_uniforms(bg, min(_CHUNK, n - start))


def _expect(cfg: GeneratorConfig, kind: str) -> None:
    if cfg.kind != kind:
        raise ValueError(f"config kind is {cfg.kind!r}, expected {kind!r}")


def stream_bernoulli(cfg: GeneratorConfig) -> Iterator[BitSequence]:
    """gen_bernoulli's bits in packed chunks of _CHUNK bits (the last may be short)."""
    _expect(cfg, BERNOULLI)
    return (BitSequence.from_bits(u < cfg.theta) for u in _uniform_chunks(cfg.seed, cfg.n))


def gen_bernoulli(cfg: GeneratorConfig) -> BitSequence:
    """n i.i.d. bits with P(1) = theta."""
    return concat(stream_bernoulli(cfg))


def stream_markov(cfg: GeneratorConfig) -> Iterator[BitSequence]:
    """gen_markov's bits in packed chunks of _CHUNK bits (the last may be short)."""
    _expect(cfg, MARKOV)

    def chunks():
        prev = np.uint8(0)
        for k, u in enumerate(_uniform_chunks(cfg.seed, cfg.n)):
            flips = (u >= cfg.stay_prob).astype(np.uint8)
            if k == 0:
                flips[0] = u[0] < 0.5  # the fair first bit, as a flip from 0
            bits = np.cumsum(flips, dtype=np.uint8)  # wraps mod 256, parity kept
            bits += prev
            bits &= 1
            prev = bits[-1]
            yield BitSequence.from_bits(bits)

    return chunks()


def gen_markov(cfg: GeneratorConfig) -> BitSequence:
    """First-order chain: first bit fair, then repeat the previous bit with
    probability stay_prob. stay_prob = 1/2 reduces to Bernoulli(1/2)."""
    return concat(stream_markov(cfg))


def stream_detector(cfg: GeneratorConfig) -> Iterator[tuple[TimeTagSeries, BitSequence]]:
    """gen_detector's time tags and bits as (tags, bits) pieces of the same
    events, in order: one piece a run of _detector_runs, so at most
    2 * _PIECE events, and every piece but the last holds a multiple of 8
    events, so its bits are whole bytes."""
    _expect(cfg, DETECTOR)
    return (_piece(times, bits, cfg) for times, bits in _detector_runs(cfg))


def _piece(
    times: np.ndarray, bits: np.ndarray, cfg: GeneratorConfig
) -> tuple[TimeTagSeries, BitSequence]:
    """A run of recorded events, its times rounded to integer units."""
    times = np.rint(times)
    if times[-1] >= 2.0**63:  # times never decrease; past 2^63 no int64 holds them
        raise ValueError(f"n={cfg.n} events at mean_interarrival={cfg.mean_interarrival} pass 2^63")
    return TimeTagSeries(times.astype(np.int64), "unit", TIMESTAMPS), BitSequence.from_bits(bits)


def _detector_runs(cfg: GeneratorConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The recorded events as runs of (float times, detector bits) arrays;
    every run but the last holds a multiple of 8 events, at most 2 * _PIECE.

    Each arrival refill draws 2 * _BATCH Philox uniforms: interarrivals from
    the first half, detector coins from the second; the clock carries over
    between refills. The coin of recorded event k is uniform k of a second
    Philox stream keyed seed + 2**64, so the arrival stream is unaffected.
    Those coins are drawn _BATCH at a time, as the count of recorded events
    reaches them, and only when afterpulse_prob > 0; each refill becomes
    the ranks of the events that inject an after-pulse. One loop walks the
    arrivals as Python floats, _PIECE at a time, and merges them with a FIFO
    of pending after-pulses, which pops first on a tie and stays empty
    without after-pulsing. The recorded events are listed, and cut into a
    run once at least _PIECE are listed: at the end of a walk of _PIECE
    arrivals, or sooner, when a run of after-pulses pops the next one.
    """
    n, tau, prob, delay = cfg.n, cfg.dead_time, cfg.afterpulse_prob, cfg.afterpulse_delay
    arrival_bg = np.random.Philox(key=cfg.seed)
    coin_bg = np.random.Philox(key=cfg.seed + (1 << 64))
    clock, offset = 0.0, _BATCH  # offset: where the next walk starts in the refill
    last = [-math.inf, -math.inf]
    # (time, detector); recorded times never decrease, so neither do the
    # after-pulse times pushed, and a FIFO pops them in time order
    pending: deque[tuple[float, int]] = deque()
    recorded = 0
    # next_spawn is the rank of the next event that injects an after-pulse,
    # or coin_end when no drawn coin is left; -1 never matches
    coin_end, next_spawn = 0, (0 if prob > 0 else -1)
    listed_t: list[float] = []  # recorded events not yet cut into a run
    listed_d: list[int] = []

    def cut(count: int) -> tuple[np.ndarray, np.ndarray]:
        run = np.fromiter(listed_t, np.float64, count), np.fromiter(listed_d, np.uint8, count)
        del listed_t[:count], listed_d[:count]
        return run

    while recorded < n:
        if offset >= _BATCH:
            u = _raw_uniforms(arrival_bg, 2 * _BATCH)
            arrival_t = clock + np.cumsum(-cfg.mean_interarrival * np.log1p(-u[:_BATCH]))
            clock = float(arrival_t[-1])
            arrival_d = (u[_BATCH:] < 0.5).view(np.uint8)
            offset = 0
        walk = slice(offset, offset + _PIECE)
        offset += _PIECE
        for ta, da in zip(arrival_t[walk].tolist(), arrival_d[walk].tolist()):
            arrived = False
            while not arrived and recorded < n:
                if pending and pending[0][0] <= ta:
                    t, det = pending.popleft()
                    # a run of after-pulses lists _PIECE events before the walk ends
                    if len(listed_t) >= _PIECE and (whole := len(listed_t) & ~7):
                        yield cut(whole)
                else:
                    t, det, arrived = ta, da, True
                if t - last[det] < tau:
                    continue
                last[det] = t
                listed_t.append(t)
                listed_d.append(det)
                if recorded == next_spawn:
                    if recorded == coin_end:
                        coins = _raw_uniforms(coin_bg, _BATCH)
                        spawns = iter((coin_end + np.flatnonzero(coins < prob)).tolist())
                        coin_end += _BATCH
                        next_spawn = next(spawns, coin_end)
                    if recorded == next_spawn:
                        pending.append((t + delay, det))
                        next_spawn = next(spawns, coin_end)
                recorded += 1
        if len(listed_t) >= _PIECE and (whole := len(listed_t) & ~7):
            yield cut(whole)
    if listed_t:
        yield cut(len(listed_t))


def gen_detector(cfg: GeneratorConfig) -> tuple[TimeTagSeries, BitSequence]:
    """Two-detector simulation with dead time and after-pulsing.

    Poisson arrivals (exponential interarrivals, given mean) are routed to
    one of two detectors by a fair coin. An arrival within dead_time of the
    previous recorded event on the same detector is dropped. After every
    recorded event, with probability afterpulse_prob a spurious event is
    injected on the same detector after afterpulse_delay. Returns the merged
    recorded time tags (rounded to integer units) and the detector-identity
    bits, both of length n, drained from stream_detector.
    """
    stream = stream_detector(cfg)
    stamps = np.empty(cfg.n, dtype=np.int64)
    pieces = []
    end = 0
    for tags, bits in stream:
        stamps[end : end + len(tags)] = tags.values
        end += len(tags)
        pieces.append(bits)
    return TimeTagSeries(stamps, "unit", TIMESTAMPS), concat(pieces)
