"""Seedable synthetic generators for fixtures and failure-mode regression.

All randomness comes from the Philox4x64 counter-based generator (numpy's
Philox bit generator keyed by the config seed); uniforms are derived from
the raw 64-bit output as (word >> 11) * 2**-53. Identical configs therefore
produce identical output bytes on every platform and numpy version.
"""

from __future__ import annotations

import bisect
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
_PIECE = 1 << 12  # half a detector run; the most events a walk lists before it cuts
# most expected arrivals a detector run may drop; at about 0.12 us each
# (2-core Intel Xeon, numpy 2.4) a run at the limit takes about 2.2 min
_MAX_DROPS = 1 << 30
_HANDOFF, _LONE, _VOID = 0, 1, 2  # what an after-pulse does; see _pulse_kinds


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
        if self.kind == DETECTOR:
            mean = self.mean_interarrival
            if not (math.isfinite(mean) and mean > 0):
                raise ValueError(f"mean_interarrival must be finite and positive, got {mean}")
            # each recorded event blinds its detector for dead_time, over which
            # about dead_time / (2 * mean) of its arrivals are drawn and dropped
            try:
                drops = self.n * self.dead_time / (2 * mean)
            except OverflowError:
                raise ValueError(f"n={self.n} is past the largest float") from None
            if drops > _MAX_DROPS:
                raise ValueError(
                    f"n={self.n} at dead_time={self.dead_time} and mean_interarrival={mean} "
                    f"drops about {drops:.3g} arrivals, more than the {_MAX_DROPS} allowed"
                )


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


def _arrivals(bg, clock: float, mean: float) -> tuple[np.ndarray, np.ndarray]:
    """A refill of the arrival stream: the times clock + cumsum(-mean *
    log1p(-u)) over _BATCH uniforms, computed in place, and the detectors, 1
    where the next _BATCH raw words are below 2**63, as their uniforms are below 1/2."""
    arrival_t = _raw_uniforms(bg, _BATCH)
    np.log1p(np.negative(arrival_t, out=arrival_t), out=arrival_t)
    arrival_t *= -mean
    np.cumsum(arrival_t, out=arrival_t)
    arrival_t += clock
    return arrival_t, (bg.random_raw(_BATCH) < np.uint64(1 << 63)).view(np.uint8)


def _kept_arrivals(
    arrival_t: np.ndarray, arrival_d: np.ndarray, last: list[float], tau: float
) -> np.ndarray:
    """Which arrivals of a refill the dead time keeps when no after-pulse
    comes between them, from the last recorded times given.

    An arrival tau or more after the one before it on its detector is kept,
    whatever happened to that one; the first of a run of closer arrivals is
    dropped, and the rest of the run is walked against the last kept time.
    The differences are the loop's own float subtractions."""
    keep = np.empty(arrival_t.size, dtype=bool)
    for det in (0, 1):
        idx = np.flatnonzero(arrival_d == det)
        t = arrival_t[idx]
        close = np.diff(t, prepend=last[det]) < tau
        chained = np.flatnonzero(close[1:] & close[:-1]) + 1
        kept = ~close
        times = memoryview(t)  # reads Python floats, not numpy scalars
        after = -1  # the chained arrival before, or -1
        for j in chained.tolist():
            if j != after + 1:  # arrival j - 1 opens the run: dropped, after a kept one
                last_kept = times[j - 2] if j >= 2 else last[det]
            if times[j] - last_kept >= tau:
                kept[j] = True
                last_kept = times[j]
            after = j
        keep[idx] = kept
    return keep


def _pulse_kinds(kept_t: np.ndarray, kept_d: np.ndarray, tau: float, delay: float) -> np.ndarray:
    """What an after-pulse injected by each kept arrival does, if it injects
    none itself: _VOID when the dead time drops it whatever comes between,
    since the loop's (t + delay) - t is below tau; _LONE when it is recorded
    right after its arrival and leaves every later choice of the dead time
    as it was, since it comes no later than the next kept arrival, and the
    next kept arrival on its detector comes tau or more after it; _HANDOFF
    otherwise, as after the last kept arrival on each detector."""
    pulse_t = kept_t + delay
    lone = np.zeros(kept_t.size, dtype=bool)
    lone[:-1] = pulse_t[:-1] <= kept_t[1:]
    for det in (0, 1):
        idx = np.flatnonzero(kept_d == det)
        lone[idx[-1:]] = False
        lone[idx[:-1]] &= kept_t[idx[1:]] - pulse_t[idx[:-1]] >= tau
    return np.where(pulse_t - kept_t < tau, _VOID, lone).astype(np.int8)


def _spawn_ranks(cfg: GeneratorConfig) -> Iterator[int]:
    """The ranks below n, in order, whose coin injects an after-pulse. The
    coins are drawn _BATCH at a time, none when afterpulse_prob is 0, and a
    batch's mask and ranks are held between ranks, not its uniforms."""
    if cfg.afterpulse_prob == 0:
        return
    coin_bg = np.random.Philox(key=cfg.seed + (1 << 64))
    for start in range(0, cfg.n, _BATCH):
        spawn = _raw_uniforms(coin_bg, min(_BATCH, cfg.n - start)) < cfg.afterpulse_prob
        yield from (start + np.flatnonzero(spawn)).tolist()


def _synced(i: int, arrival_t, arrival_d, keep, last: list[float], tau: float) -> bool:
    """Whether the next arrival on each detector, from arrival i on, is kept
    by the filter keep and by the dead time after last."""
    todo = 3
    for j in range(i, len(arrival_t)):
        d = arrival_d[j]
        if todo >> d & 1:
            if not keep[j] or arrival_t[j] - last[d] < tau:
                return False
            todo ^= 1 << d
            if not todo:
                break
    return True


def _ranges(starts: list[int], lengths: list[int], m: int) -> np.ndarray:
    """arange(s, s + l) for each (s, l) pair, concatenated, where a negative
    s stands for m + ~s."""
    starts, lengths = np.asarray(starts, np.int32), np.asarray(lengths, np.int32)
    starts = np.where(starts < 0, m + ~starts, starts)
    ends = np.cumsum(lengths, dtype=np.int32)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total, dtype=np.int32)


def _detector_runs(cfg: GeneratorConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The recorded events as runs of (float times, detector bits) arrays;
    every run but the last holds 2 * _PIECE events rounded down to whole
    bytes.

    Each arrival refill draws 2 * _BATCH Philox words: interarrivals from
    the first half, detector coins from the second; the clock carries over
    between refills. The coin of recorded event k is uniform k of a second
    Philox stream keyed seed + 2**64, so the arrival stream is unaffected;
    _spawn_ranks draws those coins as the events reach them and yields the
    injecting ranks, which walk and leap take one at a time.

    The events are those of a loop that takes the arrivals one at a time and
    merges them with a FIFO of pending after-pulses, which pops first on a
    tie, dropping an event within dead_time of the last recorded one on its
    detector. Python takes that loop's steps only where an after-pulse or a
    dead-time conflict can change the outcome. Per refill, numpy finds the
    arrivals the dead time keeps among arrivals alone (_kept_arrivals) and
    what an after-pulse of each would do (_pulse_kinds). From a point where
    nothing is pending and each detector's next arrival is kept, both by
    that filter and against the last recorded times (_synced), the events
    are the kept arrivals in order, so Python steps only from one injecting
    rank to the next: a void after-pulse is passed over, a lone one is
    listed after its arrival and shifts the later ranks by one, and any
    other, or a lone one whose own coin injects, is pushed and hands over
    to the one-event loop, which hands back at the first such point again.
    The events are listed as ranges of the kept arrivals and of the
    one-event loop's events, and gathered in numpy at the end of each
    refill, or sooner, once the one-event loop has listed _PIECE events.
    """
    n, tau, prob, delay = cfg.n, cfg.dead_time, cfg.afterpulse_prob, cfg.afterpulse_delay
    arrival_bg = np.random.Philox(key=cfg.seed)
    clock = 0.0
    last = [-math.inf, -math.inf]
    # (time, detector); recorded times never decrease, so neither do the
    # after-pulse times pushed, and a FIFO pops them in time order
    pending: deque[tuple[float, int]] = deque()
    recorded = 0
    spawns = _spawn_ranks(cfg)
    next_spawn = next(spawns, n)  # the next injecting rank, or n, never reached
    # the events listed and not yet gathered: ranges of positions in the
    # refill's kept arrivals, or of ~positions in the other events (of which
    # the first `covered` are in ranges), and the kept arrivals that an
    # after-pulse follows
    starts: list[int] = []
    lengths: list[int] = []
    other_t: list[float] = []
    other_d: list[int] = []
    covered = 0
    lone: list[int] = []
    run_size = max(2 * _PIECE & ~7, 8)
    held_t, held_d = np.empty(0), np.empty(0, dtype=np.uint8)  # gathered, not yet cut

    def walk(i: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The one-event loop from arrival i until nothing is pending and the
        filter is in sync, the refill ends, or event n; it lists the recorded
        events in other_t and other_d and returns the arrival that comes next."""
        nonlocal recorded, next_spawn
        # the loop's counters as locals, stored back when the walk ends
        rank, spawn = recorded, next_spawn
        queue, times, dets = pending, other_t, other_d
        while i < _BATCH and rank < n:
            if not queue and _synced(i, arrival_t, arrival_d, keep, last, tau):
                break
            ta, da = arrival_t[i], arrival_d[i]
            i += 1
            arrived = False
            while not arrived and rank < n:
                if len(times) >= _PIECE:  # a walk lists _PIECE events before it cuts
                    yield from cut(False)
                if queue and queue[0][0] <= ta:
                    t, det = queue.popleft()
                else:
                    t, det, arrived = ta, da, True
                if t - last[det] < tau:
                    continue
                last[det] = t
                times.append(t)
                dets.append(det)
                if rank == spawn:
                    queue.append((t + delay, det))
                    spawn = next(spawns, n)
                rank += 1
        recorded, next_spawn = rank, spawn
        return i

    def leap(i: int) -> int:
        """From arrival i, where the loop is synced, list the kept arrivals
        and their lone after-pulses, up to the refill's end, event n, or an
        injecting arrival whose after-pulse the one-event loop must take,
        which is pushed; return the arrival that comes next."""
        nonlocal recorded, next_spawn
        p = bisect.bisect_left(kept, i)
        shift = recorded - p  # kept arrival x has rank x + shift
        while True:
            rank, q = next_spawn, next_spawn - shift  # the next injecting event
            if q >= m or rank >= n:
                end = min(m, n - shift)
                break
            next_spawn = next(spawns, n)
            kind = kinds[q]
            if kind == _VOID:
                continue
            if kind != _LONE or rank + 1 == n or next_spawn == rank + 1:
                end = q + 1
                if rank + 1 < n:
                    pending.append((kept_t[q] + delay, kept_d[q]))
                break
            lone.append(q)
            shift += 1
        close_others()
        starts.append(p)
        lengths.append(end - p)
        recorded = end + shift
        # each detector's last kept arrival, walked back to; an after-pulse
        # after it may be later, but until the next kept arrival on its
        # detector, tau or more after the after-pulse, last decides alike
        todo = 3
        for x in range(end - 1, p - 1, -1):
            d = kept_d[x]
            if todo >> d & 1:
                last[d] = kept_t[x]
                todo ^= 1 << d
                if not todo:
                    break
        return kept[end - 1] + 1 if pending else _BATCH

    def close_others() -> None:
        """List the events of other_t not yet in a range as one range."""
        nonlocal covered
        if len(other_t) > covered:
            starts.append(~covered)
            lengths.append(len(other_t) - covered)
            covered = len(other_t)

    def cut(final: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Gather the listed events and yield the held ones in runs of
        run_size events, and with final, the rest."""
        nonlocal covered, held_t, held_d
        close_others()
        count = len(other_t)
        src_t = np.fromiter(other_t, np.float64, count)
        src_d = np.fromiter(other_d, np.uint8, count)
        pos = None  # with only other events listed, they are in order
        if max(starts, default=-1) >= 0:  # kept arrivals too: after them, the after-pulses
            pos = _ranges(starts, lengths, m + len(lone))
            if lone:  # each after the kept arrival that injects it
                at = np.flatnonzero(pos < m)
                at = at[pos[at].searchsorted(lone)] + 1
                pos = np.insert(pos, at, np.arange(m, m + len(lone), dtype=np.int32))
            src_t = np.concatenate((kept_t, np.take(kept_t, lone) + delay, src_t))
            src_d = np.concatenate((kept_d, np.take(kept_d, lone), src_d))
        del starts[:], lengths[:], other_t[:], other_d[:], lone[:]
        covered = 0
        h = held_t.size
        times = np.empty(h + (count if pos is None else pos.size))
        dets = np.empty(times.size, dtype=np.uint8)
        times[:h], dets[:h] = held_t, held_d
        times[h:], dets[h:] = (src_t, src_d) if pos is None else (src_t[pos], src_d[pos])
        del src_t, src_d, pos
        whole = times.size if final else times.size - times.size % run_size
        for a in range(0, whole, run_size):
            yield times[a : a + run_size], dets[a : a + run_size]
        held_t, held_d = times[whole:].copy(), dets[whole:].copy()

    while recorded < n:
        arrival_t, arrival_d = _arrivals(arrival_bg, clock, cfg.mean_interarrival)
        keep = _kept_arrivals(arrival_t, arrival_d, last, tau)
        kept = np.flatnonzero(keep).astype(np.int32)
        kept_t, kept_d = arrival_t[kept], arrival_d[kept]
        m = kept.size
        kinds = _pulse_kinds(kept_t, kept_d, tau, delay).tobytes() if prob > 0 else b""
        arrival_t, arrival_d, keep, kept, kept_t, kept_d = map(  # they read Python scalars
            memoryview, (arrival_t, arrival_d, keep, kept, kept_t, kept_d)
        )
        clock = arrival_t[-1]
        i = 0  # the next arrival; at 0 the filter, started from last, is in sync
        while i < _BATCH and recorded < n:
            i = (yield from walk(i)) if pending else leap(i)
        arrival_t = arrival_d = keep = kept = kinds = None  # freed before the gather
        yield from cut(recorded == n)


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
