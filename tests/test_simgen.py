import hashlib
import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcert import simgen
from randcert.blockstats import count_blocks
from randcert.bitstream import BitSequence
from randcert.borel import borel_deviations, borel_test, evaluate_level
from randcert.extract import TIMESTAMPS, TimeTagSeries
from randcert.simgen import GeneratorConfig, gen_bernoulli, gen_detector, gen_markov

# pinned at build time from the Philox-based generator (seed 42, n = 2^20)
BERNOULLI_FIXTURE_POPCOUNT = 524_388
BERNOULLI_FIXTURE_SHA256 = "4d4dc13b5b1550e9805bac6de0a0df205635947927c6757b3f01ac7c4def381a"


class TestConfig:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            GeneratorConfig("bernoulli", n=8, seed=0, theta=1.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            GeneratorConfig("laplace", n=8, seed=0)

    def test_rejects_negative_dead_time(self):
        with pytest.raises(ValueError):
            GeneratorConfig("detector", n=8, seed=0, dead_time=-1.0)

    def test_rejects_negative_afterpulse_delay(self):
        with pytest.raises(ValueError, match="afterpulse_delay"):
            GeneratorConfig("detector", n=8, seed=0, afterpulse_prob=0.5, afterpulse_delay=-5.0)
        GeneratorConfig("detector", n=8, seed=0, afterpulse_prob=0.5, afterpulse_delay=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["mean_interarrival", "dead_time", "afterpulse_delay"])
    def test_rejects_non_finite_detector_parameter(self, field, value):
        # an infinite dead time used to hang gen_detector; nan switched a defect off
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            GeneratorConfig("detector", n=10, seed=1, afterpulse_prob=0.5, **{field: value})

    def test_dead_time_work_bound(self):
        """n * dead_time / (2 * mean_interarrival), the expected arrivals the
        dead time drops, may reach _MAX_DROPS and not pass it; no config is run."""
        limit = simgen._MAX_DROPS
        GeneratorConfig("detector", limit, 0, mean_interarrival=1.0, dead_time=2.0)
        with pytest.raises(ValueError, match=f"^n={limit + 1} at dead_time=2.0 and mean_interarrival=1.0 "):
            GeneratorConfig("detector", limit + 1, 0, mean_interarrival=1.0, dead_time=2.0)
        with pytest.raises(ValueError, match="^n=1{400} is past the largest float$"):
            GeneratorConfig("detector", int("1" * 400), 0)
        # the benchmark's defects at the paper's scale; the bound is the detector's alone
        GeneratorConfig("detector", 2**32 + 1, 7, dead_time=50.0, afterpulse_prob=0.05, afterpulse_delay=75.0)
        GeneratorConfig("bernoulli", limit + 1, 0, mean_interarrival=1.0, dead_time=2.0)

    def test_kind_checked_by_generators(self):
        cfg = GeneratorConfig("bernoulli", n=8, seed=0)
        with pytest.raises(ValueError):
            gen_markov(cfg)


class TestBernoulli:
    def test_theta_one(self):
        seq = gen_bernoulli(GeneratorConfig("bernoulli", n=8, seed=1, theta=1.0))
        assert seq.to_bit_array().tolist() == [1] * 8

    def test_theta_zero(self):
        seq = gen_bernoulli(GeneratorConfig("bernoulli", n=8, seed=1, theta=0.0))
        assert seq.to_bit_array().tolist() == [0] * 8

    def test_pinned_fixture(self):
        seq = gen_bernoulli(GeneratorConfig("bernoulli", n=2**20, seed=42))
        assert int(seq.to_bit_array().sum()) == BERNOULLI_FIXTURE_POPCOUNT
        assert hashlib.sha256(seq.data).hexdigest() == BERNOULLI_FIXTURE_SHA256

    def test_deterministic(self):
        cfg = GeneratorConfig("bernoulli", n=10_000, seed=77, theta=0.3)
        assert gen_bernoulli(cfg).data == gen_bernoulli(cfg).data

    def test_chunking_is_invisible(self, monkeypatch):
        cfg = GeneratorConfig("bernoulli", n=100_000, seed=5)
        whole = gen_bernoulli(cfg)
        monkeypatch.setattr(simgen, "_CHUNK", 1 << 12)
        assert gen_bernoulli(cfg) == whole


@pytest.mark.parametrize(
    "kind, gen", [("bernoulli", gen_bernoulli), ("markov", gen_markov)], ids=["bernoulli", "markov"]
)
def test_bit_generators_hold_one_copy_of_their_output(monkeypatch, kind, gen):
    """Packed chunks go to one buffer, not to a list joined at the end."""
    monkeypatch.setattr(simgen, "_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        seq = gen(GeneratorConfig(kind, n=1 << 26, seed=4, stay_prob=0.6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(seq.data)


class TestMarkov:
    def test_stay_one_is_constant(self):
        seq = gen_markov(GeneratorConfig("markov", n=8, seed=3, stay_prob=1.0))
        bits = seq.to_bit_array()
        assert (bits == bits[0]).all()

    def test_stay_zero_alternates(self):
        seq = gen_markov(GeneratorConfig("markov", n=8, seed=3, stay_prob=0.0))
        bits = seq.to_bit_array()
        assert (np.diff(bits.astype(int)) != 0).all()

    def test_deterministic(self):
        cfg = GeneratorConfig("markov", n=9999, seed=123, stay_prob=0.7)
        assert gen_markov(cfg).data == gen_markov(cfg).data

    def test_pinned_digest_across_chunks(self):
        # pinned from the unchunked generator; n spans three chunks and a partial byte
        seq = gen_markov(GeneratorConfig("markov", 2**23 + 13, 3, stay_prob=0.52))
        assert hashlib.sha256(seq.data).hexdigest() == (
            "184696c87ee0b93d99e0fff6f9ff6fe956947d3010323df70ad912dd755db2d1"
        )

    @pytest.mark.parametrize("n", [1, 8, 9, 63, 64, 1000])
    def test_chunk_size_does_not_change_output(self, monkeypatch, n):
        cfg = GeneratorConfig("markov", n=n, seed=9, stay_prob=0.3)
        whole = gen_markov(cfg)
        monkeypatch.setattr(simgen, "_CHUNK", 8)
        assert gen_markov(cfg) == whole

    def test_stay_excess_fails_borel_level_two(self):
        cfg = GeneratorConfig("markov", n=2**24, seed=7, stay_prob=0.51)
        seq = gen_markov(cfg)
        rep = evaluate_level(count_blocks(seq, 2), seq.n)
        assert not rep.passes
        d = rep.deviations
        assert d[0b00] > 0 and d[0b11] > 0 and d[0b01] < 0 and d[0b10] < 0
        # stationary excess is (q - 1/2)/2 = 5e-3
        assert abs(d[0b00]) == pytest.approx(5e-3, abs=1.5e-3)

    def test_fair_chain_passes_like_bernoulli(self):
        n = 2**20
        markov = gen_markov(GeneratorConfig("markov", n=n, seed=21, stay_prob=0.5))
        bern = gen_bernoulli(GeneratorConfig("bernoulli", n=n, seed=21))
        for seq in (markov, bern):
            reports = borel_test(seq, 2)
            assert all(r.passes for r in reports)


BENCH_DEFECTS = dict(dead_time=50.0, afterpulse_prob=0.05, afterpulse_delay=75.0)


class TestDetector:
    # sha256 of tags.values.tobytes() + bits.data at seed 8, pinned from the
    # generator with separate loops for and without after-pulsing; n = 70,000
    # crosses a 2^16 refill of both Philox streams
    @pytest.mark.parametrize(
        "n, defects, digest",
        [
            (0, {}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (1, BENCH_DEFECTS, "7d41fc6495a7b60fa1ebe5318efe4878f37e75e2b26d3b67b2264a7e7a5d54e4"),
            (70_000, {}, "7f22cb0ebaa6177e171dc24c3b15f30d7a305002497b2c9b6653642d97202ede"),
            (
                70_000,
                BENCH_DEFECTS,
                "6a6a70a3412286912d025474bd8c11f56c74c1dca261c915e2794c18a2af1c92",
            ),
            (
                5000,
                dict(afterpulse_prob=1.0, afterpulse_delay=0.0),
                "b7bcde1683293de393a9e027907c65708973c236cc9ddec4458cff23311dd54b",
            ),
        ],
    )
    def test_pinned_digest(self, n, defects, digest):
        tags, bits = gen_detector(GeneratorConfig("detector", n=n, seed=8, **defects))
        assert hashlib.sha256(tags.values.tobytes() + bits.data).hexdigest() == digest

    def test_benchmark_stream_pinned(self):
        """The stream of the timetags-detector-2e20 benchmark workload: 2^20 + 1
        tags at seed 7 with its defects, pinned from the all-Python event loop."""
        tags, bits = gen_detector(GeneratorConfig("detector", (1 << 20) + 1, 7, **BENCH_DEFECTS))
        assert hashlib.sha256(tags.values.tobytes() + bits.data).hexdigest() == (
            "3c42e2e66d28a05e0736fe7fb4b4ba887fe2ec0b04957f6e5f01c3a76477a99f"
        )

    def test_defect_free_marginal_is_fair(self):
        n = 2**20
        _, bits = gen_detector(GeneratorConfig("detector", n=n, seed=3))
        d = borel_deviations(count_blocks(bits, 1))
        stderr = 0.5 / np.sqrt(n)
        assert abs(d[1]) < 4 * stderr

    def test_deterministic(self):
        cfg = GeneratorConfig("detector", n=5000, seed=8, dead_time=500.0, afterpulse_prob=0.02)
        t1, b1 = gen_detector(cfg)
        t2, b2 = gen_detector(cfg)
        assert b1 == b2
        assert t1.values.tolist() == t2.values.tolist()

    def test_timestamps_are_monotone(self):
        tags, _ = gen_detector(GeneratorConfig("detector", n=2000, seed=4, afterpulse_prob=0.1))
        assert (np.diff(tags.values) >= 0).all()

    def test_afterpulsing_over_represents_repeats(self):
        cfg = GeneratorConfig("detector", n=2**22, seed=3, afterpulse_prob=0.05)
        _, bits = gen_detector(cfg)
        rep = evaluate_level(count_blocks(bits, 2), bits.n)
        assert not rep.passes
        assert rep.deviations[0b00] > 0 and rep.deviations[0b11] > 0

    def test_dead_time_over_represents_alternation(self):
        cfg = GeneratorConfig("detector", n=2**22, seed=3, dead_time=10_000.0)
        _, bits = gen_detector(cfg)
        rep = evaluate_level(count_blocks(bits, 2), bits.n)
        assert not rep.passes
        assert rep.deviations[0b01] > 0 and rep.deviations[0b10] > 0


@pytest.mark.parametrize(
    "defects",
    [BENCH_DEFECTS, dict(BENCH_DEFECTS, afterpulse_prob=1.0)],
    ids=["bench", "always-afterpulse"],
)
def test_detector_memory_per_event(defects):
    """The int64 tags, their diff check and the packed bits take about 17
    bytes an event, and the peak reads 18. Keeping the float times alive beside them
    reads 28, listing every event as Python floats until the end reads 54,
    and drawing all n after-pulse ranks up front reads 57 at
    afterpulse_prob = 1."""
    n = 1 << 20
    tracemalloc.start()
    try:
        gen_detector(GeneratorConfig("detector", n=n, seed=7, **defects))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n


@pytest.mark.parametrize("delay", [0.0, 75.0])
def test_after_pulse_runs_are_copied_out_early(delay):
    """At afterpulse_prob = 1 one arrival starts an endless run of after-pulses
    (with delay 0, all n events come from the first arrival); a walk cuts
    once it has listed _PIECE events, the pieces yielded stay within
    2 * _PIECE, and every run and piece but the last holds whole bytes of bits."""
    n = 1 << 17
    cfg = GeneratorConfig("detector", n, 3, afterpulse_prob=1.0, afterpulse_delay=delay)
    runs = [times.size for times, _ in simgen._detector_runs(cfg)]
    pieces = [len(tags) for tags, _ in simgen.stream_detector(cfg)]
    assert sum(runs) == sum(pieces) == n
    assert max(runs) <= 2 * simgen._PIECE and max(pieces) <= 2 * simgen._PIECE
    assert all(size % 8 == 0 for size in runs[:-1] + pieces[:-1])


def _uniforms(seed: int):
    """The Philox uniform stream of the seed, one float at a time."""
    bg = np.random.Philox(key=seed)
    while True:
        yield from simgen._raw_uniforms(bg, simgen._BATCH).tolist()


def _arrivals(seed: int, mean: float):
    """Poisson arrivals as (time, detector) pairs in time order. Each refill
    draws 2 * _BATCH uniforms: interarrivals from the first half, detector
    coins from the second."""
    bg = np.random.Philox(key=seed)
    t = 0.0
    batch = simgen._BATCH
    while True:
        u = simgen._raw_uniforms(bg, 2 * batch)
        times = t + np.cumsum(-mean * np.log1p(-u[:batch]))
        t = float(times[-1])  # the clock continues across refills
        yield from zip(times.tolist(), (u[batch:] < 0.5).astype(np.uint8).tolist())


def _reference_detector(cfg: GeneratorConfig) -> tuple[TimeTagSeries, BitSequence]:
    """gen_detector as it was before its flat loop: one event at a time,
    pulled from the generators above. The oracle for the flat loop; both
    read the refill size from simgen._BATCH."""
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


def _output(tags: TimeTagSeries, bits: BitSequence) -> bytes:
    return tags.values.tobytes() + bits.data


def test_after_pulse_pops_before_a_tied_arrival():
    # the after-pulse of event 0 lands exactly on arrival 1, on the other detector
    for seed in range(100):
        arrivals = _arrivals(seed, 1000.0)
        (a0, d0), (a1, d1) = next(arrivals), next(arrivals)
        delay = a1 - a0
        if a0 + delay == a1 and d0 != d1:
            break
    else:
        pytest.fail("no seed below 100 gives an exact tie")
    cfg = GeneratorConfig("detector", 3, seed, afterpulse_prob=1.0, afterpulse_delay=delay)
    tags, bits = gen_detector(cfg)
    assert [bits[k] for k in range(3)] == [d0, d0, d1]
    assert _output(tags, bits) == _output(*_reference_detector(cfg))


def test_coin_equal_to_afterpulse_prob_injects_nothing():
    seed = 5
    coin0 = next(_uniforms(seed + (1 << 64)))
    cfg = GeneratorConfig("detector", 2, seed, afterpulse_prob=coin0, afterpulse_delay=0.0)
    tags, bits = gen_detector(cfg)
    assert tags.values[1] > tags.values[0]  # event 1 is arrival 1, not an after-pulse at time 0
    assert _output(tags, bits) == _output(*_reference_detector(cfg))

@st.composite
def detector_configs(draw):
    mean = 1000.0
    tau = draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.floats(mean, 3 * mean)))
    prob = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.just(1.0),
        )
    )
    delay = draw(
        st.one_of(
            st.just(0.0), st.floats(0.0, tau), st.just(tau), st.floats(tau, tau + 2 * mean)
        )
    )
    return GeneratorConfig(
        "detector",
        n=draw(st.integers(0, 3000)),
        seed=draw(st.integers(0, 2**64 - 1)),
        mean_interarrival=mean,
        dead_time=tau,
        afterpulse_prob=prob,
        afterpulse_delay=delay,
    )


@settings(max_examples=300, deadline=None)
@given(
    cfg=detector_configs(),
    batch=st.sampled_from([1, 3, 16, 64]),
    piece=st.integers(1, 40),
)
def test_numpy_path_matches_generator_loop(cfg, batch, piece):
    """Every refill takes the numpy path and hands over to the one-event loop
    at each conflict, however many: small refills and pieces cross
    every hand-over, refill, coin batch, early-cut and piece boundary; both
    sides draw with the same patched refill size."""
    with (
        mock.patch.object(simgen, "_BATCH", batch),
        mock.patch.object(simgen, "_PIECE", piece),
    ):
        tags, bits = gen_detector(cfg)
        ref_tags, ref_bits = _reference_detector(cfg)
    assert _output(tags, bits) == _output(ref_tags, ref_bits)


@pytest.mark.parametrize(
    "defects",
    [
        BENCH_DEFECTS,
        dict(BENCH_DEFECTS, afterpulse_delay=50.0),
        dict(BENCH_DEFECTS, afterpulse_delay=float(np.nextafter(50.0, 0))),
        dict(BENCH_DEFECTS, afterpulse_prob=0.5),
        dict(afterpulse_prob=1.0, afterpulse_delay=0.0),
        dict(dead_time=10_000.0),
        dict(dead_time=10_000.0, afterpulse_prob=0.05, afterpulse_delay=15_000.0),
    ],
    ids=[
        "bench",
        "delay-equals-dead-time",
        "delay-just-below-dead-time",
        "chains",
        "delay-0",
        "dead-time-10-means",
        "dead-time-10-means-after-pulses",
    ],
)
def test_matches_generator_loop_at_full_refills(defects):
    """At the real _BATCH, 2^17 + 3 events cross an arrival refill and a coin
    batch, even where after-pulses chain. A dead time of 10 mean
    interarrivals chains nearly every arrival to the one before it on its
    detector, so the dead-time filter walks nearly every arrival. Near
    dead_time, whether an after-pulse passes rests on the rounding of
    (t + delay) - t: just below dead_time it rounds up to dead_time once t
    is large, so the after-pulse is kept."""
    cfg = GeneratorConfig("detector", (1 << 17) + 3, 11, **defects)
    assert _output(*gen_detector(cfg)) == _output(*_reference_detector(cfg))
