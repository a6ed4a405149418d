import hashlib
import tracemalloc

import numpy as np
import pytest

from randcert import simgen
from randcert.blockstats import count_blocks
from randcert.borel import borel_deviations, borel_test, evaluate_level
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


@pytest.mark.parametrize("kind", ["bernoulli", "markov"])
def test_bit_generators_hold_one_copy_of_their_output(monkeypatch, kind):
    """Packed chunks go to one buffer, not to a list joined at the end."""
    monkeypatch.setattr(simgen, "_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        seq = simgen.generate(GeneratorConfig(kind, n=1 << 26, seed=4, stay_prob=0.6))
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
