import math
import sys

import numpy as np
import pytest

from randcert import borel, simgen
from randcert.blockstats import BlockCounts, count_blocks
from randcert.borel import borel_bound, borel_deviations, borel_test, evaluate_level

from conftest import bits_from_string, make_counts


class TestBorelBound:
    def test_paper_tolerance_at_2_32(self):
        assert borel_bound(2**32) == pytest.approx(8.6314e-5, rel=1e-4)
        assert borel_bound(2**32) == pytest.approx(math.sqrt(32) / 2**16, rel=1e-15)

    def test_small_values(self):
        assert borel_bound(16) == pytest.approx(0.5)
        assert borel_bound(256) == pytest.approx(math.sqrt(8.0 / 256.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            borel_bound(1)

    def test_n_past_the_largest_float_is_refused(self):
        end = borel.FLOAT_INT_END
        assert float(end - 1) == sys.float_info.max
        assert borel_bound(end - 1) == math.sqrt(1024 / sys.float_info.max)
        for n in (end, 2**1024, 10**400):
            with pytest.raises(ValueError, match=r"^bound needs n < 2\^1024 - 2\^970, "):
                borel_bound(n)


class TestDeviations:
    def test_balanced(self):
        d = borel_deviations(make_counts(1, {0: 2, 1: 2}))
        assert d.tolist() == [0.0, 0.0]

    def test_biased(self):
        d = borel_deviations(make_counts(1, {0: 3, 1: 1}))
        assert d.tolist() == pytest.approx([0.25, -0.25])

    def test_uniform_level2(self):
        d = borel_deviations(make_counts(2, {0: 1, 1: 1, 2: 1, 3: 1}))
        assert d.tolist() == [0.0] * 4

    def test_empty(self):
        with pytest.raises(ValueError):
            borel_deviations(make_counts(1, {}))

    def test_deviations_sum_to_zero(self):
        rng = np.random.default_rng(3)
        for level in (1, 2, 3, 4):
            counts = rng.multinomial(10_000, [2.0**-level] * 2**level)
            d = borel_deviations(BlockCounts(level, counts, 10_000))
            assert abs(d.sum()) <= 2**level * 1e-15


class TestBorelTest:
    def test_constant_ones_fails_level_one(self):
        reports = borel_test(bits_from_string("1" * 2**16))
        assert reports[0].deviations[1] == pytest.approx(0.5)
        assert not reports[0].passes

    def test_alternating_passes_1_fails_2(self):
        reports = borel_test(bits_from_string("01" * 2**15))
        assert reports[0].passes
        assert reports[0].max_abs_deviation == 0.0
        assert not reports[1].passes
        assert reports[1].deviations[0b01] == pytest.approx(0.75)

    def test_levels_beyond_imax_rejected(self):
        with pytest.raises(ValueError):
            borel_test(bits_from_string("0110" * 8), 3)  # n=32, i_max=2

    def test_exact_threshold_behavior(self):
        # perturbing one index by delta*total fails the level iff delta >= bound
        n = 2**16
        total = n // 2
        bound = borel_bound(n)
        base = total // 4
        for delta in [bound * 0.5, bound * 0.999, bound, bound * 1.5]:
            shift = round(delta * total)
            counts = np.array([base + shift, base - shift, base, base], dtype=np.int64)
            rep = evaluate_level(BlockCounts(2, counts, int(counts.sum())), n)
            # integer rounding moves the realized deviation; compare against it
            realized = abs(rep.deviations).max()
            assert rep.passes == (realized < bound)
        # a deviation well beyond the bound always fails, well inside always passes
        big = round(bound * 1.5 * total)
        counts = np.array([base + big, base - big, base, base], dtype=np.int64)
        assert not evaluate_level(BlockCounts(2, counts, int(counts.sum())), n).passes
        counts = np.array([base, base, base, base], dtype=np.int64)
        assert evaluate_level(BlockCounts(2, counts, int(counts.sum())), n).passes

    def test_markov_stay_bias_sign_pattern(self):
        # stay-probability > 1/2 over-represents 00/11 and starves 01/10
        cfg = simgen.GeneratorConfig("markov", n=2**18, seed=12, stay_prob=0.6)
        seq = simgen.gen_markov(cfg)
        d = borel_deviations(count_blocks(seq, 2))
        assert d[0b00] > 0 and d[0b11] > 0
        assert d[0b01] < 0 and d[0b10] < 0

    def test_unbiased_mean_deviation_near_zero(self):
        n = 2**16
        devs = []
        for seed in range(100):
            seq = simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=n, seed=seed))
            devs.append(borel_deviations(count_blocks(seq, 1))[1])
        mean = np.mean(devs)
        stderr = np.std(devs, ddof=1) / math.sqrt(len(devs))
        assert abs(mean) < 3 * stderr + 1e-12


def test_json_report_shape():
    reports = borel_test(bits_from_string("0110" * 8))
    d = borel.reports_to_json_dict(32, reports)
    assert d["n"] == 32
    assert [lvl["i"] for lvl in d["levels"]] == [1, 2]
    assert isinstance(d["overall"], bool)


def test_csv_rows():
    reports = borel_test(bits_from_string("0110" * 8))
    rows = list(borel.reports_to_csv_rows(reports))
    assert len(rows) == 2 + 4
    assert rows[2][:2] == (2, "00")
