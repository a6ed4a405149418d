import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcert import borel
from randcert.bayes import (
    BOUND_MAX_N,
    bayes_bound_lhs,
    bayes_bound_rhs,
    bayes_bound_test,
    log_marginal,
    log_marginal_blocks,
    posterior,
)
from randcert.blockstats import BlockCounts
from randcert.partitions import PartitionModel, enumerate_partitions
from randcert.specialfn import log_gamma

from conftest import bits_from_string, make_counts
from dirichlet_oracle import marginal_by_quadrature


class TestLogMarginal:
    def test_one_block_is_uniform_model(self):
        c = make_counts(1, {0: 1, 1: 1})
        assert log_marginal(c, PartitionModel.one_block(1)) == pytest.approx(
            math.log(0.25), rel=1e-12
        )

    def test_two_block_level_one(self):
        c = make_counts(1, {0: 1, 1: 1})
        m = PartitionModel.from_rgs((0, 1))
        assert log_marginal(c, m) == pytest.approx(math.log(0.125), rel=1e-12)

    def test_one_block_reduces_to_2_to_minus_n(self):
        # the uniform model assigns 2^-i per block, so ln P = -T*i*ln2
        for level, total in [(1, 17), (2, 9), (3, 5)]:
            c = make_counts(level, {0: total})
            lm = log_marginal(c, PartitionModel.one_block(level))
            assert lm == pytest.approx(-total * level * math.log(2), rel=1e-12)

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            log_marginal(make_counts(1, {0: 1}), PartitionModel.one_block(2))

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(202)
        for level in (1, 2):
            width = 2**level
            models = list(enumerate_partitions(width))
            for _ in range(6):
                counts = rng.multinomial(int(rng.integers(1, 31)), [1 / width] * width)
                bc = BlockCounts(level, counts.astype(np.int64), int(counts.sum()))
                for model in models:
                    oracle = marginal_by_quadrature(bc, model)
                    assert math.exp(log_marginal(bc, model)) == pytest.approx(
                        oracle, rel=1e-6
                    )


class TestPosterior:
    def _both_level_one(self):
        return [PartitionModel.one_block(1), PartitionModel.from_rgs((0, 1))]

    def test_balanced_counts(self):
        t = posterior(make_counts(1, {0: 1, 1: 1}), self._both_level_one())
        assert t.posteriors.tolist() == pytest.approx([2 / 3, 1 / 3], rel=1e-10)
        assert t.best_index == 0
        assert t.symmetric_posterior == pytest.approx(2 / 3, rel=1e-10)

    def test_extreme_bias(self):
        t = posterior(make_counts(1, {0: 1000, 1: 0}), self._both_level_one())
        assert t.posteriors[1] > 0.999

    def test_no_data_returns_prior(self):
        t = posterior(make_counts(1, {}), self._both_level_one())
        assert t.posteriors.tolist() == pytest.approx([0.5, 0.5])
        assert t.best_index == 0  # tie broken toward the lowest index

    def test_empty_model_list(self):
        with pytest.raises(ValueError):
            posterior(make_counts(1, {0: 1}), [])

    @given(
        st.lists(st.integers(0, 50), min_size=4, max_size=4),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_normalization_and_permutation_invariance(self, counts, data):
        bc = make_counts(2, dict(enumerate(counts)))
        models = list(enumerate_partitions(4))
        subset_idx = data.draw(
            st.lists(st.integers(0, 14), min_size=1, max_size=15, unique=True)
        )
        subset = [models[i] for i in subset_idx]
        t = posterior(bc, subset)
        assert math.fsum(t.posteriors) == pytest.approx(1.0, abs=1e-12)
        perm = data.draw(st.permutations(range(len(subset))))
        t2 = posterior(bc, [subset[p] for p in perm])
        for new_pos, old_pos in enumerate(perm):
            assert t2.posteriors[new_pos] == pytest.approx(
                float(t.posteriors[old_pos]), rel=1e-9, abs=1e-300
            )

    def test_unbiased_stream_prefers_symmetric_model_at_level_3(self):
        from randcert import simgen
        from randcert.blockstats import count_blocks

        seq = simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=2**20, seed=42))
        models = list(enumerate_partitions(8))
        assert len(models) == 4140
        t = posterior(count_blocks(seq, 3), models)
        assert t.models[t.best_index].is_symmetric


def rhs_by_mpmath(n: int, i: int) -> float:
    """The coupled bound's right side from its definition, at 400 digits."""
    with mpmath.workdps(400):
        n, m = mpmath.mpf(n), mpmath.mpf(2) ** i
        x = 0.5 + n / (i * m)
        ln_arg = (
            -n * mpmath.log(2)
            + m * mpmath.loggamma(0.5)
            + mpmath.loggamma(m / 2 + n / i)
            - mpmath.loggamma(m / 2)
            - m * mpmath.loggamma(x)
        )
        return float(mpmath.sqrt(i * i / (n * n * mpmath.polygamma(1, x)) * ln_arg))


class TestBayesBoundRhs:
    @pytest.mark.parametrize(
        "i,expected",
        [
            (1, 3.62956e-5),
            (2, 6.08097e-5),
            (3, 7.82572e-5),
            (4, 9.11726e-5),
            (5, 1.01069e-4),
        ],
    )
    def test_published_grid(self, i, expected):
        assert bayes_bound_rhs(2**32, i) == pytest.approx(expected, rel=1e-5)

    def test_monotone_on_published_grid(self):
        n = 2**32
        vals = [bayes_bound_rhs(n, i) for i in range(1, 6)]
        assert vals == sorted(vals)  # increases with i at fixed n
        for i in range(1, 6):
            assert bayes_bound_rhs(2**34, i) < bayes_bound_rhs(n, i)  # decreases with n

    def test_precondition(self):
        with pytest.raises(ValueError):
            bayes_bound_rhs(7, 2)  # n < i * 2^i = 8
        with pytest.raises(ValueError):
            bayes_bound_rhs(23, 3)
        with pytest.raises(ValueError):
            bayes_bound_rhs(2**32, 9)

    @pytest.mark.parametrize(
        "n, i", [(2**54, 1), (2**400, 1), (2**400, 8)], ids=["2^54-L1", "2^400-L1", "2^400-L8"]
    )
    def test_large_n_matches_mpmath(self, n, i):
        # a float sum of -n ln 2 and the log-gammas cancelled to 0 here
        assert bayes_bound_rhs(n, i) == pytest.approx(rhs_by_mpmath(n, i), rel=1e-12)

    @pytest.mark.parametrize("i", range(1, 9))
    def test_matches_mpmath_from_least_n_to_2_500(self, i):
        least = i << i
        grid = [least, least + 1, 3 * least, 1000 * least + 7, 2**20 + 13, 2**32, 2**53 + 1]
        grid += [2**e for e in range(60, 501, 40)]
        for n in grid:
            assert bayes_bound_rhs(n, i) == pytest.approx(rhs_by_mpmath(n, i), rel=1e-12), n

    def test_overflowing_n_squared_is_refused(self):
        # n * n converts to no float here, so n is refused before it is squared
        for n in (1e300, BOUND_MAX_N + 1, 2**512 - 1, 2**512, 10**400):
            with pytest.raises(ValueError, match=rf"^bound needs n <= {BOUND_MAX_N} \(just under "):
                bayes_bound_rhs(n, 1)

    @pytest.mark.parametrize("i", [1, 8])
    def test_largest_n_matches_mpmath(self, i):
        assert (BOUND_MAX_N + 1) ** 2 >= borel.FLOAT_INT_END > BOUND_MAX_N**2
        expected = rhs_by_mpmath(BOUND_MAX_N, i)
        assert bayes_bound_rhs(BOUND_MAX_N, i) == pytest.approx(expected, rel=1e-12)


class TestBayesBoundLhs:
    def test_uniform_counts_give_zero(self):
        for level in (1, 2, 3):
            c = make_counts(level, {j: 4 for j in range(2**level)})
            assert bayes_bound_lhs(c) == 0.0

    def test_single_term(self):
        assert bayes_bound_lhs(make_counts(1, {0: 3, 1: 1})) == pytest.approx(0.25)

    def test_empty(self):
        with pytest.raises(ValueError):
            bayes_bound_lhs(make_counts(1, {}))

    def test_matches_literal_double_sum(self):
        rng = np.random.default_rng(9)
        for level in (1, 2, 3):
            counts = rng.multinomial(500, [2.0**-level] * 2**level)
            bc = BlockCounts(level, counts, 500)
            d = counts / 500 - 2.0**-level
            literal = math.sqrt(
                sum(
                    d[j] * d[jp]
                    for j in range(1, 2**level)
                    for jp in range(j, 2**level)
                )
            )
            assert bayes_bound_lhs(bc) == pytest.approx(literal, rel=1e-12)


class TestBayesBoundTest:
    def test_uniform_periodic_passes_level2_with_zero_lhs(self):
        seq = bits_from_string("00011011" * (2**13))  # all 2-bit blocks equally
        reports = bayes_bound_test(seq, 2)
        assert reports[1].lhs == 0.0
        assert reports[1].passes

    def test_constant_ones_fails_level1(self):
        reports = bayes_bound_test(bits_from_string("1" * 2**16), 1)
        assert reports[0].lhs == pytest.approx(0.5)
        assert not reports[0].passes


def test_eq3_structural_consistency():
    # at exactly symmetric block occupation, the marginal log-ratio between
    # the one-block and fully-distinct models equals the log argument inside
    # the bound's right-hand side
    n = 2**20
    for i in (1, 2, 3, 4):
        width = 2**i
        total = n / i
        m_sym = n / (i * width)
        lm_one = log_marginal_blocks([total], [width], total)
        lm_distinct = log_marginal_blocks([m_sym] * width, [1] * width, total)
        half = 2 ** (i - 1)
        ln_arg = (
            -n * math.log(2)
            + width * log_gamma(0.5)
            + log_gamma(half + n / i)
            - log_gamma(half)
            - width * log_gamma(0.5 + m_sym)
        )
        assert lm_one - lm_distinct == pytest.approx(ln_arg, rel=1e-8)


def test_bound_report_json():
    reports = bayes_bound_test(bits_from_string("0110" * 16), 2)
    d = borel.reports_to_json_dict(64, reports)
    assert d["n"] == 64
    assert len(d["levels"]) == 2
