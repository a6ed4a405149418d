import math

import pytest

from randcert.partitions import (
    ENUM_MAX_MODELS,
    PartitionModel,
    _partition_count,
    bell_number,
    enumerate_partitions,
)


def bell_by_recurrence(n):
    # B_{k+1} = sum_j C(k, j) B_j, independent of the Stirling rows bell_number sums
    b = [1]
    for k in range(n):
        b.append(sum(math.comb(k, j) * b[j] for j in range(k + 1)))
    return b[n]


class TestBellNumber:
    @pytest.mark.parametrize("n,expected", [(2, 2), (4, 15), (8, 4140), (16, 10_480_142_147)])
    def test_table_values(self, n, expected):
        assert bell_number(n) == expected

    def test_small(self):
        assert bell_number(0) == 1
        assert bell_number(1) == 1

    @pytest.mark.parametrize("n", range(0, 27))
    def test_against_recurrence(self, n):
        assert bell_number(n) == bell_by_recurrence(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bell_number(27)
        with pytest.raises(ValueError):
            bell_number(-1)


class TestPartitionModel:
    def test_from_rgs(self):
        m = PartitionModel.from_rgs((0, 1, 0, 2))
        assert m.level == 2
        assert m.num_blocks == 3
        assert m.block_sizes == (2, 1, 1)

    def test_one_block(self):
        m = PartitionModel.one_block(3)
        assert m.rgs == (0,) * 8
        assert m.is_symmetric

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            PartitionModel.from_rgs((0, 2))
        with pytest.raises(ValueError):
            PartitionModel.from_rgs((1, 0))


class TestEnumeration:
    def test_two_models_at_level_one(self):
        models = list(enumerate_partitions(2))
        assert [m.rgs for m in models] == [(0, 0), (0, 1)]

    def test_fifteen_models_at_level_two(self):
        models = list(enumerate_partitions(4))
        assert len(models) == 15
        assert sum(1 for m in models if not m.is_symmetric) == 14
        assert models[0].is_symmetric

    def test_counts_match_bell_numbers(self):
        for n in (2, 4, 8):
            models = list(enumerate_partitions(n))
            assert len(models) == bell_number(n)
            assert len({m.rgs for m in models}) == len(models)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_partition_count_matches_enumeration(self, n):
        for k in range(1, n + 1):
            assert _partition_count(n, k) == len(list(enumerate_partitions(n, k)))

    def test_partition_count_stops_past_the_limit(self):
        early = _partition_count(16, 3, ENUM_MAX_MODELS)
        assert ENUM_MAX_MODELS < early < _partition_count(16, 3) == 7_174_454

    def test_lexicographic_order(self):
        rgss = [m.rgs for m in enumerate_partitions(8)]
        assert rgss == sorted(rgss)

    def test_two_block_restriction(self):
        models = list(enumerate_partitions(16, max_blocks=2))
        assert len(models) == 32_768
        assert models[0].is_symmetric
        assert all(m.num_blocks <= 2 for m in models)
        # Stirling number of the second kind S(16, 2) = 2^15 - 1
        assert sum(1 for m in models if m.num_blocks == 2) == 32_767

    def test_refuses_unbounded_large_sets(self):
        with pytest.raises(ValueError):
            next(enumerate_partitions(32))
        # B_16 ~ 1.05e10 models, and S(16,1) + S(16,2) + S(16,3) = 7,174,454
        for max_blocks in (None, 16, 3):
            with pytest.raises(ValueError, match="refusing to enumerate"):
                enumerate_partitions(16, max_blocks)
        # B_8 = 4,140, S(16,1) + S(16,2) = 32,768 and S(32,1) = 1 stay under the limit
        enumerate_partitions(8)
        enumerate_partitions(16, 2)
        assert [m.num_blocks for m in enumerate_partitions(32, 1)] == [1]

    def test_bad_max_blocks(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(4, max_blocks=0))
        with pytest.raises(ValueError):
            list(enumerate_partitions(4, max_blocks=5))
