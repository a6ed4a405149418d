import math
import os
import threading
import tracemalloc
from collections import Counter
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcert import blockstats
from randcert.bitstream import BitSequence, load_ascii, load_packed, stream_packed
from randcert.bayes import bayes_bound_test
from randcert.blockstats import (
    BlockCounts,
    check_levels,
    count_blocks,
    count_blocks_parallel,
    level_counts,
    max_borel_level,
    merge_counts,
    stream_level_counts,
)
from randcert.borel import borel_test

from conftest import bits_from_string


class TestMaxBorelLevel:
    @pytest.mark.parametrize(
        "n,level",
        [(4, 1), (16, 2), (256, 3), (65_536, 4), (4_294_967_296, 5)],
    )
    def test_threshold_lengths(self, n, level):
        assert max_borel_level(n) == level
        if level > 1:
            assert max_borel_level(n - 1) == level - 1

    def test_255(self):
        assert max_borel_level(255) == 2

    def test_level_six_needs_2_to_the_64(self):
        assert max_borel_level(18_446_744_073_709_551_616) == 6
        assert max_borel_level(18_446_744_073_709_551_615) == 5

    def test_too_short(self):
        with pytest.raises(ValueError):
            max_borel_level(3)


class TestCountBlocks:
    def test_pairs(self):
        c = count_blocks(bits_from_string("110100"), 2)
        assert c.counts.tolist() == [1, 1, 0, 1]
        assert c.total == 3

    def test_remainder_discarded(self):
        c = count_blocks(bits_from_string("110100"), 4)
        assert c.total == 1
        assert c.counts[0b1101] == 1
        assert c.counts.sum() == 1

    def test_periodic(self):
        seq = bits_from_string("01" * (2**15))
        c = count_blocks(seq, 2)
        assert c.counts.tolist() == [0, 2**15, 0, 0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            count_blocks(bits_from_string("1"), 2)

    def test_level_out_of_range(self):
        seq = bits_from_string("10" * 20)
        with pytest.raises(ValueError):
            count_blocks(seq, 0)
        with pytest.raises(ValueError, match=r"^block length must be in \[1, 9\], got 10$"):
            count_blocks(seq, blockstats.MAX_LEVEL + 1)


class TestMergeCounts:
    def test_elementwise_sum(self):
        a = BlockCounts(1, np.array([1, 0]), 1)
        b = BlockCounts(1, np.array([0, 2]), 2)
        m = merge_counts(a, b)
        assert m.counts.tolist() == [1, 2]
        assert m.total == 3

    def test_zero_identity(self):
        a = BlockCounts(2, np.array([3, 1, 0, 2]), 6)
        assert merge_counts(a, BlockCounts(2, np.zeros(4), 0)) == a

    def test_block_aligned_split(self):
        whole = count_blocks(bits_from_string("110100"), 2)
        left = count_blocks(bits_from_string("1101"), 2)
        right = count_blocks(bits_from_string("00"), 2)
        assert merge_counts(left, right) == whole

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            merge_counts(BlockCounts(1, np.zeros(2), 0), BlockCounts(2, np.zeros(4), 0))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300), st.integers(1, 6))
def test_counts_sum_to_block_count(bits, i):
    if len(bits) < i:
        return
    c = count_blocks(BitSequence.from_bits(bits), i)
    assert int(c.counts.sum()) == c.total == len(bits) // i


@given(
    st.lists(st.integers(0, 1), min_size=2, max_size=400),
    st.integers(1, 5),
    st.data(),
)
def test_chunked_counting_is_a_monoid_action(bits, i, data):
    if len(bits) < i:
        return
    seq = BitSequence.from_bits(bits)
    whole = count_blocks(seq, i)
    nblocks = len(bits) // i
    cut = data.draw(st.integers(1, nblocks)) * i
    left = BitSequence.from_bits(bits[:cut])
    right = BitSequence.from_bits(bits[cut:])
    partials = [count_blocks(left, i)]
    if len(bits) - cut >= i:
        partials.append(count_blocks(right, i))
    merged = partials[0]
    for p in partials[1:]:
        merged = merge_counts(merged, p)
    # the trailing partial block of the whole sequence may land in `right`
    assert merged.counts.tolist() == whole.counts.tolist()


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_level_one_is_popcount(bits):
    c = count_blocks(BitSequence.from_bits(bits), 1)
    assert c.counts[1] == sum(bits)
    assert c.counts[0] + c.counts[1] == len(bits)


def test_parallel_matches_serial():
    rng = np.random.default_rng(11)
    seq = BitSequence(rng.integers(0, 256, 4097, dtype=np.uint8).tobytes(), 4097 * 8)
    for i in (1, 2, 3, 5, 7):
        assert count_blocks_parallel(seq, i, workers=4) == count_blocks(seq, i)


@st.composite
def random_sequences(draw, min_bits=4, max_bits=1 << 17):
    """Seeded random bit sequences of any length, so n mod i takes every value."""
    n = draw(st.integers(min_bits, max_bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return BitSequence.from_bytes(rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8).tobytes(), n)


@settings(max_examples=40, deadline=None)
@given(random_sequences(), st.data())
def test_level_counts_counts_each_level_once(seq, data):
    imax = max_borel_level(seq.n)
    k = data.draw(st.one_of(st.none(), st.integers(1, imax)))
    counts = level_counts(seq, k)
    assert counts == [count_blocks(seq, i) for i in range(1, (k or imax) + 1)]
    borel_json = [r.to_json_dict() for r in borel_test(seq, k)]
    assert [r.to_json_dict() for r in borel_test(seq, counts=counts)] == borel_json
    assert bayes_bound_test(seq, counts=counts) == bayes_bound_test(seq, k)


@pytest.mark.parametrize("n,levels", [(4, 0), (4, 2), (255, 3), (65_536, 5), (65_536, -1)])
def test_check_levels_refuses_outside_one_to_imax(n, levels):
    with pytest.raises(ValueError, match=f"i_max={max_borel_level(n)}"):
        check_levels(n, levels)


def _oracle_counts(seq: BitSequence, i: int) -> dict[int, int]:
    """Tally of each i-bit slice of the first n bits, read as an integer."""
    value = int.from_bytes(seq.data, "big") >> (8 * len(seq.data) - seq.n)
    nblocks = seq.n // i
    return Counter((value >> (seq.n - (k + 1) * i)) & ((1 << i) - 1) for k in range(nblocks))


def _as_oracle(counts: np.ndarray) -> dict[int, int]:
    """A count vector in _oracle_counts' form: nonzero entries only."""
    nonzero = np.flatnonzero(counts)
    return dict(zip(nonzero.tolist(), counts[nonzero].tolist()))


@st.composite
def level_and_sequence(draw):
    """A level 1..MAX_LEVEL and n >= i with every n mod lcm(i, 8) reachable,
    over bytes whose pad bits beyond n are random, not zero."""
    i = draw(st.integers(1, blockstats.MAX_LEVEL))
    period = math.lcm(i, 8)
    n = draw(st.integers(0, 40)) * period + draw(st.integers(0, period - 1))
    n = max(n, i)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return i, BitSequence(rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8).tobytes(), n)


@settings(max_examples=150, deadline=None)
@given(level_and_sequence(), st.integers(1, 64))
def test_count_blocks_matches_bit_slice_oracle(case, slab):
    i, seq = case
    with mock.patch.object(blockstats, "_SLAB", slab):
        c = count_blocks(seq, i)
    assert c.total == seq.n // i
    assert _as_oracle(c.counts) == _oracle_counts(seq, i)


@settings(max_examples=60, deadline=None)
@given(level_and_sequence(), st.integers(1, 4), st.integers(1, 64))
def test_parallel_matches_serial_any_workers(case, workers, slab):
    i, seq = case
    with mock.patch.object(blockstats, "_SLAB", slab):
        assert count_blocks_parallel(seq, i, workers=workers) == count_blocks(seq, i)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 119), st.integers(0, 2**32 - 1),
       st.integers(1, 64))
def test_level_counts_match_bit_slice_oracle(k, periods, residue, seed, slab):
    """Every level 1..k from the one walk in 120-bit periods (levels 1..5),
    for n at every residue mod 120 and random pad bits beyond n."""
    n = max(periods * 120 + residue, 4)
    rng = np.random.default_rng(seed)
    seq = BitSequence(rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8).tobytes(), n)
    # let levels up to 5 through check_levels on short sequences
    with (
        mock.patch.object(blockstats, "max_borel_level", lambda n: 5),
        mock.patch.object(blockstats, "_SLAB", slab),
    ):
        counts = level_counts(seq, k)
    assert [c.level for c in counts] == list(range(1, k + 1))
    for c in counts:
        assert c.total == n // c.level
        assert _as_oracle(c.counts) == _oracle_counts(seq, c.level)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, blockstats.MAX_LEVEL), min_size=1, max_size=4), st.data())
def test_kernel_counts_any_levels(levels, data):
    """One kernel call over levels in any order, repeats included, all sharing
    one walk of lcm(8, *levels) bits, equals the oracle per level."""
    period = math.lcm(8, *levels)
    n = data.draw(st.integers(0, 3)) * period + data.draw(st.integers(0, period - 1))
    n = max(n, *levels)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    seq = BitSequence(rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8).tobytes(), n)
    with mock.patch.object(blockstats, "_SLAB", data.draw(st.integers(1, 16))):
        counts = blockstats._count_packed(np.frombuffer(seq.data, dtype=np.uint8), n, levels)
    assert [_as_oracle(c) for c in counts] == [_oracle_counts(seq, i) for i in levels]


@pytest.fixture(scope="module")
def packed_path(tmp_path_factory):
    return tmp_path_factory.mktemp("stream") / "bits.bin"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.data())
def test_streamed_chunk_counts_merge_to_whole_file(packed_path, i, periods, data):
    """Chunks of a multiple of lcm(i, 8) bits split no block, so merging the
    chunks' counts gives the whole file's, for any tail length, with n cutting
    into the last byte or (n=None) taking the whole file."""
    chunk_bits = periods * math.lcm(i, 8)
    n = data.draw(st.integers(0, 4)) * chunk_bits + data.draw(st.integers(0, chunk_bits - 1))
    n = max(n, i)
    nbytes = (n + 7) // 8 + data.draw(st.integers(0, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    packed_path.write_bytes(rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes())
    n = data.draw(st.sampled_from([n, None]))
    chunks = stream_packed(packed_path, chunk_bits, n)
    merged = reduce(merge_counts, (count_blocks(c, i) for c in chunks if c.n >= i))
    assert merged == count_blocks(load_packed(packed_path, n), i)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_streamed_kernel_counts_merge_to_whole_file(packed_path, periods, data):
    """Chunks of a multiple of 120 bits split no block of levels 1..5, so the
    kernel's per-chunk counts over all five levels sum to the whole file's."""
    levels = (1, 2, 3, 4, 5)
    chunk_bits = periods * 120
    n = data.draw(st.integers(0, 4)) * chunk_bits + data.draw(st.integers(0, chunk_bits - 1))
    n = max(n, 1)
    nbytes = (n + 7) // 8 + data.draw(st.integers(0, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    packed_path.write_bytes(rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes())

    def kernel(seq):
        return blockstats._count_packed(np.frombuffer(seq.data, dtype=np.uint8), seq.n, levels)

    chunks = stream_packed(packed_path, chunk_bits, n)
    merged = [sum(per_level) for per_level in zip(*map(kernel, chunks))]
    whole = kernel(load_packed(packed_path, n))
    assert all(np.array_equal(a, b) for a, b in zip(merged, whole))


@st.composite
def bit_files(draw):
    """A bit file and the n a packed read asks for: n anywhere up to a few
    chunks or next to a level threshold 2^(2^i), as raw bytes with random
    pad bits and spare bytes, or as ASCII with random whitespace."""
    n = draw(st.one_of(st.integers(0, 720), st.sampled_from([15, 16, 255, 256, 65_535, 65_536])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        spare = draw(st.integers(0, 2))
        data = rng.integers(0, 256, (n + 7) // 8 + spare, dtype=np.uint8).tobytes()
        whole = not spare and n % 8 == 0
        return "packed", data, draw(st.sampled_from([n, None])) if whole else n
    spaced = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    text = bytearray()
    for bit, space, ws in zip(rng.integers(0, 2, n).tolist(), spaced.tolist(),
                              rng.integers(0, 4, n).tolist()):
        if space:
            text.append(b" \t\r\n"[ws])
        text.append(ord("0") + bit)
    return "ascii", bytes(text) + b"\n" * draw(st.integers(0, 3)), None


@settings(max_examples=150, deadline=None)
@given(bit_files(), st.sampled_from([8, 24, 120]), st.integers(1, 3), st.data())
def test_stream_level_counts_match_whole_file(packed_path, case, period, periods, data):
    """The streamed pass, its chunks patched to a few periods, gives the n
    and the level counts of the whole file loaded and counted at once."""
    fmt, raw, n = case
    packed_path.write_bytes(raw)
    seq = load_packed(packed_path, n) if fmt == "packed" else load_ascii(packed_path)
    levels = data.draw(st.one_of(st.none(), st.integers(1, max_borel_level(max(seq.n, 4)))))
    if seq.n > 1000:  # keep the chunk count of the 2^16-bit files near ten
        periods *= 64
    with mock.patch.object(blockstats, "_CHUNK_BITS", period * periods):
        if seq.n < 4:
            with pytest.raises(ValueError, match=f"no admissible Borel level for n={seq.n}"):
                stream_level_counts(packed_path, fmt, n, levels)
            return
        streamed = stream_level_counts(packed_path, fmt, n, levels)
    assert streamed == (seq.n, level_counts(seq, levels))


@pytest.mark.parametrize(
    "fmt, raw, n",
    [
        ("packed", b"\xab\xcd\xef", None),
        ("packed", b"\xab\xcd\xef", 20),
        ("ascii", b"1010 11\n01", None),
    ],
)
def test_stream_level_counts_read_a_pipe(tmp_path, fmt, raw, n):
    """A pipe has no size, so it is chunked as a file is and counted up to
    level 5; the levels the n read reaches are those of the file."""
    regular = tmp_path / "bits"
    regular.write_bytes(raw)
    r, w = os.pipe()  # /dev/fd names the read end
    try:
        os.write(w, raw)
        os.close(w)
        assert stream_level_counts(f"/dev/fd/{r}", fmt, n) == stream_level_counts(regular, fmt, n)
    finally:
        os.close(r)


def test_stream_level_counts_refuse_n_for_ascii(tmp_path):
    p = tmp_path / "bits.txt"
    p.write_text("0110")
    with pytest.raises(ValueError, match="n applies to packed input only"):
        stream_level_counts(p, "ascii", 4)


def _count_peak_bytes(nbits: int, count) -> int:
    rng = np.random.default_rng(5)
    seq = BitSequence(rng.integers(0, 256, nbits // 8, dtype=np.uint8).tobytes(), nbits)
    tracemalloc.start()
    try:
        count(seq)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_blocks_memory_is_flat_in_n():
    def count(seq):
        return count_blocks(seq, 3)

    small, large = (_count_peak_bytes(n, count) for n in (1 << 24, 1 << 26))
    assert large <= 1.25 * small
    assert large < 8 * 2**20  # the packed size of 2^26 bits


def test_level_counts_memory_is_flat_in_n():
    """Levels 1..4 share one walk whose histograms and slab scratch do not grow with n."""
    small, large = (_count_peak_bytes(n, level_counts) for n in (1 << 24, 1 << 26))
    assert large <= 1.25 * small
    assert large < 8 * 2**20  # the packed size of 2^26 bits


def test_stream_level_counts_memory_is_flat_in_n(tmp_path):
    """The streamed pass holds one chunk and the kernel's scratch, not the
    file: its peak on 2^26 bits (8 MiB packed) equals that on 2^24 bits."""
    rng = np.random.default_rng(5)
    peaks = []
    for n in (1 << 24, 1 << 26):
        p = tmp_path / f"{n}.bin"
        p.write_bytes(rng.integers(0, 256, n // 8, dtype=np.uint8).tobytes())
        tracemalloc.start()
        try:
            assert stream_level_counts(p, "packed")[0] == n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert large <= 1.1 * small
    assert large < 4 * 2**20  # one 1.875 MiB chunk, a 1 MiB bincount copy, a 0.5 MiB histogram


def test_stream_level_counts_memory_is_flat_in_n_on_a_pipe():
    """A pipe is chunked as a file is, not read whole: with one writer thread
    filling it, the streamed pass peaks as high on 2^26 bits as on 2^24."""
    rng = np.random.default_rng(5)
    peaks = []
    for n in (1 << 24, 1 << 26):
        raw = memoryview(rng.integers(0, 256, n // 8, dtype=np.uint8).tobytes())
        r, w = os.pipe()

        def fill():
            try:
                done = 0
                while done < len(raw):
                    done += os.write(w, raw[done:])
            finally:
                os.close(w)

        writer = threading.Thread(target=fill)
        tracemalloc.start()
        try:
            writer.start()
            assert stream_level_counts(f"/dev/fd/{r}", "packed")[0] == n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            os.close(r)  # a writer still blocked fails instead of hanging
            writer.join(timeout=60)
        assert not writer.is_alive()
    small, large = peaks
    assert large <= 1.1 * small
    assert large < 4 * 2**20  # one 1.875 MiB chunk, a 1 MiB bincount copy, a 0.5 MiB histogram


def test_kernel_holds_one_window_histogram_at_a_time():
    """Levels 1..5 have blocks crossing every one of the 14 byte boundaries
    inside a 120-bit period; each window's 2^16-bin histogram is folded before
    the next is counted, so the walk's scratch stays under 2 MiB (all 14 held
    at once would take 7 MiB)."""

    def count(seq):
        data = np.frombuffer(seq.data, dtype=np.uint8)
        return blockstats._count_packed(data, seq.n, (1, 2, 3, 4, 5))

    assert _count_peak_bytes(1 << 24, count) < 2 * 2**20
