import contextlib
import hashlib
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcert import bitstream, simgen
from randcert.bitstream import BitSequence
from randcert.errors import FormatError

from conftest import bits_from_string, traced_peak


@contextlib.contextmanager
def _packed_source(tmp_path, raw: bytes, pipe: bool):
    """A path that reads raw: a regular file, or the read end of a pipe that
    one writer thread fills, so raw may be larger than the pipe's buffer."""
    if not pipe:
        (tmp_path / "p.bin").write_bytes(raw)
        yield tmp_path / "p.bin"
        return
    r, w = os.pipe()

    def fill():
        try:
            view, done = memoryview(raw), 0
            while done < len(raw):
                done += os.write(w, view[done:])
        finally:
            os.close(w)

    writer = threading.Thread(target=fill)
    writer.start()
    try:
        yield f"/dev/fd/{r}"  # /dev/fd names the read end
    finally:
        os.close(r)  # a writer still blocked fails instead of hanging
        writer.join(timeout=60)
    assert not writer.is_alive()


class TestLoadAscii:
    def test_whitespace_skipped(self, tmp_bits_file):
        p = tmp_bits_file("a.txt", "10 01\n")
        seq = bitstream.load_ascii(p)
        assert seq.n == 4
        assert [seq[k] for k in range(4)] == [1, 0, 0, 1]

    def test_empty_file(self, tmp_bits_file):
        seq = bitstream.load_ascii(tmp_bits_file("e.txt", ""))
        assert seq.n == 0

    def test_bad_character_names_offset(self, tmp_bits_file):
        p = tmp_bits_file("b.txt", "102")
        with pytest.raises(FormatError) as exc:
            bitstream.load_ascii(p)
        assert exc.value.offset == 2

    def test_bad_character_after_first_read(self, tmp_bits_file):
        p = tmp_bits_file("b.txt", "01" * 524290 + "x0101")
        with pytest.raises(FormatError, match="at byte offset 1048580 ") as exc:
            bitstream.load_ascii(p)
        assert exc.value.offset == 1048580

    def test_every_byte_value(self):
        """'0' and '1' are bits, the six ASCII whitespace bytes are skipped,
        and every other byte value is refused at its offset."""
        for byte in range(256):
            chunk = b"1" + bytes([byte]) + b"0"
            if byte in b"01":
                assert bitstream._bits_from_ascii(chunk, 5).tolist() == [1, byte & 1, 0]
            elif byte in b" \t\r\n\x0b\x0c":
                assert bitstream._bits_from_ascii(chunk, 5).tolist() == [1, 0]
            else:
                with pytest.raises(FormatError, match=re.escape(repr(bytes([byte])))) as exc:
                    bitstream._bits_from_ascii(chunk, 5)
                assert exc.value.offset == 6

    def test_peak_memory_flat(self, tmp_bits_file):
        # 2^24 + 1 bits; the spaces make reads end inside a byte of bits
        p = tmp_bits_file("big.txt", "0110 " * (1 << 22) + "1\n")
        tracemalloc.start()
        try:
            seq = bitstream.load_ascii(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq == BitSequence(b"\x66" * (1 << 21) + b"\x80", (1 << 24) + 1)
        assert peak < 32 << 20

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            bitstream.load_ascii(tmp_path / "missing.txt")

    def test_holds_one_packed_copy(self, tmp_path):
        """The chunks go into one buffer as they arrive, not into a list joined
        at the end: the peak grows by about one byte per added packed byte."""
        peaks = []
        for n in (1 << 25, 1 << 26):
            p = tmp_path / f"{n}.txt"
            bitstream.write_ascii(BitSequence(b"\x5a" * (n // 8), n), p)
            tracemalloc.start()
            try:
                seq = bitstream.load_ascii(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert seq.n == n
            del seq
            p.unlink()
        growth = (peaks[1] - peaks[0]) / ((1 << 26) // 8 - (1 << 25) // 8)
        assert growth < 1.25, f"peak grew {growth:.2f} bytes per added packed byte"


class TestLoadPacked:
    def test_msb_first(self, tmp_bits_file):
        p = tmp_bits_file("p.bin", bytes([0xA0]), binary=True)
        seq = bitstream.load_packed(p, 4)
        assert [seq[k] for k in range(4)] == [1, 0, 1, 0]

    def test_n_defaults_to_full_bytes(self, tmp_bits_file):
        p = tmp_bits_file("p.bin", bytes([0xFF]), binary=True)
        seq = bitstream.load_packed(p)
        assert seq.n == 8
        assert all(seq[k] == 1 for k in range(8))

    def test_n_too_large(self, tmp_bits_file):
        p = tmp_bits_file("p.bin", bytes([0x00]), binary=True)
        with pytest.raises(ValueError):
            bitstream.load_packed(p, 9)

    def test_pad_bits_zeroed(self, tmp_bits_file):
        p = tmp_bits_file("p.bin", bytes([0xFF]), binary=True)
        seq = bitstream.load_packed(p, 3)
        assert seq.data == bytes([0xE0])

    def test_truncated(self, tmp_bits_file):
        p = tmp_bits_file("p.bin", bytes([0xAB, 0xCD, 0xEF]), binary=True)
        assert bitstream.load_packed(p, 16).data == bytes([0xAB, 0xCD])
        assert bitstream.load_packed(p, 12).data == bytes([0xAB, 0xC0])

    def test_pipe_is_read_whole(self):
        """A pipe, which has no size, is read in order as a file is; /dev/fd
        names its read end."""
        r, w = os.pipe()
        try:
            os.write(w, b"\xab\xcd\xef")
            os.close(w)
            assert bitstream.load_packed(f"/dev/fd/{r}", 20) == BitSequence(b"\xab\xcd\xe0", 20)
        finally:
            os.close(r)

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize(
        "read",
        [
            lambda p: bitstream.load_packed(p, 25),
            lambda p: list(bitstream.stream_packed(p, 8, 25)),
        ],
        ids=["load", "stream"],
    )
    def test_n_past_the_end_is_refused(self, tmp_path, pipe, read):
        """An n past the end is refused when the input ends, with the file's
        bit count, from a pipe as from a file."""
        with _packed_source(tmp_path, b"\xab\xcd\xef", pipe) as path:
            with pytest.raises(ValueError, match=r"^requested n=25 but file holds only 24 bits$"):
                read(path)

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("n", [10**9, 10**12], ids=["1e9", "1e12"])
    def test_n_far_past_a_short_file_is_refused_without_allocating_it(self, tmp_path, n, pipe):
        """No read of load_packed asks for more than one chunk: 10**12 bits
        would be a 125 GB buffer, and used to raise MemoryError, from a file
        and then from a pipe."""
        with _packed_source(tmp_path, b"\x01", pipe) as path:
            tracemalloc.start()
            try:
                refused = rf"^requested n={n} but file holds only 8 bits$"
                with pytest.raises(ValueError, match=refused):
                    bitstream.load_packed(path, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def _load_peak(tmp_path, pipe: bool) -> None:
        """load_packed joins its chunks in one buffer: the peak is one copy of
        the bits, the buffer's growth by an eighth and one chunk in flight."""
        size = 4 << 20
        raw = bytes(range(256)) * (size // 256)
        with _packed_source(tmp_path, raw, pipe) as path:
            tracemalloc.start()
            try:
                seq = bitstream.load_packed(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert seq == BitSequence(raw, 8 * size)
        assert peak < 1.25 * size

    def test_whole_file_read_once(self, tmp_path):
        self._load_peak(tmp_path, pipe=False)

    def test_whole_pipe_read_once(self, tmp_path):
        self._load_peak(tmp_path, pipe=True)


class TestFromBytes:
    def test_whole_bytes_not_copied(self):
        data = bytes(range(256))
        assert BitSequence.from_bytes(data, 8 * len(data)).data is data

    def test_truncation_and_pad_bits(self):
        data = bytes([0xFF, 0xFF, 0xFF])
        assert BitSequence.from_bytes(data, 12).data == bytes([0xFF, 0xF0])
        assert BitSequence.from_bytes(data, 16).data == bytes([0xFF, 0xFF])
        assert BitSequence.from_bytes(data, 0).data == b""
        assert BitSequence.from_bytes(bytearray(data), 24).data == data

    def test_partial_load_copies_once(self):
        data = bytes(4 << 20)
        tracemalloc.start()
        try:
            seq = BitSequence.from_bytes(data, 8 * len(data) - 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seq.data) == len(data)
        assert peak < 1.25 * len(data)


class TestFromBits:
    def test_packs_msb_first(self):
        assert BitSequence.from_bits([1, 0, 1, 1, 0, 0, 0, 0, 1]).data == bytes([0xB0, 0x80])

    @pytest.mark.parametrize("n", [0, 5, 8, 13])
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_array_packs_like_a_list(self, dtype, n):
        values = [(k * 7 + k // 3) % 2 for k in range(n)]
        assert BitSequence.from_bits(np.array(values, dtype=dtype)) == BitSequence.from_bits(values)

    @pytest.mark.parametrize(
        "values, dtype", [([0, 1, 2], np.uint8), ([0, 1, 2], np.int64), ([1, -1, 0], np.int64)]
    )
    def test_array_holding_other_values_is_refused(self, values, dtype):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitSequence.from_bits(np.array(values, dtype=dtype))


class TestBitAt:
    def test_values(self):
        seq = bits_from_string("101")
        assert seq[0] == 1
        assert seq[1] == 0
        assert seq[2] == 1

    def test_out_of_range(self):
        seq = bits_from_string("101")
        with pytest.raises(IndexError):
            seq[3]
        with pytest.raises(IndexError):
            seq[-1]


@given(bits=st.lists(st.integers(0, 1), max_size=200))
def test_packed_roundtrip(tmp_path_factory, bits):
    seq = BitSequence.from_bits(bits)
    p = tmp_path_factory.mktemp("rt") / "seq.bin"
    bitstream.write_packed(seq, p)
    assert bitstream.load_packed(p, seq.n) == seq


@given(data=st.binary(max_size=40), pick=st.none() | st.integers(0, 320))
def test_load_packed_matches_from_bytes(tmp_path_factory, data, pick):
    """Any n in 0..8 * size, or none, loads as the file's bytes cut to n bits;
    beyond 8 * size, or below 0, is refused."""
    p = tmp_path_factory.mktemp("lp") / "seq.bin"
    p.write_bytes(data)
    n = None if pick is None else pick % (8 * len(data) + 1)
    expected = BitSequence.from_bytes(data, 8 * len(data) if n is None else n)
    assert bitstream.load_packed(p, n) == expected
    for bad in (8 * len(data) + 1 + (pick or 0), -1 - (pick or 0)):
        with pytest.raises(ValueError, match=f"requested n={bad} "):
            bitstream.load_packed(p, bad)


@given(bits=st.lists(st.integers(0, 1), max_size=200))
@settings(max_examples=50)
def test_ascii_roundtrip(tmp_path_factory, bits):
    seq = BitSequence.from_bits(bits)
    p = tmp_path_factory.mktemp("rt") / "seq.txt"
    bitstream.write_ascii(seq, p)
    assert bitstream.load_ascii(p) == seq


def test_write_ascii_bytes(tmp_path):
    p = tmp_path / "w.txt"
    bitstream.write_ascii(bits_from_string("1101"), p)
    assert p.read_bytes() == b"1101\n"
    bitstream.write_ascii(BitSequence(b"", 0), p)
    assert p.read_bytes() == b"\n"


def test_write_ascii_pinned_digest(tmp_path):
    seq = simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=(1 << 20) + 3, seed=1))
    p = tmp_path / "w.txt"
    bitstream.write_ascii(seq, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "0a265b5d39e4dc5f6b3bd61501fea377d2312400745e30713dbd2caaaedd9511"
    )


def test_ascii_write_and_stream_memory_is_flat_in_n(tmp_path):
    """write_ascii renders, and stream_ascii reads, bitstream.SLAB bytes at a
    time: the peak of each at 2^23 bits (8 MiB of text) equals that at 2^21
    bits, below 1 MiB, and the text streams back to the bits written."""
    peaks = {"write": [], "stream": []}
    for n in (1 << 21, 1 << 23):
        seq, p = BitSequence(np.random.default_rng(n).bytes(n // 8), n), tmp_path / f"{n}.txt"
        digest = hashlib.sha256()

        def stream():
            for chunk in bitstream.stream_ascii(p, 8 * bitstream.SLAB):
                digest.update(chunk.data)

        peaks["write"].append(traced_peak(lambda: bitstream.write_ascii(seq, p)))
        peaks["stream"].append(traced_peak(stream))
        assert digest.digest() == hashlib.sha256(seq.data).digest()
    for step, (small, large) in peaks.items():
        assert large <= 1.1 * small, (step, small, large)
        assert large < 1 << 20, (step, large)


@pytest.mark.parametrize("chunk_bits", [8, 24, 128])
def test_stream_matches_whole_file_packed(tmp_bits_file, chunk_bits):
    data = np.random.default_rng(5).integers(0, 256, size=41, dtype=np.uint8).tobytes()
    p = tmp_bits_file("s.bin", data, binary=True)
    whole = bitstream.load_packed(p)
    chunks = list(bitstream.stream_packed(p, chunk_bits))
    assert all(c.n == chunk_bits for c in chunks[:-1])
    assert bitstream.concat(chunks) == whole


@pytest.mark.parametrize("chunk_bits", [8, 16, 1000])
def test_stream_matches_whole_file_ascii(tmp_bits_file, chunk_bits):
    text = "1101 0010\n0111\n10"
    p = tmp_bits_file("s.txt", text)
    whole = bitstream.load_ascii(p)
    assert bitstream.concat(bitstream.stream_ascii(p, chunk_bits)) == whole


def test_stream_packed_rejects_unaligned_chunk(tmp_bits_file):
    p = tmp_bits_file("s.bin", b"\x00", binary=True)
    with pytest.raises(ValueError):
        list(bitstream.stream_packed(p, 12))


def test_stream_packed_refuses_negative_n(tmp_bits_file):
    p = tmp_bits_file("s.bin", b"\xab", binary=True)
    with pytest.raises(ValueError, match="requested n=-5 is negative"):
        list(bitstream.stream_packed(p, 8, -5))


def test_stream_ascii_rejects_unaligned_chunk(tmp_bits_file):
    p = tmp_bits_file("s.txt", "0101")
    with pytest.raises(ValueError, match="positive multiple of 8"):
        list(bitstream.stream_ascii(p, 12))


def test_concat_refuses_inner_chunk_ending_inside_a_byte():
    with pytest.raises(ValueError, match="only the last chunk"):
        bitstream.concat([bits_from_string("101"), bits_from_string("1")])
    assert bitstream.concat([bits_from_string("10110011"), bits_from_string("1")]) == (
        bits_from_string("101100111")
    )
