import contextlib
import io
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcert import bitstream, extract
from randcert.cli import EXIT_ERROR, main
from randcert.errors import DataError, FormatError
from randcert.extract import (
    DensitySpec,
    TimeTagSeries,
    interarrivals,
    load_timetags_binary,
    load_timetags_text,
    parity_bias_estimate,
    stream_timetags,
    timetags_to_bits,
    write_timetags_binary,
    write_timetags_text,
)

from conftest import traced_peak


def series(values, kind="interarrivals"):
    return TimeTagSeries(np.asarray(values, dtype=np.int64), "ps", kind)


class TestInterarrivals:
    def test_differencing(self):
        out = interarrivals(series([100, 250, 400], "timestamps"))
        assert out.values.tolist() == [150, 150]
        assert out.kind == "interarrivals"

    def test_two_points(self):
        assert interarrivals(series([0, 1], "timestamps")).values.tolist() == [1]

    def test_non_monotone_named_index(self):
        with pytest.raises(DataError) as exc:
            series([5, 3], "timestamps")
        assert exc.value.index == 1

    def test_requires_timestamps(self):
        with pytest.raises(ValueError):
            interarrivals(series([1, 2]))

    def test_too_short(self):
        with pytest.raises(DataError):
            interarrivals(series([7], "timestamps"))


class TestParityExtraction:
    def test_published_listing(self):
        # 592342 even, 595634 even, 593645 odd
        seq = timetags_to_bits(series([592342, 595634, 593645]))
        assert [seq[k] for k in range(3)] == [0, 0, 1]

    def test_consecutive_integers(self):
        seq = timetags_to_bits(series([10, 11, 12, 13]))
        assert [seq[k] for k in range(4)] == [0, 1, 0, 1]

    def test_divisor_shifts_digit(self):
        seq = timetags_to_bits(series([592342]), divisor=10)
        assert seq[0] == 0  # floor(59234.2) = 59234, even

    def test_divisor_validation(self):
        with pytest.raises(ValueError):
            timetags_to_bits(series([1]), divisor=0)

    def test_rejects_timestamps(self):
        with pytest.raises(ValueError):
            timetags_to_bits(series([1, 2], "timestamps"))

    def test_reversed_timestamps_are_invalid_input(self):
        with pytest.raises(DataError):
            series([30, 14, 10, 3], "timestamps")

    def test_time_reflection_reverses_bits_exactly(self):
        # reflecting the clock (s_k = C - t_{K-k}) reverses the difference
        # list element-wise, so parity bits come out exactly reversed
        fwd = series([3, 10, 14, 30], "timestamps")
        refl = series([0, 16, 20, 27], "timestamps")
        fwd_bits = timetags_to_bits(interarrivals(fwd))
        refl_bits = timetags_to_bits(interarrivals(refl))
        fwd_list = [fwd_bits[k] for k in range(fwd_bits.n)]
        assert fwd_list == list(reversed([refl_bits[k] for k in range(refl_bits.n)]))


class TestTimetagIO:
    def test_text_with_digit_groups_and_unit(self, tmp_path):
        p = tmp_path / "tags.txt"
        p.write_text("592 342 ps\n595 634 ps\n593 645 ps\n")
        s = load_timetags_text(p, "interarrivals")
        assert s.values.tolist() == [592342, 595634, 593645]

    def test_text_plain(self, tmp_path):
        p = tmp_path / "tags.txt"
        p.write_text("100\n250\n\n400\n")
        s = load_timetags_text(p, "timestamps")
        assert s.values.tolist() == [100, 250, 400]

    def test_text_rejects_garbage(self, tmp_path):
        p = tmp_path / "tags.txt"
        p.write_text("abc\n")
        with pytest.raises(FormatError):
            load_timetags_text(p, "timestamps")

    def test_text_roundtrip(self, tmp_path):
        p = tmp_path / "tags.txt"
        s = series([1, 5, 9])
        write_timetags_text(s, p)
        assert load_timetags_text(p, "interarrivals").values.tolist() == [1, 5, 9]

    def test_binary_roundtrip(self, tmp_path):
        p = tmp_path / "tags.bin"
        s = series([0, 2**40, 17])
        write_timetags_binary(s, p)
        assert load_timetags_binary(p, "interarrivals").values.tolist() == [0, 2**40, 17]

    def test_binary_truncated(self, tmp_path):
        p = tmp_path / "tags.bin"
        p.write_bytes(np.array([1, 2, 3], dtype="<u8").tobytes() + b"\x01\x02\x03")
        with pytest.raises(FormatError, match="27 bytes is not a multiple of 8"):
            load_timetags_binary(p, "interarrivals")

    @pytest.mark.parametrize(
        "text, values",
        [
            ("\n", []),
            ("1\n2", [1, 2]),
            ("9223372036854775807\n", [2**63 - 1]),
            ("12\x1f34 ps\n\x1c5\x1d\n", [1234, 5]),
        ],
        ids=["only-newline", "no-final-newline", "int64-max", "ascii-separators"],
    )
    def test_text_edge_values(self, tmp_path, text, values):
        # "\n" is where np.fromstring would read [0]
        p = tmp_path / "tags.txt"
        p.write_bytes(text.encode())
        assert load_timetags_text(p, "interarrivals").values.tolist() == values

    @pytest.mark.parametrize(
        "text", ["100\n9223372036854775808\n", "100\n9 223 372 036 854 775 808 ps\n"]
    )
    def test_text_beyond_int64_is_format_error(self, tmp_path, text):
        p = tmp_path / "tags.txt"
        p.write_text(text)
        with pytest.raises(FormatError, match="^line 2: time value exceeds signed 64-bit range$"):
            load_timetags_text(p, "interarrivals")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (
                b"100\n200\n\xd9\xa3\xd9\xa3\xd9\xa3\n",
                r"line 3: no number found in '\xd9\xa3\xd9\xa3\xd9\xa3'",
            ),
            ("100\n2\u00b2\n".encode(), r"line 2: no number found in '2\xc2\xb2'"),
            (b"100\n\xff\n", r"line 2: no number found in '\xff'"),
            (b"100\n\x1eps\x1f\n", "line 2: no number found in 'ps'"),
        ],
        ids=["arabic-indic-three", "superscript-two", "non-utf8-byte", "ascii-separators"],
    )
    def test_text_bad_line_is_format_error_with_line(self, tmp_path, raw, message):
        p = tmp_path / "tags.txt"
        p.write_bytes(raw)
        with pytest.raises(FormatError) as exc:
            load_timetags_text(p, "timestamps")
        assert str(exc.value) == message


_EDGE_VALUES = sorted(
    {0, 9, 10, 10**18 - 1, 10**18, 2**63 - 1}
    | {10**k + e for k in range(1, 19) for e in (-1, 0, 1)}
)


def _mixed_widths(size: int, seed: int) -> np.ndarray:
    """int64 values of every decimal width from 1 to 19 digits."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63 - 1, size, dtype=np.int64, endpoint=True) >> rng.integers(
        0, 63, size
    )


class TestWriteText:
    @pytest.mark.parametrize(
        "values",
        [
            _EDGE_VALUES,
            _mixed_widths(1000, 1),
            _mixed_widths((1 << 16) - 1, 2),
            _mixed_widths(1 << 16, 3),
            _mixed_widths((1 << 16) + 1, 4),
            _mixed_widths(3 << 16, 5),
        ],
        ids=["edges", "1000", "slab-1", "slab", "slab+1", "3-slabs"],
    )
    def test_bytes_match_format_and_reload(self, tmp_path, values):
        p = tmp_path / "tags.txt"
        write_timetags_text(series(values), p)
        assert p.read_bytes() == "".join(f"{v}\n" for v in values).encode()
        assert load_timetags_text(p, "interarrivals").values.tolist() == list(values)

    @pytest.mark.parametrize(
        "start", [10**9 - 1000, 10**8], ids=["crosses-a-power-of-ten", "one-width"]
    )
    def test_one_width_and_mixed_width_slabs(self, tmp_path, start):
        """Two and a half slabs of consecutive values: a slab of one width is
        written as a strided slice, a slab that crosses 10**9 through the mask."""
        values = start + np.arange(5 << 15, dtype=np.int64)
        p = tmp_path / "tags.txt"
        write_timetags_text(series(values), p)
        assert p.read_bytes() == "".join(f"{v}\n" for v in values.tolist()).encode()

    def test_empty_series_writes_empty_file(self, tmp_path):
        p = tmp_path / "tags.txt"
        write_timetags_text(series([]), p)
        assert p.read_bytes() == b""

    def test_holds_a_few_slabs(self, tmp_path):
        # 2^20 ten-digit timestamps are 11 MiB of text; one 2^16-tag slab is 0.7 MiB
        values = np.arange(1 << 20, dtype=np.int64) * 1000 + 10**9
        s = series(values, "timestamps")
        tracemalloc.start()
        try:
            write_timetags_text(s, tmp_path / "tags.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20


def _digit_runs():
    return st.one_of(
        st.text("0123456789", min_size=1, max_size=20),
        st.integers(2**63 - 3, 2**63 + 3).map(str),
        st.builds(lambda z, v: "0" * z + str(v), st.integers(1, 3), st.integers(0, 10**17)),
    ).map(str.encode)


def _lines():
    token = st.one_of(
        _digit_runs(), st.sampled_from([b"ps", b"ns", b"x9"]), st.binary(min_size=1, max_size=3)
    )
    return st.one_of(
        _digit_runs(),
        st.lists(token, min_size=1, max_size=4).map(b" ".join),
        st.sampled_from([b"", b" ", b"\t"]),
    )


@st.composite
def timetag_files(draw):
    """Plain files (digit runs and "\n" only) half the time, mixed layouts otherwise."""
    if draw(st.booleans()):
        lines, ends = st.lists(_digit_runs(), max_size=12), st.just(b"\n")
    else:
        lines = st.lists(_lines(), max_size=12)
        ends = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])
    raw = b"".join(line + draw(ends) for line in draw(lines))
    if raw and draw(st.booleans()):
        raw = raw[:-1]  # no final newline, or a CRLF cut to a lone "\r"
    return raw


def _outcome(load, path):
    try:
        return load(path).tolist()
    except ValueError as exc:  # FormatError, naming the bad line
        return type(exc), str(exc)


def _line_parser(path):
    """The line parser's values of the whole file, or its error."""
    values, fault = extract._parse_lines(path.read_bytes())
    if fault is not None:
        raise fault
    return values


@settings(max_examples=400, deadline=None)
@given(raw=timetag_files())
def test_text_fast_path_matches_line_parser(tmp_path_factory, raw):
    p = tmp_path_factory.getbasetemp() / "fuzz-tags.txt"
    p.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda q: load_timetags_text(q, "interarrivals").values, p)
    assert got == _outcome(_line_parser, p)
    plain = re.fullmatch(rb"(?:[0-9]{1,18}\n)*(?:[0-9]{1,18})?", raw)
    assert (extract._plain_values(raw) is not None) == bool(plain)


@pytest.mark.parametrize(
    "raw, taker",
    [
        (b"007\n012\n900\n", "matrix"),
        (b"1000000000000000000\n1000000000000000001\n", "lines"),
        (b"9999999999999999999\n", "lines"),
        (b"12\n345\n67\n", "fromstring"),
        (b"12\n3x\n45\n", "lines"),
        (b"12\n34", "matrix"),
        (b"12\n3\n456\n", "fromstring"),
        (b"123456789012345678\n999999999999999999\n", "matrix"),
    ],
    ids=[
        "leading-zeros",
        "19-digits",
        "19-digits-past-int64",
        "width-change",
        "non-digit",
        "no-final-newline",
        "first-width-divides-length",
        "18-digits",
    ],
)
def test_fixed_width_reads_match_line_parser(tmp_path, raw, taker):
    """A read of lines of 1-18 digits, each ended by a newline but perhaps
    the last, is parsed as a digit matrix when the lines have one width (so
    np.fromstring, patched to fail, is never called), else by np.fromstring;
    any other read gives the line parser's values, or its error text and
    line number."""
    p = tmp_path / "tags.txt"
    p.write_bytes(raw)
    unused = mock.patch.object(np, "fromstring", side_effect=AssertionError("not the matrix"))
    with unused if taker == "matrix" else contextlib.nullcontext():
        values = extract._plain_values(raw)
        got = _outcome(lambda q: load_timetags_text(q, "interarrivals").values, p)
    assert (values is None) == (taker == "lines")
    assert got == _outcome(_line_parser, p)
    if values is not None:
        assert values.tolist() == got


def _rising(draw, top: int) -> list[int]:
    """Up to 40 non-decreasing values, with one decrease at any index half the time."""
    size = draw(st.integers(0, 40))
    values = sorted(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)))
    k = draw(st.integers(0, len(values)))
    if 0 < k < len(values) and values[k - 1] > 0 and draw(st.booleans()):
        values[k] = values[k - 1] - 1
    return values


@st.composite
def rising_text_files(draw):
    """Timestamps in every layout the line parser accepts: digit groups, unit
    tokens, blank lines, CRLF and lone CR line ends; now and then one line
    the parser refuses, before or after a decrease."""

    def layout(v):
        digits = str(v)
        if draw(st.booleans()):  # "592 342" digit groups
            head = len(digits) % 3 or 3
            digits = " ".join([digits[:head]] + [digits[k : k + 3] for k in range(head, len(digits), 3)])
        return draw(st.sampled_from(["", " ", "\t"])) + digits + draw(st.sampled_from(["", " ps", " ns"]))

    lines = [layout(v) for v in _rising(draw, 10**12)]
    for _ in range(draw(st.integers(0, 3))):  # blank lines
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " "])))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(["x1", "5 ps 6", "9223372036854775808"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    raw = "".join(line + draw(ends) for line in lines).encode()
    if raw and draw(st.booleans()):
        raw = raw[:-1]
    return raw


@st.composite
def binary_files(draw):
    """64-bit tags as for rising_text_files; now and then one at or past 2^63,
    or a size that is not a multiple of 8."""
    values = _rising(draw, 2**62)
    if values and draw(st.integers(0, 5)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.integers(2**63 - 1, 2**64 - 1))
    raw = np.array(values, dtype="<u8").tobytes()
    return raw + draw(st.sampled_from([b""] * 6 + [b"\x01", b"\x01\x02\x03"]))


def _whole_read(raw, fmt, kind):
    """The values of raw read whole, line by line for text and value by
    value for binary, up to its first fault, and that fault's error text
    (None if it has none)."""
    if fmt == "text":
        values, fault = extract._parse_lines(raw)
        values, fault = values.tolist(), None if fault is None else str(fault)
    else:
        values, fault = [], None
        for k in range(0, len(raw) - 7, 8):
            value = int.from_bytes(raw[k : k + 8], "little")
            if value >= 2**63:
                fault = "time value exceeds signed 64-bit range"
                break
            values.append(value)
        else:
            if len(raw) % 8:
                fault = f"file size {len(raw)} bytes is not a multiple of 8"
    if kind == "timestamps":
        for k in range(1, len(values)):
            if values[k] < values[k - 1]:  # before the fault, so it is the first
                return values[:k], f"timestamps decrease at index {k} ({values[k - 1]} -> {values[k]})"
    return values, fault


def _extract(src, fmt, kind, divisor, out):
    """Exit code, stdout, stderr and output bytes of one extract run."""
    argv = ["extract", str(src), "--format", fmt, "--kind", kind, "--divisor", str(divisor)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    bits = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, stdout.getvalue(), stderr.getvalue(), bits


@settings(max_examples=400, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("text"), st.one_of(timetag_files(), rising_text_files())),
        st.tuples(st.just("binary"), binary_files()),
    ),
    kind=st.sampled_from(["timestamps", "interarrivals"]),
    divisor=st.sampled_from([1, 3, 2**63 - 1]),
    read=st.integers(1, 48),
)
def test_chunked_extraction_matches_whole_file(tmp_path_factory, case, kind, divisor, read):
    """Reads of a few bytes cut lines, CRLFs, values and decreases across
    chunks; the bits, the ones fraction, or the error text, stay those of
    one whole-file read (inputs here are far below the default read size).
    An error is that of the first fault in the input, and bits are the
    parities of the values read whole."""
    fmt, raw = case
    src = tmp_path_factory.getbasetemp() / "fuzz-extract-in"
    out = tmp_path_factory.getbasetemp() / "fuzz-extract-out"
    src.write_bytes(raw)
    whole = _extract(src, fmt, kind, divisor, out)
    with mock.patch.object(bitstream, "SLAB", read):
        assert _extract(src, fmt, kind, divisor, out) == whole
    code, _, err, bits = whole
    assert (code == EXIT_ERROR) == (bits is None) == err.startswith("error: ")
    values, fault = _whole_read(raw, fmt, kind)
    gaps = np.diff(values) if kind == "timestamps" else np.array(values, dtype=np.int64)
    if fault is not None:
        assert (code, err) == (EXIT_ERROR, f"error: {fault}\n")
    elif gaps.size == 0:
        assert code == EXIT_ERROR  # no time tags, or one timestamp
    else:
        assert bits == np.packbits((gaps // divisor) & 1).tobytes()


def test_extract_differences_each_timestamp_once(tmp_path):
    """On the CLI path each timestamps chunk is checked once, by the stream,
    and differenced once, by interarrivals: no series is scanned again by
    TimeTagSeries, and the differences computed number n - 1 for n tags.
    A series built directly is still checked."""
    stamps = np.cumsum(np.random.default_rng(3).integers(0, 1000, 1001))
    src, out = tmp_path / "tags.bin", tmp_path / "bits.bin"
    src.write_bytes(stamps.astype("<u8").tobytes())
    differenced = []

    class Numpy:  # numpy as extract sees it, counting the values np.diff returns
        def __getattr__(self, name):
            return getattr(np, name)

        def diff(self, a, *args, **kwargs):
            d = np.diff(a, *args, **kwargs)
            differenced.append(d.size)
            return d

    with (
        mock.patch.object(extract, "np", Numpy()),
        mock.patch.object(bitstream, "SLAB", 8 * 100),  # 11 reads of 100 tags
        mock.patch.object(TimeTagSeries, "__post_init__", side_effect=AssertionError("scan")),
    ):
        assert _extract(src, "binary", "timestamps", 1, out)[0] != EXIT_ERROR
    assert len(differenced) > 10 and sum(differenced) == stamps.size - 1
    with pytest.raises(DataError, match=r"decrease at index 2 \(9 -> 8\)"):
        series([1, 9, 8], "timestamps")
    with pytest.raises(DataError, match="negative time value at index 0"):
        series([-1, 2])


def test_generate_and_extract_memory_is_flat_in_n(tmp_path):
    """generate and extract hold a chunk at a time, not the run: their peaks
    at 2^20 tags (11 MiB of text) equal those at 2^18 tags."""
    peaks = {"generate": [], "extract": []}
    for tags in ((1 << 18) + 1, (1 << 20) + 1):
        text, bits = tmp_path / f"{tags}.txt", tmp_path / f"{tags}.bin"
        generate = ["generate", "--kind", "detector", "--n", str(tags), "--seed", "3"]
        generate += ["--afterpulse-prob", "0.05", "--out-format", "timetags-text", "--out", str(text)]
        extract_ = ["extract", str(text), "--format", "text", "--kind", "timestamps", "--out", str(bits)]
        for step, argv in (("generate", generate), ("extract", extract_)):
            with contextlib.redirect_stdout(io.StringIO()):
                peaks[step].append(traced_peak(lambda: main(argv)))
        assert bits.stat().st_size == (tags - 1) // 8
    for step, (small, large) in peaks.items():
        assert large <= 1.1 * small, (step, small, large)
        assert large < 10 << 20, (step, large)  # a detector refill, or a read, and their values


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_timetag_stream_memory_is_flat_in_n(tmp_path, fmt):
    """The time-tag stream, stream_timetags through interarrivals to
    timetags_to_bits, holds one read of bitstream.SLAB bytes and its values
    at a time: its peak at 2^20 + 1 tags equals that at 2^18 + 1, below 1 MiB."""
    write = {"text": write_timetags_text, "binary": write_timetags_binary}[fmt]
    peaks = []
    for tags in ((1 << 18) + 1, (1 << 20) + 1):
        src = tmp_path / f"{tags}.{fmt}"
        write(series(np.cumsum(np.random.default_rng(tags).integers(0, 2000, tags)), "timestamps"), src)
        bits = []

        def drain():
            for chunk in stream_timetags(src, fmt, "timestamps"):
                bits.append(timetags_to_bits(interarrivals(chunk)).n)

        peaks.append(traced_peak(drain))
        assert sum(bits) == tags - 1
    small, large = peaks
    assert large <= 1.1 * small, (small, large)
    assert large < 1 << 20, large


def test_reads_fit_the_line_limit():
    """A read holds no line longer than _MAX_LINE, so only the lines that span
    reads need the check."""
    assert bitstream.SLAB <= extract._MAX_LINE


def test_over_long_line_is_refused(tmp_path, capsys):
    """A line longer than 1 MiB is refused before it is joined: 16 MiB of
    spaces before "5" is never held whole, and extract exits 2 naming it."""
    src, out = tmp_path / "tags.txt", tmp_path / "bits"
    src.write_bytes(b" " * (16 << 20) + b"5\n6\n")

    def load():
        with pytest.raises(FormatError, match=r"^line 1: longer than 1048576 bytes$"):
            load_timetags_text(src, "timestamps")

    assert traced_peak(load) < 4 << 20
    argv = ["extract", str(src), "--format", "text", "--kind", "timestamps", "--out", str(out)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == "error: line 1: longer than 1048576 bytes\n"
    assert not out.exists()


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("read", [1, 2, 3, 5, 7, 8])
def test_line_limit_is_exact_at_any_read_size(tmp_path, eol, read):
    """With the limit at 8 bytes a line of 8 is read and one of 9 is refused
    with its line number, wherever reads of at most 8 bytes (as SLAB is at
    most _MAX_LINE) cut the lines and their ends."""
    p = tmp_path / "tags.txt"
    with mock.patch.object(bitstream, "SLAB", read), mock.patch.object(extract, "_MAX_LINE", 8):
        p.write_text(f"5{eol}1234 678{eol}{eol}7", newline="")
        assert load_timetags_text(p, "interarrivals").values.tolist() == [5, 1234678, 7]
        p.write_text(f"5{eol}1234 678{eol}{eol}1234 6789{eol}7", newline="")
        with pytest.raises(FormatError, match=r"^line 4: longer than 8 bytes$"):
            load_timetags_text(p, "interarrivals")


def truncated_exponential(rate=1.0, a=0.0, b=10.0):
    z = 1.0 - math.exp(-rate * (b - a))
    return DensitySpec(
        a,
        b,
        lambda x: rate * math.exp(-rate * (x - a)) / z,
        lambda x: -(rate**2) * math.exp(-rate * (x - a)) / z,
    )


class TestDensitySpec:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DensitySpec(0.0, 1.0, lambda x: 2.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            DensitySpec(1.0, 1.0, lambda x: 1.0)

    def test_finite_difference_derivative(self):
        d = DensitySpec(0.0, 1.0, lambda x: 2.0 * x)
        assert d.ddx(0.3) == pytest.approx(2.0, rel=1e-5)


class TestParityBiasEstimate:
    def test_uniform_density(self):
        d = DensitySpec(0.0, 1.0, lambda x: 1.0, lambda x: 0.0)
        for L in (1, 3, 64):
            exact, approx = parity_bias_estimate(d, L)
            assert exact == pytest.approx(0.5, abs=1e-12)
            assert approx == pytest.approx(0.5, abs=1e-12)

    def test_linear_density_closed_form(self):
        d = DensitySpec(0.0, 1.0, lambda x: 2.0 * x, lambda x: 2.0)
        exact, approx = parity_bias_estimate(d, 2)
        # odd bins are (1/4,1/2) and (3/4,1): x^2 differences
        assert exact == pytest.approx((0.25 - 0.0625) + (1.0 - 0.5625), rel=1e-10)
        assert exact == pytest.approx(0.625)

    def test_masses_are_complementary(self):
        d = truncated_exponential()
        exact, _ = parity_bias_estimate(d, 16)
        even = 0.0
        from scipy.integrate import quad

        h = (d.b - d.a) / 32
        for i in range(16):
            even += quad(d.density, d.a + 2 * i * h, d.a + (2 * i + 1) * h)[0]
        assert exact + even == pytest.approx(1.0, abs=1e-9)

    def test_gap_shrinks_quadratically(self):
        d = truncated_exponential()
        gaps = {}
        for L in (128, 256, 512):
            exact, approx = parity_bias_estimate(d, L)
            gaps[L] = abs(exact - approx)
        assert 3.0 < gaps[128] / gaps[256] < 5.0
        assert 3.0 < gaps[256] / gaps[512] < 5.0

    def test_bias_shrinks_with_bin_count(self):
        # the odd-parity excess decays like 1/L for a smooth density
        d = truncated_exponential()
        b512 = abs(parity_bias_estimate(d, 512)[0] - 0.5)
        b2048 = abs(parity_bias_estimate(d, 2048)[0] - 0.5)
        assert b2048 < b512 / 3.0

    def test_l_validation(self):
        with pytest.raises(ValueError):
            parity_bias_estimate(truncated_exponential(), 0)
