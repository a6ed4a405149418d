"""Bit extraction from photon time tags via least-significant-digit parity,
plus the analytic bias estimate for a given interarrival density.

The parity of an integer interarrival time equals the parity of its least
significant decimal digit, so extraction is a mod-2 after an optional
integer divisor that models coarser timing resolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bitstream import BitSequence, _chunks
from .errors import DataError, FormatError, NumericError

_INT64_MAX = int(np.iinfo(np.int64).max)
# ASCII whitespace as str.split() and str.strip() see it; the bytes methods miss \x1c-\x1f
_STR_WS = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_STR_WS_TO_SPACE = bytes.maketrans(_STR_WS, b" " * len(_STR_WS))

TIMESTAMPS = "timestamps"
INTERARRIVALS = "interarrivals"


@dataclass(frozen=True)
class TimeTagSeries:
    values: np.ndarray  # int64, non-negative
    unit: str  # e.g. "ps"; metadata only
    kind: str  # "timestamps" or "interarrivals"

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.int64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.kind not in (TIMESTAMPS, INTERARRIVALS):
            raise ValueError(f"kind must be '{TIMESTAMPS}' or '{INTERARRIVALS}'")
        if vals.size and vals.min() < 0:
            idx = int(np.argmax(vals < 0))
            raise DataError(f"negative time value at index {idx}", index=idx)
        if self.kind == TIMESTAMPS and vals.size >= 2:
            diffs = np.diff(vals)
            if (diffs < 0).any():
                raise _decrease(vals, int(np.argmax(diffs < 0)) + 1)

    def __len__(self) -> int:
        return int(self.values.size)


def _decrease(vals: np.ndarray, idx: int, base: int = 0) -> DataError:
    """The error for vals[idx - 1] > vals[idx], where vals[0] has index base."""
    return DataError(
        f"timestamps decrease at index {base + idx} ({vals[idx - 1]} -> {vals[idx]})",
        index=base + idx,
    )


def interarrivals(series: TimeTagSeries) -> TimeTagSeries:
    """Difference consecutive timestamps; length drops by one."""
    if series.kind != TIMESTAMPS:
        raise ValueError("interarrivals() expects a timestamps series")
    if len(series) < 2:
        raise DataError("need at least two timestamps to difference")
    return TimeTagSeries(np.diff(series.values), series.unit, INTERARRIVALS)


def check_divisor(divisor: int) -> None:
    """Refuse a divisor outside 1 .. 2^63 - 1, the range of the time tags."""
    if divisor < 1:
        raise ValueError(f"divisor must be a positive integer, got {divisor}")
    if divisor > _INT64_MAX:
        raise ValueError(f"divisor {divisor} exceeds 2^63 - 1, the largest time tag")


def timetags_to_bits(series: TimeTagSeries, divisor: int = 1) -> BitSequence:
    """Parity extraction: bit = floor(value / divisor) mod 2 (even -> 0)."""
    if series.kind != INTERARRIVALS:
        raise ValueError("timetags_to_bits() expects interarrivals; difference first")
    check_divisor(divisor)
    return BitSequence.from_bits(((series.values // divisor) & 1).astype(np.uint8))


_READ = 1 << 20  # bytes read at a time; a multiple of 8, so binary reads end between values
# bytes in the longest time-tag line accepted, which is held whole before it
# is parsed; _READ is no larger, so only a line that spans reads can pass it
_MAX_LINE = 1 << 20


def stream_timetags(path, fmt: str, kind: str) -> Iterator[TimeTagSeries]:
    """Yield the series of a time-tag file ("text" or "binary" fmt) in chunks,
    reading _READ bytes at a time.

    A timestamps chunk after the first begins with the last timestamp of the
    chunk before, so each chunk differences on its own. Every chunk but the
    last adds a multiple of 8 values (of differences, for timestamps), so its
    parity bits are whole bytes. An input with no values, or with one
    timestamp, is one chunk of them. The first fault in the input is the one
    reported, as soon as the read that holds it is parsed, and nothing after
    it is read: a decrease of the timestamps with its index in the whole
    series, or a format fault with its line.
    """
    parse = {"text": _text_values, "binary": _binary_values}.get(fmt)
    if parse is None:
        raise ValueError(f"time-tag format must be 'text' or 'binary', got {fmt!r}")
    overlap = int(kind == TIMESTAMPS)
    held = np.empty(0, dtype=np.int64)  # the overlap, then the values not yet yielded
    base = 0  # index of held[0] in the whole series
    yielded = False
    with open(path, "rb") as fh:
        for values in parse(fh):
            chunk = np.concatenate([held, values])
            if overlap and (drops := np.flatnonzero(np.diff(chunk) < 0)).size:
                raise _decrease(chunk, int(drops[0]) + 1, base)
            take = (chunk.size - overlap) & ~7
            if take <= 0:
                held = chunk
                continue
            held, base, yielded = chunk[take:], base + take, True
            yield TimeTagSeries(chunk[: take + overlap], "", kind)
    if held.size > overlap or not yielded:
        yield TimeTagSeries(held, "", kind)


def _joined(chunks: Iterator[TimeTagSeries]) -> TimeTagSeries:
    """The whole series of a stream_timetags stream."""
    first = next(chunks)
    overlap = int(first.kind == TIMESTAMPS)
    values = np.concatenate([first.values, *(c.values[overlap:] for c in chunks)])
    return TimeTagSeries(values, first.unit, first.kind)


def load_timetags_text(path, kind: str) -> TimeTagSeries:
    """One tag per line; digit groups may be separated by spaces (e.g.
    "592 342 ps"); a trailing non-numeric unit token is ignored. Drains
    stream_timetags.

    Each read is cut after its last whole line. A plain run of lines, every
    one 1-18 ASCII digits ended by "\\n" (the last newline of the file may
    be missing), is checked and parsed in numpy: as a digit matrix when its
    lines all have one width, else by np.fromstring. Any other run, blank lines
    and CRLF included, goes to the line parser, which gives the same values
    up to a bad line; that line is reported with its number after the values
    before it, so a decrease among them is reported first.
    """
    return _joined(stream_timetags(path, "text", kind))


def _text_values(fh) -> Iterator[np.ndarray]:
    """The values of a text file, one array per read of whole lines. A bad
    line is reported after the values before it are yielded, and a line
    longer than _MAX_LINE bytes is refused before it is joined."""
    # the reads since the last line end, their bytes, and the lines before them
    tail, held, lineno = [], 0, 0
    after_cr = False  # whether the last line cut ended in "\r", whose "\n" may begin this read
    while True:
        raw = fh.read(_READ)
        first = min((k for k in (raw.find(b"\n"), raw.find(b"\r")) if k >= 0), default=len(raw))
        if held + first > _MAX_LINE:
            raise FormatError(f"line {lineno + 1}: longer than {_MAX_LINE} bytes")
        if raw and first == len(raw):  # joined once the line ends, so a long line is copied once
            tail.append(raw)
            held += len(raw)
            continue
        cut = max(raw.rfind(b"\n"), raw.rfind(b"\r")) + 1
        data, tail, held = b"".join([*tail, raw[:cut]]), [raw[cut:]], len(raw) - cut
        if after_cr and data.startswith(b"\n"):  # the end of a "\r\n" split by the cut
            lineno -= 1
        after_cr = data.endswith(b"\r")
        values, fault = _plain_values(data), None
        if values is not None:
            lines = values.size
        else:
            values, fault = _parse_lines(data, lineno)
            lines = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
        yield values
        if fault is not None:
            raise fault
        if not raw:
            return
        lineno += lines


_PLAIN_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1, so no plain value overflows int64


def _plain_values(raw: bytes) -> np.ndarray | None:
    """The values of raw when every line is 1-18 ASCII digits ended by "\\n"
    (the last newline may be missing), else None, for the line parser. The
    read is checked once; then lines of one width are parsed from a (lines,
    width) digit matrix by Horner's rule over its columns, and others by
    np.fromstring(sep="\\n"), which parses exactly such lines right."""
    if not raw:
        return np.empty(0, dtype=np.int64)
    if not raw.endswith(b"\n"):
        raw += b"\n"
    b = np.frombuffer(raw, dtype=np.uint8)
    if b.max() > ord("9"):
        return None
    ends = np.flatnonzero(b < ord("0"))
    if (b[ends] != ord("\n")).any():  # a byte below "0" other than "\n"
        return None
    line_bytes = np.diff(ends, prepend=-1)  # digits plus the newline
    # Both limits guard correctness: np.fromstring reads an empty line as 0
    # ("\n" gives [0]) and silently clamps any value >= 2**63 to 2**63 - 1.
    narrow, width = int(line_bytes.min()), int(line_bytes.max())
    if narrow < 2 or width > _PLAIN_MAX_DIGITS + 1:
        return None
    if narrow < width:
        return np.fromstring(raw, dtype=np.int64, sep="\n")
    rows = b.reshape(-1, width)
    values = rows[:, 0].astype(np.int64)
    for k in range(1, width - 1):
        values *= 10
        values += rows[:, k]
    values -= ord("0") * (10 ** (width - 1) - 1) // 9  # each digit's "0", as 48 * 11...1
    return values


def _parse_lines(raw: bytes, lineno: int = 0) -> tuple[np.ndarray, FormatError | None]:
    """The general parser: one line at a time, any layout the loader accepts.
    Digits are ASCII only (bytes.isdigit); lines end at "\\n", "\\r\\n" or "\\r".
    lineno lines come before raw, for the line numbers of errors. Returns the
    values, and None; or, at the first bad line, the values before it and
    its FormatError."""
    values, fault = [], None
    for lineno, line in enumerate(raw.splitlines(), lineno + 1):
        tokens = line.translate(_STR_WS_TO_SPACE).split()
        if not tokens:
            continue
        digits = b""
        rest = []
        for pos, tok in enumerate(tokens):
            if tok.isdigit() and not rest:
                digits += tok
            else:
                rest = tokens[pos:]
                break
        if not digits or any(tok.isdigit() for tok in rest):
            what = "number after unit token" if digits else "no number found"
            shown = repr(line.strip(_STR_WS))[1:]  # bytes repr without the b; non-ASCII as \xNN
            fault = FormatError(f"line {lineno}: {what} in {shown}")
            break
        value = int(digits)
        if value > _INT64_MAX:
            fault = FormatError(f"line {lineno}: time value exceeds signed 64-bit range")
            break
        values.append(value)
    return np.asarray(values, dtype=np.int64), fault


def load_timetags_binary(path, kind: str) -> TimeTagSeries:
    """64-bit little-endian unsigned integers. Drains stream_timetags."""
    return _joined(stream_timetags(path, "binary", kind))


def _binary_values(fh) -> Iterator[np.ndarray]:
    """The values of a binary file, one array per read. At the first value
    past 2^63 - 1 the values before it are yielded and it is reported; a size
    that is not a multiple of 8 is reported at the end of the input."""
    tail, size = b"", 0  # a pipe may return a read that ends inside a value
    while raw := fh.read(_READ):
        size += len(raw)
        data = tail + raw
        whole = len(data) & ~7
        tail = data[whole:]
        u = np.frombuffer(data, dtype="<u8", count=whole // 8)
        big = np.flatnonzero(u > _INT64_MAX)
        yield u[: big[0] if big.size else None].astype(np.int64)
        if big.size:
            raise FormatError("time value exceeds signed 64-bit range")
    if tail:
        raise FormatError(f"file size {size} bytes is not a multiple of 8")


_TEXT_SLAB = 1 << 16  # tags formatted at a time; the whole text is never held
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10**18


@functools.cache
def _digit_groups() -> np.ndarray:
    """The ASCII of "0000" .. "9999", one uint32 per 4-digit group. Built on
    first use, so importing the module stays cheap."""
    d = np.arange(10_000)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def write_timetags_text(series, path) -> None:
    """One decimal value per line, as f"{v}\\n" writes it, formatted in numpy:
    each slab fills a (tags, groups + 1) uint32 matrix with 4-digit groups
    (the last column holds the newline). A slab whose values all have w
    digits is written as the strided slice of each row's last w digits and
    its newline; in any other slab a mask keeps each row's digits from its
    first significant one through the newline. series is one TimeTagSeries,
    or an iterable of them written as they come."""
    groups = _digit_groups()
    with open(path, "wb") as fh:
        for chunk in _chunks(series, TimeTagSeries):
            for a in range(0, len(chunk), _TEXT_SLAB):
                v = chunk.values[a : a + _TEXT_SLAB]
                narrow, wide = np.searchsorted(_POW10, (v.min(), v.max()), side="right") + 1
                g = -(-int(wide) // 4)
                width = None if narrow == wide else np.searchsorted(_POW10, v, side="right") + 1
                text = np.empty((v.size, g + 1), dtype=np.uint32)
                chars = text.view(np.uint8)
                chars[:, 4 * g] = ord("\n")
                for k in range(g - 1, -1, -1):
                    v, r = np.divmod(v, 10_000)
                    text[:, k] = groups[r]
                if width is None:
                    fh.write(chars[:, 4 * g - wide : 4 * g + 1].tobytes())
                    continue
                # row w of keep_by_width keeps w digits and the newline
                col = np.arange(4 * g + 4)
                keep_by_width = (col >= 4 * g - np.arange(4 * g + 1)[:, None]) & (col <= 4 * g)
                fh.write(chars[keep_by_width[width]])


def write_timetags_binary(series, path) -> None:
    """64-bit little-endian values; series as for write_timetags_text."""
    with open(path, "wb") as fh:
        for chunk in _chunks(series, TimeTagSeries):
            fh.write(chunk.values.astype("<u8"))


@dataclass(frozen=True)
class DensitySpec:
    """A probability density on (a, b), with optional analytic derivative."""

    a: float
    b: float
    density: Callable[[float], float]
    derivative: Callable[[float], float] | None = None

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("support interval must have b > a")
        from scipy.integrate import quad  # imported here: it is most of the CLI's start-up time

        mass, _ = quad(self.density, self.a, self.b, limit=200)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {mass}, not 1")

    def ddx(self, x: float) -> float:
        if self.derivative is not None:
            return self.derivative(x)
        h = (self.b - self.a) * 1e-6
        return (self.density(x + h) - self.density(x - h)) / (2.0 * h)


def parity_bias_estimate(density: DensitySpec, L: int) -> tuple[float, float]:
    """Odd-parity mass over a 2L-bin grid of (a, b).

    Returns (exact_odd, approx_odd): the exact odd-bin mass by adaptive
    quadrature, and the left-sum approximation
    1/2 + (1/2) * sum rho'(x_{2i}) * ((b-a)/2L)^2.
    """
    if L < 1:
        raise ValueError(f"half bin count L must be >= 1, got {L}")
    from scipy.integrate import quad

    a, b = density.a, density.b
    h = (b - a) / (2 * L)
    exact = 0.0
    for i in range(L):
        lo = a + (2 * i + 1) * h
        hi = a + (2 * i + 2) * h
        mass, err = quad(density.density, lo, hi)
        if not np.isfinite(mass) or err > 1e-9 + 1e-6 * abs(mass):
            raise NumericError(f"quadrature failed on bin ({lo}, {hi}): {mass} +/- {err}")
        exact += mass
    approx = 0.5 + 0.5 * h * h * sum(density.ddx(a + 2 * i * h) for i in range(L))
    return exact, approx
