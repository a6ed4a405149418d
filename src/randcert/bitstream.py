"""Packed binary sequences and file ingestion.

Bits are stored 8 per byte, MSB-first within each byte (the usual raw-RNG
dump convention). Trailing pad bits in the last byte are always zero, so
two sequences are equal iff their (n, storage) pairs are equal.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError

# class of each byte value in ASCII input: its bit for "0"/"1", 2 for
# whitespace (skipped), 3 for anything else (refused)
_ASCII_CLASS = np.full(256, 3, dtype=np.uint8)
_ASCII_CLASS[list(b" \t\r\n\x0b\x0c")] = 2
_ASCII_CLASS[list(b"01")] = [0, 1]
# bits per chunk that load_ascii and load_packed join: 128 KiB packed, so a
# load peaks near one packed copy of the bits plus a chunk
_LOAD_CHUNK = 1 << 20
_SLAB = 1 << 20  # bytes read, or packed bytes rendered, at a time


@dataclass(frozen=True)
class BitSequence:
    """An immutable sequence of n bits, packed MSB-first."""

    data: bytes
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("bit count must be non-negative")
        if len(self.data) != (self.n + 7) // 8:
            raise ValueError(
                f"storage holds {len(self.data)} bytes but n={self.n} "
                f"needs {(self.n + 7) // 8}"
            )

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self.n:
            raise IndexError(f"bit index {k} out of range for n={self.n}")
        return (self.data[k >> 3] >> (7 - (k & 7))) & 1

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitSequence":
        """Pack 0/1 values MSB-first: a 1-D bool or integer ndarray as it is,
        any other iterable through np.fromiter."""
        arr = bits
        if not (isinstance(bits, np.ndarray) and bits.ndim == 1 and bits.dtype.kind in "biu"):
            arr = np.fromiter(bits, dtype=np.uint8)
        if arr.size and arr.dtype != bool and (arr.max() > 1 or arr.min() < 0):
            raise ValueError("bits must be 0 or 1")
        return cls(np.packbits(arr).tobytes(), int(arr.size))

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitSequence":
        """Build from packed bytes, zeroing any pad bits beyond n. Whole-byte
        bytes are used as they are; anything else is copied exactly once."""
        if n > 8 * len(data):
            raise ValueError(f"n={n} exceeds {8 * len(data)} bits of data")
        if n == 8 * len(data):
            return cls(bytes(data), n)
        whole, pad = divmod(n, 8)
        last = bytes([data[whole] & (0xFF << (8 - pad) & 0xFF)]) if pad else b""
        return cls(b"".join((memoryview(data)[:whole], last)), n)

    def to_bit_array(self) -> np.ndarray:
        """Unpacked bits as a uint8 array of length n."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8))[: self.n]


def _bits_from_ascii(chunk: bytes, base_offset: int) -> np.ndarray:
    cls = _ASCII_CLASS[np.frombuffer(chunk, dtype=np.uint8)]
    if cls.max(initial=0) == 3:
        off = int(np.argmax(cls == 3))
        raise FormatError(
            f"invalid character {chunk[off:off + 1]!r} at byte offset "
            f"{base_offset + off} (expected '0', '1' or whitespace)",
            offset=base_offset + off,
        )
    return cls[cls < 2]


def load_ascii(path) -> BitSequence:
    """Read a '0'/'1' text file; whitespace is skipped."""
    return concat(stream_ascii(path, _LOAD_CHUNK))


def load_packed(path, n: int | None = None) -> BitSequence:
    """Read raw packed bytes, MSB-first. n defaults to 8 * byte length."""
    return concat(stream_packed(path, _LOAD_CHUNK, n))


def _chunks(obj, cls) -> Iterable:
    """obj as an iterable of chunks: one cls object is a stream of one chunk."""
    return [obj] if isinstance(obj, cls) else obj


def write_ascii(seq, path) -> None:
    """Write the bits as '0'/'1' text ended by one newline. seq is one
    BitSequence, or an iterable of chunks written as they come."""
    with open(path, "wb") as fh:
        for chunk in _chunks(seq, BitSequence):
            data = np.frombuffer(chunk.data, dtype=np.uint8)
            for a in range(0, data.size, _SLAB):
                text = np.unpackbits(data[a : a + _SLAB])[: chunk.n - 8 * a]
                text |= ord("0")
                fh.write(text)
        fh.write(b"\n")


def write_packed(seq, path) -> None:
    """Write the packed bytes; seq as for write_ascii, and only the last
    chunk may end inside a byte."""
    with open(path, "wb") as fh:
        for chunk in _whole_bytes_but_last(_chunks(seq, BitSequence)):
            fh.write(chunk.data)


def stream_ascii(path, chunk_bits: int) -> Iterator[BitSequence]:
    """Yield chunks of exactly chunk_bits bits (the last may be short) from a
    '0'/'1' text file. chunk_bits must be a multiple of 8, and of the block
    length when per-chunk block counts are to be merged."""
    if chunk_bits <= 0 or chunk_bits % 8:
        raise ValueError("chunk_bits must be a positive multiple of 8")
    packed = bytearray()
    loose = np.empty(0, dtype=np.uint8)  # the fewer than 8 bits not yet packed
    offset = 0
    with open(path, "rb") as fh:
        while raw := fh.read(_SLAB):
            bits = np.concatenate([loose, _bits_from_ascii(raw, offset)])
            offset += len(raw)
            whole = bits.size - bits.size % 8
            packed += np.packbits(bits[:whole]).tobytes()
            loose = bits[whole:]
            while 8 * len(packed) >= chunk_bits:
                yield BitSequence(bytes(memoryview(packed)[: chunk_bits // 8]), chunk_bits)
                del packed[: chunk_bits // 8]
    tail = 8 * len(packed) + loose.size
    if tail:
        yield BitSequence(bytes(packed) + np.packbits(loose).tobytes(), tail)


def stream_packed(path, chunk_bits: int, n: int | None = None) -> Iterator[BitSequence]:
    """Yield chunks of chunk_bits bits (the last may be short) from a packed
    file, read in order up to bit n or to its end; chunk_bits is a multiple
    of 8. The one place that resolves and checks a packed n: an n past the
    end is refused when the input ends, so a pipe is read as a file is, and
    no read asks for more than one chunk, however large n is."""
    if chunk_bits <= 0 or chunk_bits % 8:
        raise ValueError("chunk_bits must be a positive multiple of 8")
    if n is not None and n < 0:
        raise ValueError(f"requested n={n} is negative")
    done = 0  # bits yielded
    with open(path, "rb") as fh:
        while n is None or done < n:
            want = chunk_bits // 8 if n is None else min(chunk_bits // 8, (n - done + 7) // 8)
            data = fh.read(want)
            if n is not None and len(data) < want:
                raise ValueError(f"requested n={n} but file holds only {done + 8 * len(data)} bits")
            if not data:
                return
            take = 8 * len(data) if n is None else min(8 * len(data), n - done)
            done += take
            yield BitSequence.from_bytes(data, take)
            del data  # freed before the next read, so one chunk is held at a time


def _whole_bytes_but_last(chunks: Iterable[BitSequence]) -> Iterator[BitSequence]:
    """The chunks, refusing one that follows a chunk ending inside a byte."""
    n = 0
    for c in chunks:
        if n % 8:
            raise ValueError("only the last chunk may end inside a byte")
        n += c.n
        yield c


def concat(chunks: Iterable[BitSequence]) -> BitSequence:
    """Join chunks into one sequence; only the last may end inside a byte.
    Each chunk is written to one buffer as it arrives, so the bits are held once."""
    out, n = io.BytesIO(), 0
    for c in _whole_bytes_but_last(chunks):
        out.write(c.data)
        n += c.n
    return BitSequence(out.getvalue(), n)
