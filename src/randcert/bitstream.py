"""Packed binary sequences and file ingestion.

Bits are stored 8 per byte, MSB-first within each byte (the usual raw-RNG
dump convention). Trailing pad bits in the last byte are always zero, so
two sequences are equal iff their (n, storage) pairs are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError

_ASCII_BITS = frozenset(b"01")
_ASCII_WS = frozenset(b" \t\r\n\x0b\x0c")


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
        return bit_at(self, k)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitSequence":
        arr = np.fromiter(bits, dtype=np.uint8)
        if arr.size and arr.max() > 1:
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


def bit_at(seq: BitSequence, k: int) -> int:
    if not 0 <= k < seq.n:
        raise IndexError(f"bit index {k} out of range for n={seq.n}")
    return (seq.data[k >> 3] >> (7 - (k & 7))) & 1


def _bits_from_ascii(chunk: bytes, base_offset: int) -> np.ndarray:
    arr = np.frombuffer(chunk, dtype=np.uint8)
    is_zero = arr == ord("0")
    is_one = arr == ord("1")
    is_ws = np.isin(arr, np.frombuffer(bytes(_ASCII_WS), dtype=np.uint8))
    bad = ~(is_zero | is_one | is_ws)
    if bad.any():
        off = int(np.argmax(bad))
        raise FormatError(
            f"invalid character {chunk[off:off + 1]!r} at byte offset "
            f"{base_offset + off} (expected '0', '1' or whitespace)",
            offset=base_offset + off,
        )
    return arr[is_zero | is_one] - ord("0")


def load_ascii(path) -> BitSequence:
    """Read a '0'/'1' text file; whitespace is skipped."""
    with open(path, "rb") as fh:
        raw = fh.read()
    bits = _bits_from_ascii(raw, 0)
    return BitSequence(np.packbits(bits).tobytes(), int(bits.size))


def load_packed(path, n: int | None = None) -> BitSequence:
    """Read raw packed bytes, MSB-first. n defaults to 8 * byte length."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if n is None:
        n = 8 * len(raw)
    if n > 8 * len(raw):
        raise ValueError(f"requested n={n} but file holds only {8 * len(raw)} bits")
    return BitSequence.from_bytes(raw, n)


def render_ascii(seq: BitSequence) -> str:
    return "".join("01"[b] for b in seq.to_bit_array())


def write_ascii(seq: BitSequence, path) -> None:
    with open(path, "w") as fh:
        fh.write(render_ascii(seq))
        fh.write("\n")


def write_packed(seq: BitSequence, path) -> None:
    with open(path, "wb") as fh:
        fh.write(seq.data)


def stream_ascii(path, chunk_bits: int) -> Iterator[BitSequence]:
    """Yield BitSequence chunks of exactly chunk_bits bits (last may be short).

    chunk_bits should be a multiple of the consumer's block length so that
    per-chunk block counting never splits a block.
    """
    if chunk_bits <= 0:
        raise ValueError("chunk_bits must be positive")
    pending = np.empty(0, dtype=np.uint8)
    offset = 0
    with open(path, "rb") as fh:
        while True:
            raw = fh.read(1 << 20)
            if not raw:
                break
            bits = _bits_from_ascii(raw, offset)
            offset += len(raw)
            pending = np.concatenate([pending, bits])
            while pending.size >= chunk_bits:
                head, pending = pending[:chunk_bits], pending[chunk_bits:]
                yield BitSequence(np.packbits(head).tobytes(), chunk_bits)
    if pending.size:
        yield BitSequence(np.packbits(pending).tobytes(), int(pending.size))


def stream_packed(path, chunk_bits: int, n: int | None = None) -> Iterator[BitSequence]:
    """Yield chunks from a packed file; chunk_bits must be a multiple of 8."""
    if chunk_bits <= 0 or chunk_bits % 8:
        raise ValueError("chunk_bits must be a positive multiple of 8")
    import os

    size_bits = 8 * os.path.getsize(path)
    if n is None:
        n = size_bits
    if n > size_bits:
        raise ValueError(f"requested n={n} but file holds only {size_bits} bits")
    remaining = n
    with open(path, "rb") as fh:
        while remaining > 0:
            take = min(chunk_bits, remaining)
            raw = fh.read((take + 7) // 8)
            yield BitSequence.from_bytes(raw, take)
            remaining -= take


def concat(chunks: Iterable[BitSequence]) -> BitSequence:
    """Join chunks back into one sequence (used to check streaming parity)."""
    parts = [c.to_bit_array() for c in chunks]
    if not parts:
        return BitSequence(b"", 0)
    bits = np.concatenate(parts)
    return BitSequence(np.packbits(bits).tobytes(), int(bits.size))
