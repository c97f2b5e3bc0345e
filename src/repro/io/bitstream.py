"""Bit-exact packing of compressed samples.

Compressed samples are ``N_B``-bit unsigned integers (20 bits for the
prototype), which do not align to byte boundaries; transmitting them as 32-bit
words would waste 37 % of the channel the architecture worked so hard to save.
:class:`BitWriter`/:class:`BitReader` implement MSB-first bit packing, and
:func:`pack_samples`/:func:`unpack_samples` are the vector helpers the framing
layer uses.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.utils.validation import check_positive


class BitWriter:
    """Accumulates values of arbitrary bit width into a byte string (MSB first)."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_buffer = 0
        self._bits_pending = 0

    def write(self, value: int, n_bits: int) -> None:
        """Append ``value`` as ``n_bits`` bits."""
        check_positive("n_bits", n_bits)
        value = int(value)
        if value < 0 or value >= (1 << n_bits):
            raise ValueError(f"value {value} does not fit in {n_bits} bits")
        self._bit_buffer = (self._bit_buffer << n_bits) | value
        self._bits_pending += n_bits
        while self._bits_pending >= 8:
            self._bits_pending -= 8
            byte = (self._bit_buffer >> self._bits_pending) & 0xFF
            self._bytes.append(byte)
        self._bit_buffer &= (1 << self._bits_pending) - 1

    def write_many(self, values: Iterable[int], n_bits: int) -> None:
        """Append a sequence of equally-sized values."""
        for value in values:
            self.write(value, n_bits)

    @property
    def n_bits_written(self) -> int:
        """Total number of payload bits written so far."""
        return len(self._bytes) * 8 + self._bits_pending

    def getvalue(self) -> bytes:
        """Return the packed bytes, zero-padding the final partial byte."""
        result = bytearray(self._bytes)
        if self._bits_pending:
            result.append((self._bit_buffer << (8 - self._bits_pending)) & 0xFF)
        return bytes(result)


class BitReader:
    """Reads back values written by :class:`BitWriter` (MSB first)."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._position = 0  # bit position

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits left in the buffer."""
        return len(self._data) * 8 - self._position

    def read(self, n_bits: int) -> int:
        """Read the next ``n_bits`` bits as an unsigned integer."""
        check_positive("n_bits", n_bits)
        if n_bits > self.bits_remaining:
            raise ValueError(
                f"requested {n_bits} bits but only {self.bits_remaining} remain"
            )
        value = 0
        remaining = n_bits
        while remaining > 0:
            byte_index, bit_offset = divmod(self._position, 8)
            take = min(8 - bit_offset, remaining)
            byte = self._data[byte_index]
            chunk = (byte >> (8 - bit_offset - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            self._position += take
            remaining -= take
        return value

    def read_many(self, n_values: int, n_bits: int) -> list[int]:
        """Read ``n_values`` equally-sized values (an empty list for zero)."""
        check_positive("n_values", n_values, allow_zero=True)
        return [self.read(n_bits) for _ in range(int(n_values))]


def _bit_weights(n_bits: int) -> np.ndarray:
    """``2**(n_bits-1), …, 2, 1``: the MSB-first place values of one sample."""
    check_positive("n_bits", n_bits)
    if n_bits > 63:
        raise ValueError(f"samples are unsigned int64: n_bits must be at most 63, got {n_bits}")
    return np.left_shift(1, np.arange(int(n_bits) - 1, -1, -1, dtype=np.int64))


def pack_samples(samples: Sequence[int], n_bits: int) -> bytes:
    """Pack unsigned samples of ``n_bits`` each into a byte string.

    The same MSB-first bytes :class:`BitWriter` produces, as one
    ``np.packbits`` over the samples' bit matrix.  An empty sample vector
    packs to zero bytes.  (The frame codec itself never produces such a
    payload — headers require at least one sample, and the streaming
    bit-rate governor refuses budgets below its ``min_samples`` floor — but
    the packing layer stays total.)
    """
    weights = _bit_weights(n_bits)
    values = np.asarray(samples, dtype=np.int64).reshape(-1)
    outside = (values < 0) | (values >> weights.size != 0)
    if outside.any():
        raise ValueError(
            f"value {int(values[outside.argmax()])} does not fit in {n_bits} bits"
        )
    bits = (values[:, None] & weights) != 0
    return np.packbits(bits).tobytes()


def unpack_samples(data: bytes, n_samples: int, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_samples` (``n_samples=0`` yields an empty array).

    One ``np.unpackbits`` plus one weighted sum of the bit matrix.
    """
    check_positive("n_samples", n_samples, allow_zero=True)
    weights = _bit_weights(n_bits)
    n_needed, n_available = int(n_samples) * weights.size, len(data) * 8
    if n_needed > n_available:
        raise ValueError(f"requested {n_needed} bits but only {n_available} remain")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n_needed)
    return bits.reshape(int(n_samples), weights.size) @ weights
