"""Bit-level helpers for the digital blocks of the sensor model.

The sensor accumulates time-to-digital codes in fixed-width registers (8-bit
counter, 14-bit column accumulators, 20-bit compressed samples).  The width
of each register follows from the largest value it must hold.
"""

from __future__ import annotations


def bit_width(max_value: int) -> int:
    """Return the number of bits needed to represent ``max_value`` unsigned.

    ``bit_width(0)`` is defined as 1 so that a constant-zero register still
    has a width.
    """
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    if max_value == 0:
        return 1
    return int(max_value).bit_length()
