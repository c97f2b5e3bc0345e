"""The pixel-selection XOR unit (``V_2`` in Fig. 1).

A pixel contributes to the current compressed sample iff its row and column
selection signals differ: ``selected = S_i XOR S_j``.  The schematic places
this 6-transistor XOR right after the comparator so that, in unselected
pixels, the activation front does not propagate into the event logic — a
power saving the paper calls out explicitly.  Functionally, ``V_2`` is stuck
high when the pixel is deselected and follows ``NOT V_1`` when selected.
"""

from __future__ import annotations

import numpy as np


def xor_select(row_signal, col_signal):
    """Selection decision of the XOR gate: 1 when ``S_i != S_j``.

    Accepts scalars or aligned arrays and returns the same shape.
    """
    row_signal = np.asarray(row_signal)
    col_signal = np.asarray(col_signal)
    if not np.isin(row_signal, (0, 1)).all() or not np.isin(col_signal, (0, 1)).all():
        raise ValueError("selection signals must be binary")
    result = np.bitwise_xor(row_signal.astype(np.uint8), col_signal.astype(np.uint8))
    if result.ndim == 0:
        return int(result)
    return result


def v2_output(v1: int, row_signal: int, col_signal: int) -> int:
    """Logic level of node ``V_2`` given ``V_1`` and the selection signals.

    ``V_2`` is stuck at logic '1' (``V_dd``) when the pixel is deselected
    (``S_i == S_j``); when selected it is the inverse of ``V_1``, so the
    comparator's rising edge becomes the active-low edge the event latch
    responds to.
    """
    for name, value in (("v1", v1), ("row_signal", row_signal), ("col_signal", col_signal)):
        if value not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {value}")
    if row_signal == col_signal:
        return 1
    return 1 - v1
