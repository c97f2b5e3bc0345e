"""Argument-validation helpers used across the library.

Every public constructor in the sensor and CS packages validates its
parameters eagerly so that configuration errors surface at object-creation
time rather than deep inside a frame simulation.  The helpers below raise
``ValueError`` (or ``TypeError`` for wrong types) with messages that name the
offending parameter, which keeps the call sites to a single line.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence

import numpy as np


def check_positive(name: str, value, *, allow_zero: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive (or non-negative) number.

    Parameters
    ----------
    name:
        Parameter name used in the error message.
    value:
        The number to validate.
    allow_zero:
        When true, zero is accepted.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    else:
        if value <= 0:
            raise ValueError(f"{name} must be > 0, got {value}")


def check_in_range(name: str, value, low, high, *, inclusive: bool = True) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high`` (or strict when not inclusive)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if inclusive:
        if not (low <= value <= high):
            raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    else:
        if not (low < value < high):
            raise ValueError(f"{name} must be in ({low}, {high}), got {value}")


def check_probability(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a probability in [0, 1]."""
    check_in_range(name, value, 0.0, 1.0)


def check_power_of_two(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive integer power of two."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value}")


def check_binary_array(name: str, array: np.ndarray) -> np.ndarray:
    """Return ``array`` as ``uint8`` after checking it only contains 0/1 values."""
    array = np.asarray(array)
    if array.size and not np.isin(array, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return array.astype(np.uint8)


def check_choice(name: str, value: str, choices: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
