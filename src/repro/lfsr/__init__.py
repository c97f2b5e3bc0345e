"""Linear-feedback shift registers.

LFSRs are the most common on-chip pseudo-random generators used for
compressive-sampling measurement matrices (the paper cites [13][14] as the
alternative it argues against).  This package provides a Fibonacci LFSR
plus a table of primitive polynomials, so the benchmarks can compare
the paper's Rule 30 CA strategy against an LFSR-generated Φ of the same cost.
"""

from repro.lfsr.lfsr import FibonacciLFSR, LFSRSelectionGenerator
from repro.lfsr.polynomials import PRIMITIVE_POLYNOMIALS, primitive_taps

__all__ = [
    "FibonacciLFSR",
    "LFSRSelectionGenerator",
    "PRIMITIVE_POLYNOMIALS",
    "primitive_taps",
]
