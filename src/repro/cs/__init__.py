"""Compressive-sampling core.

This package is the algorithmic half of the reproduction: measurement
matrices (including the paper's CA-XOR full-frame strategy and the baselines
it is compared against), sparsifying dictionaries, the sensing operator that
combines the two, a family of reconstruction solvers, block-based compressive
sampling, and the analysis tools (coherence / RIP proxies, image-quality
metrics) used by the benchmarks.
"""

from repro.cs.block import BlockCompressiveSampler
from repro.cs.dictionaries import (
    DCT2Dictionary,
    Dictionary,
    Haar2Dictionary,
    IdentityDictionary,
    make_dictionary,
)
from repro.cs.matrices import (
    bernoulli_matrix,
    ca_xor_matrix,
    center_matrix,
    gaussian_matrix,
    lfsr_matrix,
    subsampled_hadamard_matrix,
)
from repro.cs.metrics import nmse, psnr, reconstruction_snr, ssim
from repro.cs.operators import BaseSensingOperator, SensingOperator
from repro.cs.structured import StructuredSensingOperator
from repro.cs.rip import mutual_coherence, restricted_isometry_estimate
from repro.cs.solvers import cosamp, fista, iht, ista, omp

__all__ = [
    "Dictionary",
    "DCT2Dictionary",
    "Haar2Dictionary",
    "IdentityDictionary",
    "make_dictionary",
    "BaseSensingOperator",
    "SensingOperator",
    "StructuredSensingOperator",
    "gaussian_matrix",
    "bernoulli_matrix",
    "subsampled_hadamard_matrix",
    "ca_xor_matrix",
    "lfsr_matrix",
    "center_matrix",
    "BlockCompressiveSampler",
    "psnr",
    "ssim",
    "nmse",
    "reconstruction_snr",
    "mutual_coherence",
    "restricted_isometry_estimate",
    "omp",
    "cosamp",
    "iht",
    "ista",
    "fista",
]
