"""Measurement matrices Φ.

The paper's contribution is a Φ that is generated on chip by a Rule 30
cellular automaton and an XOR of row/column selection signals, so that only
the CA seed travels over the channel.  To evaluate it we also need the
matrices it is implicitly compared against:

* dense sub-Gaussian matrices (Gaussian, thresholded-Gaussian / Bernoulli)
  — the theoretical gold standard, impractical on chip;
* subsampled Hadamard — the structured alternative cited as prior art;
* LFSR-generated selection — the conventional on-chip pseudo-random source.

All functions return dense ``m x n`` float arrays (binary matrices as 0/1
floats) so they can be passed straight to the sensing operator and the RIP /
coherence analysis.
"""

from __future__ import annotations

import numpy as np

from repro.ca.selection import ca_measurement_matrix
from repro.lfsr.lfsr import LFSRSelectionGenerator
from repro.utils.rng import SeedLike, new_rng, nonzero_seed_bits
from repro.utils.validation import check_positive, check_power_of_two, check_probability


def gaussian_matrix(n_samples: int, n_pixels: int, *, seed: SeedLike = None) -> np.ndarray:
    """I.i.d. N(0, 1/m) Gaussian measurement matrix (rows roughly unit-norm)."""
    check_positive("n_samples", n_samples)
    check_positive("n_pixels", n_pixels)
    rng = new_rng(seed)
    return rng.standard_normal((int(n_samples), int(n_pixels))) / np.sqrt(n_samples)


def bernoulli_matrix(
    n_samples: int,
    n_pixels: int,
    *,
    density: float = 0.5,
    seed: SeedLike = None,
) -> np.ndarray:
    """Binary 0/1 matrix with i.i.d. Bernoulli(``density``) entries.

    This is the "thresholded sub-Gaussian" construction the paper describes:
    each compressed sample is the plain sum of the selected pixels.
    """
    check_positive("n_samples", n_samples)
    check_positive("n_pixels", n_pixels)
    check_probability("density", density)
    rng = new_rng(seed)
    return (rng.random((int(n_samples), int(n_pixels))) < density).astype(float)


def _sylvester_hadamard(order: int) -> np.ndarray:
    """Sylvester Hadamard matrix of a power-of-two ``order``, entries ±1.

    Doubles ``H₂ₙ = [[Hₙ, Hₙ], [Hₙ, -Hₙ]]`` from ``H₁ = [1]`` in place, the
    construction ``scipy.linalg.hadamard`` uses, so the entries equal it
    without importing scipy.
    """
    matrix = np.empty((order, order))
    matrix[0, 0] = 1.0
    size = 1
    while size < order:
        block = matrix[:size, :size]
        matrix[:size, size : 2 * size] = block
        matrix[size : 2 * size, :size] = block
        np.negative(block, out=matrix[size : 2 * size, size : 2 * size])
        size *= 2
    return matrix


def subsampled_hadamard_matrix(
    n_samples: int,
    n_pixels: int,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Randomly selected rows of a Hadamard matrix with random column sign flips.

    ``n_pixels`` must be a power of two.  Entries are ±1 scaled by
    1/sqrt(m); this is the classical structured measurement ensemble cited in
    the paper as prior art ([13] uses Hadamard vectors).
    """
    check_positive("n_samples", n_samples)
    check_power_of_two("n_pixels", int(n_pixels))
    if n_samples > n_pixels:
        raise ValueError("cannot draw more Hadamard rows than the matrix has")
    rng = new_rng(seed)
    full = _sylvester_hadamard(int(n_pixels))
    row_indices = rng.choice(int(n_pixels), size=int(n_samples), replace=False)
    column_signs = rng.integers(0, 2, size=int(n_pixels)) * 2 - 1
    return full[row_indices] * column_signs / np.sqrt(n_samples)


def ca_xor_matrix(
    n_samples: int,
    shape: tuple[int, int],
    *,
    rule: int = 30,
    seed_state: np.ndarray | None = None,
    steps_per_sample: int = 1,
    warmup_steps: int = 8,
    seed: SeedLike = None,
) -> np.ndarray:
    """The paper's full-frame measurement matrix: CA-driven row/column XOR selection.

    Each row of the result is one selection mask ``S_i XOR S_j`` flattened in
    raster order (0/1 entries).  The matrix is a pure function of the CA seed
    and the sequencing parameters — the property that lets the sensor avoid
    transmitting Φ.
    """
    rows, cols = shape
    if seed_state is None:
        seed_state = nonzero_seed_bits(rows + cols, seed)
    return ca_measurement_matrix(
        int(n_samples),
        rows,
        cols,
        seed_state,
        rule=rule,
        steps_per_sample=steps_per_sample,
        warmup_steps=warmup_steps,
    ).astype(float)


def lfsr_matrix(
    n_samples: int,
    shape: tuple[int, int],
    *,
    n_bits: int = 32,
    seed: SeedLike = None,
) -> np.ndarray:
    """Selection matrix generated by an LFSR through the same XOR construction."""
    check_positive("n_samples", n_samples)
    rows, cols = shape
    generator = LFSRSelectionGenerator(rows, cols, n_bits=n_bits, seed=seed)
    return generator.measurement_matrix(int(n_samples)).astype(float)


def center_matrix(matrix: np.ndarray, *, density: float | None = None) -> np.ndarray:
    """Centre a 0/1 selection matrix by subtracting its (per-matrix) density.

    A raw 0/1 matrix has a large DC component that hurts incoherence with
    smooth dictionaries; subtracting the mean entry (≈ 1/2 for the XOR
    construction) turns it into a ±1/2 sub-Gaussian-like ensemble, which is
    how the reconstruction pipeline uses it.
    """
    matrix = np.asarray(matrix, dtype=float)
    if density is None:
        density = float(matrix.mean())
    return matrix - density


def selection_density(matrix: np.ndarray) -> float:
    """Mean entry of a 0/1 selection matrix (≈ 0.5 for the XOR construction)."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        raise ValueError("matrix must be non-empty")
    return float(matrix.mean())
