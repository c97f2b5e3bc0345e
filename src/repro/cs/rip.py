"""Measurement-matrix quality analysis: coherence and RIP proxies.

Computing the restricted isometry constant exactly is NP-hard; the standard
practical surrogates are the mutual coherence of ``A = Φ Ψ`` and an
empirical RIP estimate obtained by sampling random k-column submatrices and
recording the extreme singular values.  Benchmark E10 uses these to compare
the CA-XOR measurement matrix against Bernoulli, LFSR and Hadamard
constructions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.cs.dictionaries import Dictionary


def _normalized_columns(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    norms = np.linalg.norm(matrix, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    return matrix / norms


def mutual_coherence(matrix: np.ndarray) -> float:
    """Largest absolute inner product between distinct normalised columns."""
    normalized = _normalized_columns(matrix)
    gram = normalized.T @ normalized
    np.fill_diagonal(gram, 0.0)
    return float(np.max(np.abs(gram)))


def restricted_isometry_estimate(
    matrix: np.ndarray,
    sparsity: int,
    *,
    n_trials: int = 200,
    seed: SeedLike = None,
) -> dict[str, float]:
    """Empirical RIP proxy: extreme singular values of random k-column submatrices.

    Returns the worst lower/upper deviations of ``||A_S x||²/||x||²`` from 1
    over the sampled supports, i.e. an empirical estimate of δ_k (a lower
    bound on the true constant, since only ``n_trials`` supports are
    examined).  Columns are normalised first so the comparison across matrix
    families is fair.
    """
    check_positive("sparsity", sparsity)
    check_positive("n_trials", n_trials)
    normalized = _normalized_columns(matrix)
    n_columns = normalized.shape[1]
    sparsity = int(min(sparsity, n_columns))
    rng = new_rng(seed)
    min_eigenvalue = np.inf
    max_eigenvalue = -np.inf
    for _ in range(int(n_trials)):
        support = rng.choice(n_columns, size=sparsity, replace=False)
        submatrix = normalized[:, support]
        singular_values = np.linalg.svd(submatrix, compute_uv=False)
        min_eigenvalue = min(min_eigenvalue, float(singular_values[-1] ** 2))
        max_eigenvalue = max(max_eigenvalue, float(singular_values[0] ** 2))
    delta = max(abs(1.0 - min_eigenvalue), abs(max_eigenvalue - 1.0))
    return {
        "sparsity": float(sparsity),
        "min_eigenvalue": float(min_eigenvalue),
        "max_eigenvalue": float(max_eigenvalue),
        "delta_estimate": float(delta),
        "n_trials": float(n_trials),
    }


def effective_rank(matrix: np.ndarray, *, energy: float = 0.99) -> int:
    """Number of singular values needed to capture ``energy`` of the spectrum.

    A well-mixed measurement matrix has effective rank close to ``min(m, n)``;
    a degenerate one (e.g. a short-period generator producing repeated rows)
    collapses.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must be in (0, 1], got {energy}")
    matrix = np.asarray(matrix, dtype=float)
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    total = float(np.sum(singular_values ** 2))
    if total == 0.0:
        return 0
    cumulative = np.cumsum(singular_values ** 2) / total
    return int(np.searchsorted(cumulative, energy) + 1)


def matrix_quality_report(
    matrix: np.ndarray,
    *,
    sparsity: int = 8,
    n_trials: int = 100,
    seed: SeedLike = None,
    dictionary: Dictionary | None = None,
) -> dict[str, float]:
    """One-call summary used by benchmark E10.

    When a ``dictionary`` is given the report is computed on ``A = Φ Ψ``
    (built column-by-column), otherwise directly on Φ.
    """
    matrix = np.asarray(matrix, dtype=float)
    if dictionary is not None:
        from repro.cs.operators import SensingOperator

        operator = SensingOperator(matrix, dictionary)
        matrix = operator.dense()
    rip = restricted_isometry_estimate(matrix, sparsity, n_trials=n_trials, seed=seed)
    return {
        "mutual_coherence": mutual_coherence(matrix),
        "delta_estimate": rip["delta_estimate"],
        "min_eigenvalue": rip["min_eigenvalue"],
        "max_eigenvalue": rip["max_eigenvalue"],
        "effective_rank": float(effective_rank(matrix)),
        "row_mean": float(matrix.mean()),
    }
