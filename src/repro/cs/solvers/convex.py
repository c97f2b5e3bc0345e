"""Convex-programming reference solver: equality-constrained basis pursuit.

The paper frames reconstruction as "convex optimization can lead to a unique
solution"; the canonical convex program is basis pursuit,
``min ||z||₁  s.t.  A z = y``, which can be written as a linear program by
splitting ``z`` into its positive and negative parts.  This formulation is
only practical for small problems (a few hundred unknowns), so the library
uses it as the reference solver for block-based CS and for the solver
cross-validation tests, not for full 64x64 frames.
"""

from __future__ import annotations

import numpy as np

from repro.cs.operators import SensingOperator
from repro.cs.solvers.result import SolverResult, as_operator, check_measurements
from repro.utils.validation import check_positive


def basis_pursuit(
    operator_or_matrix: SensingOperator | np.ndarray,
    measurements: np.ndarray,
    *,
    max_dimension: int = 4096,
    noise_tolerance: float = 0.0,
) -> SolverResult:
    """Solve ``min ||z||₁ s.t. A z = y`` (or ``|A z - y| <= noise_tolerance``).

    Parameters
    ----------
    max_dimension:
        Guard rail: refuse problems with more coefficients than this, since
        the LP has ``2n`` variables and dense constraint rows.
    noise_tolerance:
        When positive, the equality constraints are relaxed to a box of this
        half-width (basis pursuit denoising in l∞ form), which is more robust
        for quantised measurements.
    """
    operator = as_operator(operator_or_matrix)
    measurements = check_measurements(operator, measurements)
    check_positive("max_dimension", max_dimension)
    check_positive("noise_tolerance", noise_tolerance, allow_zero=True)
    n = operator.n_coefficients
    if n > max_dimension:
        raise ValueError(
            f"basis_pursuit is limited to {max_dimension} coefficients, got {n}; "
            "use fista/omp for larger problems"
        )
    from scipy.optimize import linprog

    dense = operator.dense()
    # Variables: z = p - q with p, q >= 0; minimise sum(p) + sum(q).
    cost = np.ones(2 * n)
    stacked = np.hstack([dense, -dense])
    if noise_tolerance > 0.0:
        a_ub = np.vstack([stacked, -stacked])
        b_ub = np.concatenate(
            [measurements + noise_tolerance, -(measurements - noise_tolerance)]
        )
        result = linprog(
            cost,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * (2 * n),
            method="highs",
        )
    else:
        result = linprog(
            cost,
            A_eq=stacked,
            b_eq=measurements,
            bounds=[(0, None)] * (2 * n),
            method="highs",
        )
    if not result.success:
        coefficients = np.zeros(n)
        residual = float(np.linalg.norm(measurements))
        return SolverResult(
            coefficients=coefficients,
            n_iterations=int(result.nit) if hasattr(result, "nit") else 0,
            converged=False,
            residual_norm=residual,
            history=[residual],
        )
    solution = result.x[:n] - result.x[n:]
    residual = float(np.linalg.norm(measurements - dense @ solution))
    return SolverResult(
        coefficients=solution,
        n_iterations=int(result.nit) if hasattr(result, "nit") else 0,
        converged=True,
        residual_norm=residual,
        history=[residual],
    )
