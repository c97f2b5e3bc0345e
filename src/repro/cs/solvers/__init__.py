"""Sparse-recovery solvers.

All solvers share the same calling convention: they take a
:class:`~repro.cs.operators.SensingOperator` (or a dense matrix, which is
wrapped on the fly), the measurement vector ``y`` and solver-specific
parameters, and they return a :class:`SolverResult` whose ``coefficients``
attribute is the recovered sparse vector in the dictionary domain.

Available solvers:

* :func:`omp` — orthogonal matching pursuit (greedy, needs a sparsity target).
* :func:`cosamp` — compressive sampling matching pursuit.
* :func:`iht` — iterative hard thresholding.
* :func:`ista` / :func:`fista` — proximal-gradient l1 minimisation (the
  default for the image-scale benchmarks).
"""

from repro.cs.solvers.result import SolverResult, as_operator
from repro.cs.solvers.greedy import cosamp, omp
from repro.cs.solvers.iterative import fista, iht, ista
from repro.cs.solvers.batched import (
    batched_operator_norms,
    batched_proximal_gradient,
)

__all__ = [
    "SolverResult",
    "as_operator",
    "omp",
    "cosamp",
    "iht",
    "ista",
    "fista",
    "batched_operator_norms",
    "batched_proximal_gradient",
]
