"""Sparse-recovery solvers.

All solvers share the same calling convention: they take a
:class:`~repro.cs.operators.SensingOperator` (or a dense matrix, which is
wrapped on the fly), the measurement vector ``y`` and solver-specific
parameters, and they return a :class:`SolverResult` whose ``coefficients``
attribute is the recovered sparse vector in the dictionary domain.

Available solvers:

* :func:`omp` — orthogonal matching pursuit (greedy, needs a sparsity target).
* :func:`ista` / :func:`fista` — proximal-gradient l1 minimisation along a
  λ-continuation path (the default for the image-scale benchmarks);
  :data:`DEFAULT_MAX_ITERATIONS` is their budget when the caller names none.
"""

from repro.cs.solvers.result import SolverResult, as_operator
from repro.cs.solvers.greedy import omp
from repro.cs.solvers.iterative import DEFAULT_MAX_ITERATIONS, fista, ista
from repro.cs.solvers.batched import (
    batched_operator_norms,
    batched_proximal_gradient,
)

__all__ = [
    "DEFAULT_MAX_ITERATIONS",
    "SolverResult",
    "as_operator",
    "omp",
    "ista",
    "fista",
    "batched_operator_norms",
    "batched_proximal_gradient",
]
