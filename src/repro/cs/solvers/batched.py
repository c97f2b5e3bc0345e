"""Batched multi-tile proximal-gradient solves over structured operators.

A tiled mosaic frame is a stack of independent equal-shape inverse problems:
one ``(R_t, C_t)`` factor pair, one measurement vector and one LASSO solve
per tile.  The functions here run them as one stack: the dictionary
transforms are batched over every tile, and each tile's products are the
same :func:`~repro.cs.structured.phi_dot_stack` /
:func:`~repro.cs.structured.phi_rdot_stack` GEMMs its solo operator runs,
on its own ±1 factors (``S_Rᵀ``, pre-transposed, and ``S_C``).  No factor
stack is copied, so no kernel temporary outgrows one tile's.

There is no batched copy of the algorithm: the stacked products drive the
one FISTA/ISTA loop (:func:`~repro.cs.solvers.iterative.proximal_gradient`)
that solo solves run as a stack of one, and each tile's σ is its solo
``operator_norm``.  Every tile of a batched solve is therefore
byte-identical to its per-tile solve.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cs.solvers.iterative import proximal_gradient, step_from_norm
from repro.cs.solvers.result import SolverResult
from repro.cs.structured import (
    StructuredSensingOperator,
    phi_dot_stack,
    phi_rdot_stack,
)
from repro.telemetry import SolverProfile


def _check_stack(operators: Sequence[StructuredSensingOperator]) -> None:
    """Reject an empty or heterogeneous operator stack."""
    if not operators:
        raise ValueError("need at least one operator to stack")
    first = operators[0]
    for operator in operators:
        if not isinstance(operator, StructuredSensingOperator):
            raise TypeError(
                "batched solves need StructuredSensingOperator instances, "
                f"got {type(operator).__name__}"
            )
        if operator.image_shape != first.image_shape:
            raise ValueError(
                f"tile shapes differ: {operator.image_shape} vs {first.image_shape}"
            )
        if operator.n_samples != first.n_samples:
            raise ValueError(
                f"sample counts differ: {operator.n_samples} vs {first.n_samples}"
            )
        if (
            type(operator.dictionary) is not type(first.dictionary)
            or operator.dictionary.shape != first.dictionary.shape
        ):
            raise ValueError("all stacked operators must share one dictionary")


class _TileStack:
    """The products ``A_t`` / ``A_t*`` of a homogeneous operator stack.

    Each tile's ±1 kernels run on that operator's own factors, so no kernel
    temporary outgrows one tile's; the dictionary transforms run once over
    the whole stack.
    """

    def __init__(self, operators: Sequence[StructuredSensingOperator]) -> None:
        _check_stack(operators)
        self.operators = list(operators)
        self.dictionary = operators[0].dictionary
        self.image_shape = operators[0].image_shape
        self.n_samples = operators[0].n_samples

    def forward(self, coefficients: np.ndarray, tiles: list[int]) -> np.ndarray:
        """``A_t z_t`` for the listed tiles: ``(k, n) -> (k, m)``."""
        images = self.dictionary.synthesize_batch(coefficients).reshape(
            len(tiles), *self.image_shape
        )
        measured = np.empty((len(tiles), self.n_samples))
        for position, tile in enumerate(tiles):
            operator = self.operators[tile]
            measured[position] = phi_dot_stack(
                operator.row_signs_t, operator.col_signs, operator.offset, images[position]
            )
        return measured

    def adjoint(self, measurements: np.ndarray) -> np.ndarray:
        """``A_t* y_t`` for every tile: ``(T, m) -> (T, n)``."""
        back = np.empty((len(self.operators), *self.image_shape))
        for tile, operator in enumerate(self.operators):
            back[tile] = phi_rdot_stack(
                operator.row_signs_t, operator.col_signs, operator.offset, measurements[tile]
            )
        return self.dictionary.analyze_batch(back.reshape(len(self.operators), -1))


def steps_from_norms(sigmas: np.ndarray) -> np.ndarray:
    """Per-tile gradient steps, each the solo :func:`step_from_norm` of its σ."""
    return np.array(
        [step_from_norm(float(sigma)) for sigma in np.asarray(sigmas, dtype=float)],
        dtype=float,
    )


def batched_operator_norms(operators: Sequence[StructuredSensingOperator]) -> np.ndarray:
    """Largest singular value of every stacked operator, as a ``(T,)`` array.

    Each entry is that tile's solo
    :meth:`~repro.cs.operators.BaseSensingOperator.operator_norm`: the
    closed-form :attr:`~repro.cs.operators.BaseSensingOperator.norm_estimate`
    of a CA frame operator (no product), a memoised power iteration
    otherwise.
    """
    _check_stack(operators)
    return np.array([operator.operator_norm() for operator in operators], dtype=float)


def batched_proximal_gradient(
    operators: Sequence[StructuredSensingOperator],
    measurements: np.ndarray,
    *,
    regularization: float | np.ndarray,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    step_sizes: np.ndarray | None = None,
    accelerated: bool = True,
    profile: SolverProfile | None = None,
) -> list[SolverResult]:
    """Run FISTA (or ISTA) on every tile of a homogeneous operator stack.

    Parameters
    ----------
    operators:
        Equal-shape :class:`StructuredSensingOperator` instances, one per tile.
    measurements:
        Measurement stack, shape ``(T, m)`` (already centred by the caller).
    regularization:
        The l1 weight λ — a scalar shared by every tile or one value per tile.
    max_iterations, tolerance:
        Per-tile iteration budget and relative-change stopping criterion,
        exactly as in the per-tile solvers.
    step_sizes:
        Per-tile initial gradient steps; from :func:`batched_operator_norms`
        when omitted.  Steps that fail the sufficient-decrease test shrink
        per tile, as in the solo solvers.
    accelerated:
        ``True`` for FISTA (Nesterov momentum), ``False`` for plain ISTA.
    profile:
        Opt-in :class:`~repro.telemetry.SolverProfile`: the LASSO objective
        and residual norm summed over all tiles and the count of tiles
        already frozen, per iteration, plus the mean step, its provenance
        and the step reductions.  Read-only — the solve itself is unchanged.

    Returns
    -------
    list of SolverResult
        One result per tile, with per-tile iteration counts, convergence
        flags and residual histories — each byte-identical to the solo
        :func:`~repro.cs.solvers.iterative.fista` / ``ista`` solve of that
        tile with the same step.
    """
    stack = _TileStack(operators)
    n_tiles = len(stack.operators)
    measurements = np.asarray(measurements, dtype=float)
    if measurements.shape != (n_tiles, stack.n_samples):
        raise ValueError(
            f"measurements must have shape ({n_tiles}, {stack.n_samples}), "
            f"got {measurements.shape}"
        )
    regularization = np.broadcast_to(np.asarray(regularization, dtype=float), (n_tiles,))
    if (regularization < 0).any():
        raise ValueError("regularization must be non-negative")
    if step_sizes is None:
        closed_form = all(operator.norm_estimate is not None for operator in operators)
        step_provenance = "bound" if closed_form else "estimated"
        step_sizes = steps_from_norms(batched_operator_norms(operators))
    else:
        step_provenance = "provided"
    step_sizes = np.broadcast_to(np.asarray(step_sizes, dtype=float), (n_tiles,))
    if (step_sizes <= 0).any():
        raise ValueError("step_sizes must be positive")
    return proximal_gradient(
        stack.forward,
        stack.adjoint,
        measurements,
        np.zeros((n_tiles, stack.dictionary.n_pixels)),
        step_sizes=step_sizes,
        regularization=regularization,
        max_iterations=max_iterations,
        tolerance=tolerance,
        accelerated=accelerated,
        step_provenance=step_provenance,
        profile=profile,
    )
