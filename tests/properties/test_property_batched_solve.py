"""Property suite: a batched multi-tile solve is the per-tile solve, byte for byte.

:func:`~repro.cs.solvers.batched.batched_operator_norms` and
:func:`~repro.cs.solvers.batched.batched_proximal_gradient` take each
tile's solo :meth:`~repro.cs.operators.BaseSensingOperator.operator_norm`
and run the proximal-gradient loop of :func:`~repro.cs.solvers.fista` /
:func:`~repro.cs.solvers.ista` over a stack of tiles.  Hypothesis draws the tile shape (square and not), the
dictionary, the stack height, FISTA or ISTA, per-tile l1 weights, a loose
tolerance, so tiles of one stack stop at different iterations and the
frozen-tile path is exercised, and whether the operators carry the CA
closed-form σ estimate (which small tiles can exceed, so the step
safeguard fires).  Every tile must match its solo solve exactly: σ,
coefficient bytes, residual history, iteration count, convergence flag
and step reductions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ca.selection import ca_selection_factors
from repro.cs.dictionaries import make_dictionary
from repro.cs.solvers import fista, ista
from repro.cs.solvers.batched import batched_operator_norms, batched_proximal_gradient
from repro.cs.structured import StructuredSensingOperator
from repro.optics.scenes import make_scene
from repro.recon.operator import ca_norm_estimate
from repro.utils.rng import nonzero_seed_bits

SHAPES = [(4, 4), (8, 8), (8, 16), (16, 8), (16, 16)]


def tile_problem(shape, dictionary, seed, bounded=False):
    """A centred CA operator and the measurements of a natural scene."""
    rows, cols = shape
    n_samples = max(1, (rows * cols * 2) // 5)
    row_factors, col_factors = ca_selection_factors(
        n_samples, rows, cols, nonzero_seed_bits(rows + cols, seed)
    )
    operator = StructuredSensingOperator(
        row_factors, col_factors, make_dictionary(dictionary, shape)
    )
    operator.center = operator.density
    if bounded:
        operator.norm_estimate = ca_norm_estimate(n_samples, rows * cols)
    scene = make_scene("natural", shape, seed=seed) * 255.0
    return operator, operator.phi_dot(scene.reshape(-1))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SHAPES),
    st.sampled_from(["identity", "dct", "haar"]),
    st.integers(1, 5),
    st.booleans(),
    st.sampled_from([3e-2, 1e-2, 3e-3]),
    st.booleans(),
    st.data(),
)
def test_batched_solve_matches_per_tile_solves(
    shape, dictionary, n_tiles, accelerated, tolerance, bounded, data
):
    seeds = data.draw(
        st.lists(st.integers(1, 10_000), min_size=n_tiles, max_size=n_tiles, unique=True)
    )
    weights = data.draw(
        st.lists(st.floats(0.1, 20.0), min_size=n_tiles, max_size=n_tiles)
    )
    problems = [tile_problem(shape, dictionary, seed, bounded) for seed in seeds]
    operators = [operator for operator, _ in problems]
    measurements = np.stack([samples for _, samples in problems])

    sigmas = batched_operator_norms(operators)
    batched = batched_proximal_gradient(
        operators,
        measurements,
        regularization=np.array(weights),
        max_iterations=60,
        tolerance=tolerance,
        accelerated=accelerated,
    )
    solo_solver = fista if accelerated else ista
    for operator, samples, weight, sigma, result in zip(
        operators, measurements, weights, sigmas, batched
    ):
        solo_sigma = operator.operator_norm()
        assert sigma == solo_sigma
        solo = solo_solver(
            operator,
            samples,
            regularization=weight,
            max_iterations=60,
            tolerance=tolerance,
            step_size=1.0 / solo_sigma**2,
        )
        assert result.coefficients.tobytes() == solo.coefficients.tobytes()
        assert result.history == solo.history
        assert result.n_iterations == solo.n_iterations
        assert result.converged == solo.converged
        assert result.step_reductions == solo.step_reductions
