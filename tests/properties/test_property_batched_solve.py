"""Property suite: a batched multi-tile solve is the per-tile solve, byte for byte.

:func:`~repro.cs.solvers.batched.batched_operator_norms` and
:func:`~repro.cs.solvers.batched.batched_proximal_gradient` take each
tile's solo :meth:`~repro.cs.operators.BaseSensingOperator.operator_norm`
and run the proximal-gradient loop of :func:`~repro.cs.solvers.fista`
over a stack of tiles.  Hypothesis draws the tile shape (square and not), the
dictionary, the stack height, per-tile l1 weights, the
budget (one to four λ-continuation stages, with or without the AMP warm
start), a loose tolerance, so tiles of
one stack freeze at different iterations and in different stages and the
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
from repro.cs.solvers import fista
from repro.cs.solvers.batched import batched_operator_norms, batched_proximal_gradient
from repro.cs.structured import StructuredSensingOperator
from repro.optics.scenes import make_scene
from repro.recon.operator import ca_norm_estimate
from repro.telemetry import SolverProfile
from repro.utils.rng import nonzero_seed_bits

SHAPES = [(4, 4), (8, 8), (8, 16), (16, 8), (16, 16)]


def tile_problem(shape, dictionary, seed, bounded=False, rule=30):
    """A centred CA operator and the measurements of a natural scene."""
    rows, cols = shape
    n_samples = max(1, (rows * cols * 2) // 5)
    row_factors, col_factors = ca_selection_factors(
        n_samples, rows, cols, nonzero_seed_bits(rows + cols, seed), rule=rule
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
    st.sampled_from([3e-2, 1e-2, 3e-3, 1e-3]),
    st.sampled_from([20, 60, 80, 120]),
    st.booleans(),
    st.data(),
)
def test_batched_solve_matches_per_tile_solves(
    shape, dictionary, n_tiles, tolerance, budget, bounded, data
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
        max_iterations=budget,
        tolerance=tolerance,
    )
    for operator, samples, weight, sigma, result in zip(
        operators, measurements, weights, sigmas, batched
    ):
        solo_sigma = operator.operator_norm()
        assert sigma == solo_sigma
        solo = fista(
            operator,
            samples,
            regularization=weight,
            max_iterations=budget,
            tolerance=tolerance,
            step_size=1.0 / solo_sigma**2,
        )
        assert result.coefficients.tobytes() == solo.coefficients.tobytes()
        assert result.history == solo.history
        assert result.n_iterations == solo.n_iterations
        assert result.converged == solo.converged
        assert result.step_reductions == solo.step_reductions


def test_tiles_freezing_in_different_stages_match_their_solo_solves():
    # Tile 0's weight sits above a third of its ||A^T y||_inf, so the first
    # λ stage (profile stage 1, after the AMP warm start) soon shrinks it to
    # zero and freezes it while tile 1 still iterates: the stack's stages
    # end at different times per tile.
    problems = [tile_problem((16, 16), "dct", seed, bounded=True) for seed in (5, 6)]
    operators = [operator for operator, _ in problems]
    measurements = np.stack([samples for _, samples in problems])
    weights = [0.5 * np.abs(operators[0].rmatvec(measurements[0])).max(), 0.5]
    profile = SolverProfile()
    batched = batched_proximal_gradient(
        operators, measurements, regularization=np.array(weights),
        max_iterations=100, tolerance=1e-3, profile=profile,
    )
    assert profile.n_stages == 4 and profile.amp_iterations == 10
    early = [count for count, stage in zip(profile.frozen_counts, profile.stages) if stage == 1]
    assert early[0] == 0 and early[-1] == 1 and set(early) == {0, 1}
    for operator, samples, weight, result in zip(operators, measurements, weights, batched):
        solo = fista(operator, samples, regularization=weight, max_iterations=100, tolerance=1e-3)
        assert result.coefficients.tobytes() == solo.coefficients.tobytes()
        assert result.history == solo.history
        assert result.converged == solo.converged


def best_amp_iteration(samples, result):
    """The AMP iteration (0 is the zero start) whose iterate the λ path took."""
    residuals = [float(np.linalg.norm(samples)), *result.history[:10]]
    return int(np.argmin(residuals))


def test_tiles_taking_different_amp_iterates_match_their_solo_solves():
    # On 16x16 rule-30 tiles AMP runs away after a few iterations on some
    # seeds and not on others, and on a rule-204 tile (a degenerate Φ) at
    # once, so the guard hands each tile's λ path a different iterate.
    problems = [tile_problem((16, 16), "dct", seed, bounded=True) for seed in (5, 6, 7)]
    problems.append(tile_problem((16, 16), "dct", 5, bounded=True, rule=204))
    operators = [operator for operator, _ in problems]
    measurements = np.stack([samples for _, samples in problems])
    batched = batched_proximal_gradient(
        operators, measurements, regularization=0.5, max_iterations=60
    )
    best = [best_amp_iteration(y, result) for y, result in zip(measurements, batched)]
    assert len(set(best)) == len(best)
    for operator, samples, result in zip(operators, measurements, batched):
        solo = fista(operator, samples, regularization=0.5, max_iterations=60)
        assert result.coefficients.tobytes() == solo.coefficients.tobytes()
        assert result.history == solo.history
        assert result.n_iterations == solo.n_iterations
        assert result.converged == solo.converged
        assert result.step_reductions == solo.step_reductions
