"""Property suite: the ±1 CA-XOR kernels against the dense Φ.

:class:`~repro.cs.structured.StructuredSensingOperator` and the batched
solver compute every product from the ±1 factors
(``(Φ − d)x = (½ − d)·sum(X) − ½·rowdot(S_R X, S_C)``).  Here hypothesis
draws factor pairs — including all-zero and all-one factor rows, where the
±1 form is a constant ±1 line — and checks the solo and stacked kernels
against ``selection_masks_from_states`` expanded densely, for ``center`` 0
and the exact density, plus the adjoint identity ``⟨Φx, y⟩ = ⟨x, Φ*y⟩``.

Tolerances are relative to the l1 norm of the input vector.  Every term of
the ±1 kernels is bounded by it, so it is the scale rounding error grows
with — also where Φ's row is all zeros and the two ±1 terms cancel exactly.
The dense pins run on the float64 products, where 1e-12 leaves over three
orders of magnitude of headroom at these sizes.  The default float32 GEMMs
are pinned at 1e-5: float32's rounding unit (6e-8) times the at most 24
terms a product sums here, with headroom.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ca.selection import selection_masks_from_states
from repro.cs.solvers.batched import _TileStack
from repro.cs.structured import StructuredSensingOperator

RTOL = 1e-12
MIXED_RTOL = 1e-5


@st.composite
def factor_pairs(draw, n_samples=None, rows=None, cols=None):
    """A 0/1 ``(R, C)`` pair with some rows forced all-zero or all-one."""
    n_samples = n_samples or draw(st.integers(1, 24))
    rows = rows or draw(st.integers(1, 10))
    cols = cols or draw(st.integers(1, 10))
    bits = st.integers(0, 1)
    row_factors = draw(arrays(np.uint8, (n_samples, rows), elements=bits))
    col_factors = draw(arrays(np.uint8, (n_samples, cols), elements=bits))
    for factors in (row_factors, col_factors):
        forced = draw(st.lists(st.integers(0, n_samples - 1), max_size=3))
        for index in forced:
            factors[index] = draw(bits)
    return row_factors, col_factors


def dense_phi(row_factors, col_factors, center):
    rows, cols = row_factors.shape[1], col_factors.shape[1]
    masks = selection_masks_from_states(
        np.concatenate([row_factors, col_factors], axis=1), rows, cols
    )
    return masks.astype(float) - center


def make_operator(row_factors, col_factors, centred, precision="float64"):
    operator = StructuredSensingOperator(row_factors, col_factors, precision=precision)
    operator.center = operator.density if centred else 0.0
    return operator


def assert_close(got, vector, reference, rtol=RTOL):
    scale = max(float(np.abs(vector).sum()), 1e-300)
    assert np.abs(got - reference).max() <= rtol * scale


@settings(max_examples=60, deadline=None)
@given(factor_pairs(), st.booleans(), st.integers(0, 2**32 - 1))
def test_solo_products_match_dense_phi(pair, centred, seed):
    row_factors, col_factors = pair
    operator = make_operator(row_factors, col_factors, centred)
    phi = dense_phi(row_factors, col_factors, operator.center)
    rng = np.random.default_rng(seed)
    pixels = rng.standard_normal(phi.shape[1])
    samples = rng.standard_normal(phi.shape[0])
    assert_close(operator.phi_dot(pixels), pixels, phi @ pixels)
    assert_close(operator.phi_rdot(samples), samples, phi.T @ samples)


@settings(max_examples=60, deadline=None)
@given(factor_pairs(), st.booleans(), st.integers(0, 2**32 - 1))
def test_mixed_products_match_dense_phi_at_float32_rounding(pair, centred, seed):
    row_factors, col_factors = pair
    operator = make_operator(row_factors, col_factors, centred, precision="mixed")
    phi = dense_phi(row_factors, col_factors, operator.center)
    rng = np.random.default_rng(seed)
    pixels = rng.standard_normal(phi.shape[1])
    samples = rng.standard_normal(phi.shape[0])
    forward, back = operator.phi_dot(pixels), operator.phi_rdot(samples)
    assert forward.dtype == back.dtype == np.float64
    assert_close(forward, pixels, phi @ pixels, MIXED_RTOL)
    assert_close(back, samples, phi.T @ samples, MIXED_RTOL)


@settings(max_examples=40, deadline=None)
@given(factor_pairs(), st.booleans(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_column_products_match_dense_phi(pair, centred, n_atoms, seed):
    # Below MATERIALIZE_COLUMN_THRESHOLD columns ride the stacked kernel.
    row_factors, col_factors = pair
    operator = make_operator(row_factors, col_factors, centred)
    phi = dense_phi(row_factors, col_factors, operator.center)
    atoms = np.random.default_rng(seed).standard_normal((phi.shape[1], n_atoms))
    got = operator.phi_dot_columns(atoms)
    reference = phi @ atoms
    for column in range(n_atoms):
        assert_close(got[:, column], atoms[:, column], reference[:, column])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 4),
    st.data(),
)
def test_stacked_products_match_dense_phi_per_tile(n_samples, rows, cols, n_tiles, data):
    operators = []
    for _ in range(n_tiles):
        row_factors, col_factors = data.draw(factor_pairs(n_samples, rows, cols))
        operators.append(make_operator(row_factors, col_factors, data.draw(st.booleans())))
    stack = _TileStack(operators)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pixels = rng.standard_normal((n_tiles, rows * cols))
    samples = rng.standard_normal((n_tiles, n_samples))
    forward = stack.forward(pixels, list(range(n_tiles)))
    adjoint = stack.adjoint(samples)
    for tile, operator in enumerate(operators):
        phi = dense_phi(operator.row_factors, operator.col_factors, operator.center)
        assert_close(forward[tile], pixels[tile], phi @ pixels[tile])
        assert_close(adjoint[tile], samples[tile], phi.T @ samples[tile])


@settings(max_examples=60, deadline=None)
@given(factor_pairs(), st.booleans(), st.integers(0, 2**32 - 1))
def test_adjoint_identity(pair, centred, seed):
    row_factors, col_factors = pair
    operator = make_operator(row_factors, col_factors, centred)
    phi = dense_phi(row_factors, col_factors, operator.center)
    rng = np.random.default_rng(seed)
    pixels = rng.standard_normal(phi.shape[1])
    samples = rng.standard_normal(phi.shape[0])
    forward = float(operator.phi_dot(pixels) @ samples)
    backward = float(pixels @ operator.phi_rdot(samples))
    scale = float(np.abs(samples).sum() * np.abs(pixels).sum())
    assert abs(forward - backward) <= RTOL * max(scale, 1e-300)


def test_constant_factor_rows_are_exact():
    # All-zero R with all-one C selects every pixel; all-one with all-one none.
    rows, cols = 5, 7
    row_factors = np.array([[0] * rows, [1] * rows, [0] * rows], dtype=np.uint8)
    col_factors = np.array([[1] * cols, [1] * cols, [0] * cols], dtype=np.uint8)
    operator = StructuredSensingOperator(row_factors, col_factors)
    pixels = np.arange(rows * cols, dtype=float)
    assert operator.phi_dot(pixels).tolist() == [pixels.sum(), 0.0, 0.0]
    back = operator.phi_rdot(np.array([2.0, 3.0, 5.0]))
    assert back.tolist() == [2.0] * (rows * cols)
