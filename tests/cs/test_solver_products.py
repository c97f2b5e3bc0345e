"""Product counts and recurrence pins for the solo iterative solvers.

The solvers carry the forward product the residual norm needs into the next
gradient instead of recomputing it: one ``matvec`` and one ``rmatvec`` per
FISTA/ISTA iteration (plus the start point's ``matvec``).  The reference
recurrence below is the three-product form the solvers replaced, kept as an
executable spec:

* ISTA stays byte-identical to it — its gradient point *is* the previous
  iterate, so the carried product is the recomputed one;
* FISTA tracks ``A @ momentum_point`` by linearity, which moves bytes at
  the ulp level only, pinned here at 1e-9 relative on a 64x64 frame's
  float64 products.
"""

import numpy as np
import pytest

from repro.ca.selection import ca_selection_factors
from repro.cs.dictionaries import make_dictionary
from repro.cs.matrices import gaussian_matrix
from repro.cs.operators import SensingOperator
from repro.cs.solvers import fista, ista
from repro.cs.solvers.iterative import soft_threshold
from repro.cs.structured import StructuredSensingOperator
from repro.optics.scenes import make_scene
from repro.utils.rng import nonzero_seed_bits


def reference_proximal_gradient(
    operator, measurements, *, regularization, max_iterations, tolerance,
    step, initial=None, accelerated,
):
    """The replaced recurrence: two matvecs and one rmatvec per iteration."""
    if initial is None:
        coefficients = np.zeros(operator.n_coefficients)
    else:
        coefficients = np.asarray(initial, dtype=float).reshape(-1).copy()
    momentum_point = coefficients.copy()
    momentum = 1.0
    history = []
    for _ in range(max_iterations):
        gradient = operator.rmatvec(operator.matvec(momentum_point) - measurements)
        candidate = soft_threshold(momentum_point - step * gradient, step * regularization)
        if accelerated:
            next_momentum = (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2)) / 2.0
            momentum_point = candidate + ((momentum - 1.0) / next_momentum) * (
                candidate - coefficients
            )
            momentum = next_momentum
        else:
            momentum_point = candidate
        change = np.linalg.norm(candidate - coefficients)
        scale = max(np.linalg.norm(coefficients), 1e-12)
        coefficients = candidate
        history.append(float(np.linalg.norm(measurements - operator.matvec(coefficients))))
        if change / scale <= tolerance:
            break
    return coefficients, history


def ca_problem(shape, n_samples, *, seed=3, dictionary="dct", precision="mixed"):
    """A centred structured CA operator and the measurements of a natural scene."""
    rows, cols = shape
    row_factors, col_factors = ca_selection_factors(
        n_samples, rows, cols, nonzero_seed_bits(rows + cols, seed)
    )
    operator = StructuredSensingOperator(
        row_factors, col_factors, make_dictionary(dictionary, shape), precision=precision
    )
    operator.center = operator.density
    scene = make_scene("natural", shape, seed=seed) * 255.0
    return operator, operator.phi_dot(scene.reshape(-1))


def dense_problem(seed=0):
    matrix = gaussian_matrix(40, 100, seed=seed)
    coefficients = np.zeros(100)
    coefficients[[3, 17, 60]] = [1.5, -2.0, 0.7]
    return SensingOperator(matrix), matrix @ coefficients


def count_products(operator):
    """Wrap the operator's matvec/rmatvec with call counters."""
    counts = {"matvec": 0, "rmatvec": 0}
    for name in counts:
        product = getattr(operator, name)

        def counted(vector, _product=product, _name=name):
            counts[_name] += 1
            return _product(vector)

        setattr(operator, name, counted)
    return counts


class TestProductCounts:
    @pytest.mark.parametrize("solver", [fista, ista])
    def test_proximal_gradient_runs_one_product_pair_per_iteration(self, solver):
        operator, measurements = ca_problem((16, 16), 100)
        counts = count_products(operator)
        result = solver(
            operator, measurements, regularization=1.0, max_iterations=25,
            tolerance=1e-300, step_size=1e-4,
        )
        assert result.n_iterations == 25
        assert counts == {"matvec": 26, "rmatvec": 25}


class TestRecurrencePins:
    @pytest.mark.parametrize("use_initial", [False, True])
    @pytest.mark.parametrize("problem", ["structured", "dense"])
    def test_ista_is_byte_identical_to_the_three_product_recurrence(
        self, problem, use_initial
    ):
        if problem == "structured":
            operator, measurements = ca_problem((16, 16), 100)
        else:
            operator, measurements = dense_problem()
        step = 1.0 / operator.operator_norm() ** 2
        initial = None
        if use_initial:
            initial = np.random.default_rng(1).standard_normal(operator.n_coefficients)
        result = ista(
            operator, measurements, regularization=0.05, max_iterations=80,
            tolerance=1e-6, step_size=step, initial=initial,
        )
        coefficients, history = reference_proximal_gradient(
            operator, measurements, regularization=0.05, max_iterations=80,
            tolerance=1e-6, step=step, initial=initial, accelerated=False,
        )
        assert result.coefficients.tobytes() == coefficients.tobytes()
        assert result.history == history

    def test_fista_matches_the_three_product_recurrence_on_a_64x64_frame(self):
        # Tracking A @ momentum_point by linearity drifts with the products'
        # rounding: the 1e-9 pin holds on the float64 products.
        operator, measurements = ca_problem((64, 64), 1638, precision="float64")
        step = 1.0 / operator.operator_norm() ** 2
        result = fista(
            operator, measurements, regularization=2.0, max_iterations=200,
            tolerance=1e-6, step_size=step,
        )
        coefficients, history = reference_proximal_gradient(
            operator, measurements, regularization=2.0, max_iterations=200,
            tolerance=1e-6, step=step, accelerated=True,
        )
        assert result.n_iterations == len(history)
        drift = np.linalg.norm(result.coefficients - coefficients)
        assert drift <= 1e-9 * np.linalg.norm(coefficients)
        np.testing.assert_allclose(result.history, history, rtol=1e-9, atol=0.0)
