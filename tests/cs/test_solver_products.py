"""Product counts and recurrence pins for the solo iterative solvers.

The solvers carry the forward product the residual norm needs into the next
gradient instead of recomputing it: one ``matvec`` and one ``rmatvec`` per
iteration, the message-passing warm start's included (plus the start
point's ``matvec``), with none spent at a stage boundary.  The reference
recurrence below is the three-product form the solvers replaced, on the
path the solvers follow (recon contract version 3), kept as an executable
spec:

* a budget that leaves at least 25 iterations after them opens with 10
  iterations of approximate message passing (AMP) at threshold
  ``1.5·‖mem‖/(s·√m)`` with ``s² = ‖A‖²_F/n``, which hands its
  least-residual iterate (the start included) to the λ path;
* the λ path runs the rest of the budget in up to four stages at
  ``λ·27, λ·9, λ·3, λ`` (one stage per 25 iterations, the budget split
  evenly and the remainder on the last), each warm-started from the last
  stage's iterate with FISTA's momentum reset, and each ending early when
  the relative change falls below the tolerance;
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
from repro.cs.solvers.iterative import message_passing, soft_threshold, stage_budgets
from repro.cs.structured import StructuredSensingOperator
from repro.optics.scenes import make_scene
from repro.telemetry import SolverProfile
from repro.utils.rng import nonzero_seed_bits


def reference_amp_iterations(max_iterations):
    """AMP opens a solve when at least one 25-iteration stage is left after it."""
    return 10 if max_iterations - 10 >= 25 else 0


def reference_stages(max_iterations):
    """``(λ factor, iterations)`` of every continuation stage of a λ-path budget."""
    n_stages = min(max(max_iterations // 25, 1), 4)
    share = max_iterations // n_stages
    budgets = [share] * (n_stages - 1) + [max_iterations - share * (n_stages - 1)]
    return [(3.0 ** (n_stages - 1 - stage), budget) for stage, budget in enumerate(budgets)]


def reference_message_passing(operator, measurements, coefficients, n_iterations):
    """AMP with recomputed products; the least-residual iterate and the history."""
    n_samples = operator.n_samples
    energy = operator.mean_column_energy()
    memory = measurements - operator.matvec(coefficients)
    best, best_norm = coefficients, float(np.linalg.norm(memory))
    history = []
    for _ in range(n_iterations):
        threshold = 1.5 * float(np.linalg.norm(memory)) / (
            float(np.sqrt(energy)) * np.sqrt(n_samples)
        )
        coefficients = soft_threshold(
            coefficients + operator.rmatvec(memory) / energy, threshold
        )
        residual = measurements - operator.matvec(coefficients)
        memory = residual + memory * (np.count_nonzero(coefficients) / n_samples)
        history.append(float(np.linalg.norm(residual)))
        if history[-1] < best_norm:
            best, best_norm = coefficients, history[-1]
    return best, history


def reference_proximal_gradient(
    operator, measurements, *, regularization, max_iterations, tolerance,
    step, initial=None, accelerated,
):
    """The replaced recurrence: two matvecs and one rmatvec per iteration."""
    if initial is None:
        coefficients = np.zeros(operator.n_coefficients)
    else:
        coefficients = np.asarray(initial, dtype=float).reshape(-1).copy()
    n_amp = reference_amp_iterations(max_iterations)
    coefficients, history = reference_message_passing(
        operator, measurements, coefficients, n_amp
    )
    for factor, budget in reference_stages(max_iterations - n_amp):
        weight = regularization * factor
        momentum_point = coefficients.copy()
        momentum = 1.0
        converged = False
        for _ in range(budget):
            gradient = operator.rmatvec(operator.matvec(momentum_point) - measurements)
            candidate = soft_threshold(momentum_point - step * gradient, step * weight)
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
                converged = True
                break
    return coefficients, history, converged


def ca_problem(
    shape, n_samples, *, seed=3, dictionary="dct", precision="mixed", rule=30,
    repeat_rows=1,
):
    """A centred structured CA operator and the measurements of a natural scene.

    ``repeat_rows`` > 1 repeats each of the first ``n_samples / repeat_rows``
    rows of Φ that many times (a degenerate operator).
    """
    rows, cols = shape
    row_factors, col_factors = ca_selection_factors(
        n_samples, rows, cols, nonzero_seed_bits(rows + cols, seed), rule=rule
    )
    row_factors, col_factors = (
        np.repeat(factors[: n_samples // repeat_rows], repeat_rows, axis=0)
        for factors in (row_factors, col_factors)
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
    @pytest.mark.parametrize("budget, n_amp", [(25, 0), (34, 0), (35, 10), (60, 10)])
    def test_proximal_gradient_runs_one_product_pair_per_iteration(
        self, solver, budget, n_amp
    ):
        operator, measurements = ca_problem((16, 16), 100)
        counts = count_products(operator)
        profile = SolverProfile()
        result = solver(
            operator, measurements, regularization=1.0, max_iterations=budget,
            tolerance=1e-300, step_size=1e-4, profile=profile,
        )
        assert profile.amp_iterations == reference_amp_iterations(budget) == n_amp
        assert result.n_iterations == budget
        assert counts == {"matvec": budget + 1, "rmatvec": budget}

    @pytest.mark.parametrize("solver", [fista, ista])
    def test_stage_boundaries_cost_no_product(self, solver):
        # 100 iterations run the AMP warm start and three continuation stages.
        operator, measurements = ca_problem((16, 16), 100)
        counts = count_products(operator)
        result = solver(
            operator, measurements, regularization=1.0, max_iterations=100,
            tolerance=1e-300, step_size=1e-4,
        )
        assert result.n_iterations == 100
        assert counts == {"matvec": 101, "rmatvec": 100}


class TestColumnEnergy:
    @pytest.mark.parametrize("dictionary", ["dct", "identity", "haar"])
    @pytest.mark.parametrize("center", ["density", 0.0, 0.25])
    def test_mean_column_energy_is_the_frobenius_norm(self, dictionary, center):
        operator, _ = ca_problem((8, 16), 40, dictionary=dictionary, precision="float64")
        operator.center = operator.density if center == "density" else center
        dense = operator.dense()
        expected = float(np.vdot(dense, dense)) / operator.n_coefficients
        assert operator.mean_column_energy() == pytest.approx(expected, rel=1e-12)
        as_matrix = SensingOperator(operator.phi, operator.dictionary)
        assert as_matrix.mean_column_energy() == pytest.approx(expected, rel=1e-12)

    def test_a_centred_frame_reads_m_d_one_minus_d(self):
        operator, _ = ca_problem((16, 16), 100)
        density = operator.density
        assert operator.mean_column_energy() == pytest.approx(
            100 * density * (1.0 - density), rel=1e-15
        )


class TestMessagePassingGuard:
    """AMP assumes an i.i.d.-like Φ; on a degenerate one it diverges, and its
    least-residual guard hands the λ path an iterate no worse than the start."""

    @pytest.mark.parametrize("seed", [5, 6, 7])
    @pytest.mark.parametrize("degenerate", [{"rule": 204}, {"repeat_rows": 4}])
    def test_warm_start_never_leaves_a_residual_above_the_zero_start(
        self, degenerate, seed
    ):
        operator, measurements = ca_problem((16, 16), 100, seed=seed, **degenerate)
        start = np.zeros((1, operator.n_coefficients))

        def forward(stack, _tiles):
            return operator.matvec(stack[0])[None]

        def adjoint(stack):
            return operator.rmatvec(stack[0])[None]

        histories = [[]]
        best, measured = message_passing(
            forward,
            adjoint,
            measurements[None],
            start,
            forward(start, [0]),
            column_energies=np.array([operator.mean_column_energy()]),
            n_iterations=10,
            histories=histories,
            profile=None,
        )
        zero_start = float(np.linalg.norm(measurements))
        # The iterates themselves run away; the guard keeps the best.
        assert max(histories[0]) > zero_start
        residual = float(np.linalg.norm(measurements - measured[0]))
        assert residual <= zero_start
        assert residual == min([zero_start, *histories[0]])
        assert measured[0].tobytes() == operator.matvec(best[0]).tobytes()

    @pytest.mark.parametrize("degenerate", [{"rule": 204}, {"repeat_rows": 4}])
    def test_a_degenerate_frame_still_solves(self, degenerate):
        operator, measurements = ca_problem((16, 16), 100, seed=5, **degenerate)
        result = fista(operator, measurements, regularization=1.0, max_iterations=60)
        assert np.isfinite(result.coefficients).all()
        assert result.residual_norm < float(np.linalg.norm(measurements))


class TestStageBudgets:
    @pytest.mark.parametrize("budget", [1, 6, 24, 25, 49, 50, 60, 80, 99, 100, 120, 200, 201])
    def test_stages_follow_the_reference_rule(self, budget):
        budgets = [iterations for _, iterations in reference_stages(budget)]
        assert stage_budgets(budget) == budgets
        assert sum(budgets) == budget


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
        coefficients, history, converged = reference_proximal_gradient(
            operator, measurements, regularization=0.05, max_iterations=80,
            tolerance=1e-6, step=step, initial=initial, accelerated=False,
        )
        assert result.coefficients.tobytes() == coefficients.tobytes()
        assert result.history == history
        assert result.converged == converged

    @pytest.mark.parametrize("tolerance", [1e-2, 1e-3])
    @pytest.mark.parametrize("problem", ["structured", "dense"])
    def test_ista_matches_the_recurrence_when_stages_stop_early(self, problem, tolerance):
        # Loose tolerances freeze every stage before its budget runs out.
        if problem == "structured":
            operator, measurements = ca_problem((16, 16), 100)
        else:
            operator, measurements = dense_problem()
        step = 1.0 / operator.operator_norm() ** 2
        result = ista(
            operator, measurements, regularization=0.05, max_iterations=80,
            tolerance=tolerance, step_size=step,
        )
        coefficients, history, converged = reference_proximal_gradient(
            operator, measurements, regularization=0.05, max_iterations=80,
            tolerance=tolerance, step=step, accelerated=False,
        )
        assert result.n_iterations < 80
        assert result.coefficients.tobytes() == coefficients.tobytes()
        assert result.history == history
        assert result.converged and converged

    def test_fista_matches_the_three_product_recurrence_on_a_64x64_frame(self):
        # Tracking A @ momentum_point by linearity drifts with the products'
        # rounding: the 1e-9 pin holds on the float64 products.
        operator, measurements = ca_problem((64, 64), 1638, precision="float64")
        step = 1.0 / operator.operator_norm() ** 2
        result = fista(
            operator, measurements, regularization=2.0, max_iterations=200,
            tolerance=1e-6, step_size=step,
        )
        coefficients, history, converged = reference_proximal_gradient(
            operator, measurements, regularization=2.0, max_iterations=200,
            tolerance=1e-6, step=step, accelerated=True,
        )
        assert result.n_iterations == len(history)
        assert result.converged == converged
        drift = np.linalg.norm(result.coefficients - coefficients)
        assert drift <= 1e-9 * np.linalg.norm(coefficients)
        np.testing.assert_allclose(result.history, history, rtol=1e-9, atol=0.0)
