"""Quantile helpers, property-tested against ``numpy.percentile``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import SUMMARY_QUANTILES, percentile, quantile_summary

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestPercentile:
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=64),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_numpy_linear_interpolation(self, values, q):
        expected = float(np.percentile(np.asarray(values), q))
        assert percentile(values, q) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], -0.5)


class TestQuantileSummary:
    def test_default_keys_follow_summary_quantiles(self):
        summary = quantile_summary([1.0, 2.0, 3.0, 4.0])
        assert tuple(summary) == tuple(f"p{int(q)}" for q in SUMMARY_QUANTILES)
        assert summary["p50"] == 2.5

    @given(values=st.lists(finite_floats, min_size=1, max_size=32))
    def test_every_entry_is_the_exact_percentile(self, values):
        summary = quantile_summary(values)
        for key, value in summary.items():
            assert value == percentile(values, float(key[1:]))
