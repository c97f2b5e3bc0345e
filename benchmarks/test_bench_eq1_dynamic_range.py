"""E6 — Eq. (1): dynamic range of compressed samples.

Regenerates the bit-budget table ``N_B = N_b + log2(M N)`` across pixel depths
and array sizes, verifies the prototype's 14-bit column / 20-bit sample
widths, and shows empirically that Eq. (1) is tight: the prescribed register
never clips, one bit less clips the worst case.
"""

import pytest

from benchmarks.conftest import print_table
from repro.analysis.dynamic_range import clipping_rate, dynamic_range_table
from repro.sensor.sample_add import AccumulatorOverflowError, SampleAndAdd


def test_eq1_bit_budget_table(benchmark):
    table = benchmark(dynamic_range_table)
    rows = [row for row in table if row["pixel_bits"] == 8]
    print_table("Eq. (1) — compressed-sample bit budget (8-bit pixels)", rows)

    prototype = next(r for r in rows if (r["rows"], r["cols"]) == (64, 64))
    assert prototype["compressed_sample_bits"] == 20
    assert prototype["max_useful_ratio"] == pytest.approx(0.4)
    # The paper's block-CS remark: even an 8x8 block needs 14 bits.
    block = next(r for r in rows if (r["rows"], r["cols"]) == (8, 8))
    assert block["compressed_sample_bits"] == 14


def test_eq1_register_widths_are_tight(benchmark):
    def clipping_summary():
        return {
            "20-bit full frame, worst case": clipping_rate(20, 8, 4096, worst_case=True),
            "19-bit full frame, worst case": clipping_rate(19, 8, 4096, worst_case=True),
            "14-bit column, worst case": clipping_rate(14, 8, 64, worst_case=True),
            "13-bit column, worst case": clipping_rate(13, 8, 64, worst_case=True),
            "20-bit full frame, random selections": clipping_rate(
                20, 8, 4096, n_trials=200, seed=1
            ),
        }

    summary = benchmark.pedantic(clipping_summary, rounds=1, iterations=1)
    print_table(
        "Eq. (1) — clipping rates",
        [{"register": k, "clip_rate": v} for k, v in summary.items()],
    )
    assert summary["20-bit full frame, worst case"] == 0.0
    assert summary["19-bit full frame, worst case"] == 1.0
    assert summary["14-bit column, worst case"] == 0.0
    assert summary["13-bit column, worst case"] == 1.0
    assert summary["20-bit full frame, random selections"] == 0.0


def test_eq1_hardware_adder_tree_respects_widths(benchmark):
    """The Sample & Add register model itself enforces Eq. (1)."""

    def worst_case_sum():
        adder = SampleAndAdd(n_columns=64, column_bits=14, sample_bits=20)
        for col in range(64):
            for _ in range(64):
                adder.add_code(col, 255)
        return adder.compressed_sample()

    total = benchmark.pedantic(worst_case_sum, rounds=1, iterations=1)
    assert total == 4096 * 255
    undersized = SampleAndAdd(n_columns=64, column_bits=14, sample_bits=19)
    for col in range(64):
        for _ in range(64):
            undersized.add_code(col, 255)
    with pytest.raises(AccumulatorOverflowError):
        undersized.compressed_sample()
