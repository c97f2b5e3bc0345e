"""The CI benchmark-regression gate compares each benchmark with its own baseline.

``benchmarks/check_regression.py`` used to gate on group median-of-medians,
which a mixed-runtime group (``recon`` holds 0.14 s and 12.9 s members) can
leave unmoved while one member doubles.  These tests drive the script on
synthetic pytest-benchmark reports.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(medians):
    return {
        "benchmarks": [
            {"name": name, "group": group, "stats": {"median": median}}
            for (group, name), median in medians.items()
        ]
    }


BASELINE = {
    ("recon", "test_recon_fast"): 0.14,
    ("recon", "test_recon_middle"): 1.7,
    ("recon", "test_recon_slow"): 12.9,
    ("hub", "test_hub_fan_in"): 0.2,
}


def run_gate(gate, tmp_path, current):
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    results.write_text(json.dumps(report(current)))
    baseline.write_text(json.dumps(report(BASELINE)))
    return gate.main([str(results), str(baseline), "--threshold", "1.30"])


def test_unchanged_results_pass(gate, tmp_path):
    assert run_gate(gate, tmp_path, dict(BASELINE)) == 0


def test_one_member_doubling_fails_while_its_group_median_holds(gate, tmp_path, capsys):
    current = dict(BASELINE)
    current[("recon", "test_recon_fast")] = 2 * BASELINE[("recon", "test_recon_fast")]
    assert gate.group_medians(report(current)) == gate.group_medians(report(BASELINE))
    assert run_gate(gate, tmp_path, current) == 1
    assert "benchmark 'test_recon_fast' regressed 2.00x" in capsys.readouterr().err


def test_slowdown_within_threshold_passes(gate, tmp_path):
    current = {key: 1.25 * median for key, median in BASELINE.items()}
    assert run_gate(gate, tmp_path, current) == 0


def test_missing_tracked_benchmark_fails(gate, tmp_path, capsys):
    current = dict(BASELINE)
    del current[("hub", "test_hub_fan_in")]
    assert run_gate(gate, tmp_path, current) == 1
    assert "tracked benchmark 'test_hub_fan_in' missing" in capsys.readouterr().err
