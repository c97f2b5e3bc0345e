"""CLI behaviour of ``python -m repro._lint`` and the whole-repo clean pass."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro._lint import iter_python_files, lint_paths, rule_ids

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _run_lint(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro._lint", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_whole_repo_is_clean_in_process():
    """The acceptance bar: zero findings over src, tests and examples."""
    findings = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "examples"]
    )
    assert findings == [], "\n".join(f.render() for f in findings)


def test_benchmark_trees_have_no_unused_imports():
    """REPRO007 alone over the two benchmark trees; only reads them."""
    from repro._lint.rules.unused_imports import RULE

    findings = lint_paths(
        [REPO_ROOT / "benchmarks", REPO_ROOT / "perfbench"], rules=[RULE]
    )
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exits_zero_on_clean_tree():
    result = _run_lint("src", "tests", "examples")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_exits_one_on_findings(tmp_path):
    rogue = tmp_path / "src" / "repro" / "sensor"
    rogue.mkdir(parents=True)
    (rogue / "rogue.py").write_text(
        "import numpy as np\n\n\ndef jitter(n):\n    return np.random.rand(n)\n",
        encoding="utf-8",
    )
    result = _run_lint(str(tmp_path / "src"))
    assert result.returncode == 1
    assert "REPRO003" in result.stdout
    # file:line:col prefix so editors can jump to the violation.
    assert "rogue.py:5:" in result.stdout


def test_cli_disable_flag_drops_the_rule(tmp_path):
    rogue = tmp_path / "src" / "repro" / "sensor"
    rogue.mkdir(parents=True)
    (rogue / "rogue.py").write_text(
        "import numpy as np\n\n\ndef jitter(n):\n    return np.random.rand(n)\n",
        encoding="utf-8",
    )
    result = _run_lint("--disable", "REPRO003", str(tmp_path / "src"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_json_output(tmp_path):
    rogue = tmp_path / "src" / "repro" / "sensor"
    rogue.mkdir(parents=True)
    (rogue / "rogue.py").write_text(
        "import numpy as np\n\n\ndef jitter(n):\n    return np.random.rand(n)\n",
        encoding="utf-8",
    )
    result = _run_lint("--json", str(tmp_path / "src"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload[0]["rule_id"] == "REPRO003"
    assert payload[0]["line"] == 5
    assert payload[0]["hint"]


def test_cli_list_rules():
    result = _run_lint("--list-rules")
    assert result.returncode == 0
    for rule_id in rule_ids():
        assert rule_id in result.stdout


def test_cli_wire_fingerprint_matches_pins():
    from repro._lint.rules.frozen_wire import EXPECTED_FINGERPRINTS

    result = _run_lint("--wire-fingerprint")
    assert result.returncode == 0
    for module_rel, digest in EXPECTED_FINGERPRINTS.items():
        assert digest in result.stdout, f"{module_rel} digest not reported"


def test_cli_exit_two_on_unreadable_path():
    result = _run_lint("no/such/dir")
    assert result.returncode == 2


def test_iter_python_files_skips_caches(tmp_path):
    package = tmp_path / "pkg"
    cache = package / "__pycache__"
    cache.mkdir(parents=True)
    (package / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (cache / "mod.cpython-311.pyc").write_text("", encoding="utf-8")
    files = list(iter_python_files([package]))
    assert [f.name for f in files] == ["mod.py"]


@pytest.mark.parametrize("subdir", ["src", "tests", "examples"])
def test_lint_scope_covers_tree(subdir):
    """Every .py file under the linted roots is actually visited."""
    root = REPO_ROOT / subdir
    visited = set(iter_python_files([root]))
    on_disk = {
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    }
    assert visited == on_disk
