"""The package needs no scipy: numpy is its only runtime dependency.

scipy is a test extra.  Two checks keep it that way:

* an AST scan of every module under ``src/repro`` finds no scipy import at
  any scope, so no call path can need it, however rarely it runs;
* the capture→pixels service modules import cleanly in a fresh interpreter
  and leave no scipy in ``sys.modules`` (this test process may already hold
  scipy from other tests, hence the new interpreter).  Importing scipy costs
  about half a second and a second OpenBLAS in every process, so a
  restarting camera node or hub must not pay it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

# repro itself plus the modules the capture→stream→reconstruct workloads use.
SERVICE_MODULES = (
    "repro",
    "repro.stream",
    "repro.recon",
    "repro.sensor",
    "repro.optics",
    "repro.cs.metrics",
)

PROBE = (
    "import importlib, sys\n"
    f"for name in {SERVICE_MODULES!r}:\n"
    "    importlib.import_module(name)\n"
    "print('\\n'.join(sorted(k for k in sys.modules "
    "if k == 'scipy' or k.startswith('scipy.'))))\n"
)


def scipy_imports(source: str) -> list[int]:
    """Line numbers of every ``import scipy…``/``from scipy… import`` in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_nested_imports():
    source = "def f():\n    from scipy.optimize import linprog\n\nimport scipy.fft\n"
    assert scipy_imports(source) == [2, 4]
    assert scipy_imports("import numpy\nfrom .scipy import x\n") == []


def _package_modules() -> list[pathlib.Path]:
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, "src/repro vanished — update PACKAGE"
    return modules


@pytest.mark.parametrize(
    "path",
    _package_modules(),
    ids=lambda path: str(path.relative_to(REPO_ROOT / "src")),
)
def test_no_module_imports_scipy(path):
    offenders = scipy_imports(path.read_text(encoding="utf-8"))
    assert offenders == [], f"{path.relative_to(REPO_ROOT)} imports scipy at lines {offenders}"


def test_service_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
