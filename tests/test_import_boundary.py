"""The capture→pixels import path loads no scipy.

scipy is needed only by :func:`repro.cs.solvers.convex.basis_pursuit`, which
imports its LP solver on call.  Importing scipy costs about half a second and
a second OpenBLAS plus HiGHS in every process, so a restarting camera node or
hub must not pay it.  The check runs in a fresh interpreter: this test
process may already hold scipy from other tests.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

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
