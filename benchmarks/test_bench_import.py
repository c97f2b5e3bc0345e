"""E-import — cold start: a fresh interpreter's ``import repro``.

A camera node or hub that restarts pays this before its first frame, and it
is almost all of perfbench's ``setup_s``.  Each round starts a new
interpreter, so nothing is cached in ``sys.modules``; the time includes the
interpreter's own start-up (a few tens of ms), which is constant across
changes to the package.  No module of the package imports scipy, a test-only
dependency (``tests/test_import_boundary.py``); this member makes a slip
visible to the regression gate as a time, since scipy alone costs about half
a second.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.benchmark(group="import")
def test_fresh_import(benchmark):
    """Wall time of ``python -c "import repro"`` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run():
        subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, check=True
        )

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
