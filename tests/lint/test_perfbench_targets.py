"""Every function ``perfbench/`` traces still resolves against ``src``.

The traced run fails when a probe target or an expected call no longer
resolves; this test catches a moved or renamed call site in tier-1, before
the ``--trace 1`` smoke run would.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _perfbench_modules():
    """``perfbench/layers.py`` and ``perfbench/tracer.py``, imported as perfbench does."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


layers, tracer = _perfbench_modules()


def _ignore(*args):
    return None


TARGETS = sorted(
    {probe.target for probe in layers.make_probes(_ignore, _ignore)}
    | {target for calls in layers.EXPECTED_CALLS.values() for target in calls}
)


def test_targets_were_collected():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    owner, key, in_table = tracer._resolve(target)
    assert callable(tracer._current(owner, key, in_table))
