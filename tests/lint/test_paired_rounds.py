"""``benchmarks/paired.py`` times every side once per round, in rotating order."""

import importlib.util
from pathlib import Path

import pytest

HELPER_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "paired.py"


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired", HELPER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TickClock:
    """A clock that advances one tick per read, so each call lasts one tick."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def recording_sides(names, log):
    return {name: (lambda name=name: log.append(name)) for name in names}


@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c")])
def test_rounds_rotate_which_side_goes_first(paired, names):
    log = []
    paired.paired_rounds(recording_sides(names, log), rounds=2 * len(names), clock=TickClock())
    per_round = [tuple(log[i : i + len(names)]) for i in range(0, len(log), len(names))]
    firsts = [order[0] for order in per_round]
    assert firsts == list(names) * 2
    assert all(sorted(order) == sorted(names) for order in per_round)


def test_each_round_reads_the_callers_clock_around_each_side(paired):
    clock = TickClock()

    def slow():
        clock()  # one extra read: this side lasts two ticks

    rounds = paired.paired_rounds({"fast": lambda: None, "slow": slow}, rounds=3, clock=clock)
    assert rounds == [{"fast": 1.0, "slow": 2.0}] * 3

