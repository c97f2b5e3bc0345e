"""Paired rounds: the one timing protocol of the wall-clock gates.

A gate that times side A in one block and side B in the next measures the
machine's drift between the two blocks as much as A against B, and on a
shared runner that drift exceeds a 2% margin.  :func:`paired_rounds` runs
every side once per round instead, rotating which goes first, so a speed
swing hits every side of a round alike; the caller gates on the median over
the rounds of a per-round ratio.  The caller also picks the clock:
``time.perf_counter`` for a wall-clock claim, ``time.process_time`` for a
claim about this process's CPU.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping


def paired_rounds(
    sides: Mapping[str, Callable[[], object]],
    *,
    rounds: int,
    clock: Callable[[], float] = time.perf_counter,
) -> list[dict[str, float]]:
    """Seconds per side and round, the sides run in rotating order.

    Round ``i`` starts at side ``i mod len(sides)`` and runs each side
    once, reading ``clock`` around the call.  Returns one
    ``{side: seconds}`` dict per round.
    """
    order = list(sides.items())
    timings = []
    for index in range(rounds):
        shift = index % len(order)
        round_timings = {}
        for name, run in order[shift:] + order[:shift]:
            start = clock()
            run()
            round_timings[name] = clock() - start
        timings.append(round_timings)
    return timings
