"""A fixed piece of reference work that measures how fast the machine is right now.

The benchmark's time metrics are scaled by it. On a CPU shared with other
tenants, the speed of the same code drifts by tens of percent over minutes,
and CPU time drifts with it: the drift is a slower CPU, not time taken away
from the process. Timing this work between the passes of a run and before
each set-up probe, on the same CPU, and dividing by the median rep removes
much of the drift between runs. The work never touches ``sapphire_novelty``,
so a change to the package cannot move it.

The work is a pure interpreter loop over small integers. It allocates
nothing that lives, so the heap a long run leaves behind does not change
its speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Seconds one rep of the reference work takes on the machine the bounds were
#: set on. A scaled time reads as seconds on a machine where the median rep
#: takes this long.
NOMINAL_S = 0.025

#: Fewest reps timed at a time: between two passes or before a set-up probe.
REPS = 3

#: Between passes, the reps take about this share of the pass before them, so
#: the reps sample the run's time about as evenly as its passes do.
SHARE = 0.1

_LOOP = 250_000


def _work() -> int:
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    return total


def reps(after_s: float = 0.0) -> list[float]:
    """Wall time of each rep of the reference work, timed after ``after_s`` of work.

    Times ``REPS`` reps, or more when that is less than ``SHARE`` of ``after_s``.
    """
    times = []
    for _ in range(max(REPS, round(SHARE * after_s / NOMINAL_S))):
        started = perf_counter()
        _work()
        times.append(perf_counter() - started)
    return times


def scale(reference_s: list[float]) -> float:
    """Factor that turns seconds measured next to ``reference_s`` into nominal seconds."""
    return NOMINAL_S / statistics.median(reference_s)
