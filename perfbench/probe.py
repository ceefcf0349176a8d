"""Machine-speed probe: how fast this CPU runs Python right now.

On a shared two-vCPU machine the neighbours' load slows every process on
the box by up to 2x, in bursts from a fraction of a second to minutes, so
raw host seconds of two runs minutes apart differ by more than any change
worth measuring. The probe times fixed pure-Python kernels -- heap and
small-object traffic, and allocation of small containers, the simulator's
staple work -- right before and right after each job, and the job's host
time is scaled by how slow the probe ran against :data:`REFERENCE_S`. The
scaling follows the slow regimes; bursts shorter than a job average out
over the jobs of a run, and long jobs see too few samples to follow them.

Samples are taken only between jobs, after the last job's objects have been
collected, so no probe time falls inside a job's spans, and with the
garbage collector off, so the probe neither walks the program's objects nor
moves its next collection. The probe keeps no data of its own, so it adds
nothing to ``peak_rss_mb``. What it still shares with the program is the
process's allocator.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from dataclasses import dataclass

#: Samples taken before and after each job.
SAMPLES = 5

#: Fixed reference duration of one sample: scaled host times are seconds at
#: the speed where one sample takes this long. On a 2-vCPU Xeon virtual
#: machine with Python 3.11 a sample takes 1.2x to 3x as long, depending on
#: the neighbours' load.
REFERENCE_S = 0.001


@dataclass(slots=True)
class _Item:
    key: int
    name: str


def _heap_kernel() -> int:
    queue: list = []
    table: dict[int, int] = {}
    for i in range(800):
        heapq.heappush(queue, ((i * 7919) % 1000, i, _Item(i, "x")))
    while queue:
        when, _i, item = heapq.heappop(queue)
        slot = item.key % 64
        table[slot] = table.get(slot, 0) + when
    return len(table)


def _alloc_kernel() -> int:
    made = [{"a": (i, str(i)), "b": [i, i + 1]} for i in range(1500)]
    return len(made)


def measure() -> list[float]:
    """Durations of :data:`SAMPLES` samples taken now.

    The collector is off while the kernels run. Their containers hold no
    cycles, so each is freed by the end of its sample, and the allocation
    count that schedules the next collection moves by a few dozen at most
    (containers parked on CPython's free lists are not counted back).
    """
    durations = []
    gc.disable()
    try:
        for _ in range(SAMPLES):
            start = time.perf_counter()
            _heap_kernel()
            _alloc_kernel()
            durations.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return durations


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the machine ran (median sample)."""
    return statistics.median(samples) / REFERENCE_S
