"""Host-speed calibration.

The benchmark runs on shared machines whose speed drifts by tens of
percent over tens of seconds as other tenants load the CPUs.  A fixed
pure-Python kernel, independent of the package under test, is timed
next to every timed job and set-up; dividing a measured time by the
kernel's time there and multiplying by :data:`REFERENCE_S` reports it
as it would read on a host where the kernel takes exactly that long.
Both slow down alike when the host does, so the scaled figure keeps the
program's own cost and drops most of the host's drift.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

#: the kernel's nominal time: reported host times are scaled to a host
#: on which :func:`kernel` takes this long.
REFERENCE_S = 0.010

#: kernel runs per calibration; their median is the reading.
REPEATS = 5


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: int, value: float) -> None:
        self.t = t
        self.key = key
        self.value = value


def kernel(n: int = 6000) -> float:
    """A small heap-driven event loop: the mix of heap, dict, list, float
    and attribute operations the simulator and compiler spend time on."""
    rng = random.Random(12345)
    heap = [(rng.random(), i) for i in range(64)]
    heapq.heapify(heap)
    totals = {}
    events = []
    for _ in range(n):
        t, key = heapq.heappop(heap)
        event = _Event(t, key % 97, t * 1.5 + 0.25)
        totals[event.key] = totals.get(event.key, 0.0) + event.value
        events.append(event)
        heapq.heappush(heap, (t + rng.random(), key + 1))
    events.sort(key=lambda e: (e.key, e.t))
    return sum(totals.values()) + len(events)


def reading() -> float:
    """Seconds the kernel takes on the host right now (median of runs)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor converting a time measured between two readings to
    reference host speed."""
    return 2 * REFERENCE_S / (before + after)
