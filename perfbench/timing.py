"""Item timing rescaled to a fixed reference speed of the host.

The benchmark runs on small shared machines whose speed drifts with what
other tenants run: on the 2-core box the benchmark was built on, a fixed
pure-Python loop slowed by 30-60% for periods of one second to more than
a minute, on both cores at once, and process CPU time slowed with it. A
workload timed in one process therefore reads 30% slower or faster
depending on when it ran, whatever the code does.

``Timer`` measures the host's current speed alongside the work. Between
two timed items, at most every ``PROBE_INTERVAL_S`` seconds, it times
``spin()``, a fixed arithmetic loop that calls no zptoolkit code, with the
garbage collector paused. An item that took ``d`` wall seconds while the
nearby probes took a median of ``p`` seconds is reported as
``d * REFERENCE_SPIN_S / p``: the wall time it would have taken with the
host at the reference speed, the speed at which ``spin()`` takes
``REFERENCE_SPIN_S`` between workload items on a quiet host. A change to
zptoolkit moves the items and not the probes, so it shows in full; a host
slowdown moves both and largely cancels. The probes cost about 1% of a
pass and are excluded from every item.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator

perf = time.perf_counter

REFERENCE_SPIN_S = 105e-6
PROBE_INTERVAL_S = 0.01
PROBES_AROUND_CALL = 3


def spin() -> int:
    """The reference loop: interpreter dispatch and small-integer arithmetic only."""
    x = 0
    for i in range(1500):
        x = (x * 31 + i) & 0xFF
    return x


class Timer:
    """Records (start, end) wall times of items by stage, with speed probes in between."""

    def __init__(self):
        self.items: dict[str, list[tuple[float, float]]] = {}
        self.probes: list[tuple[float, float]] = []   # (start, seconds), in time order
        self.cursor = perf()                          # where the next streamed item starts
        self._next_probe = 0.0

    def probe(self) -> float:
        """Time the reference loop once; returns the clock after it."""
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        spin()
        t1 = perf()
        if was_enabled:
            gc.enable()
        self.probes.append((t0, t1 - t0))
        self._next_probe = t1 + PROBE_INTERVAL_S
        return perf()

    def add(self, stage: str, start: float, end: float) -> float:
        """Record one item, then probe if one is due; returns where the next item starts."""
        self.items.setdefault(stage, []).append((start, end))
        self.cursor = self.probe() if end >= self._next_probe else end
        return self.cursor

    def each(self, stage: str, iterable: Iterable) -> Iterator:
        """Yield items, timing what the consumer does with each one."""
        self.cursor = perf()
        for item in iterable:
            yield item
            self.add(stage, self.cursor, perf())

    def call(self, stage: str, fn: Callable, *args, **kwargs):
        """Time one call as one item, with probes right before and after it."""
        for _ in range(PROBES_AROUND_CALL):
            self.probe()
        start = perf()
        out = fn(*args, **kwargs)
        self.items.setdefault(stage, []).append((start, perf()))
        for _ in range(PROBES_AROUND_CALL):
            self.probe()
        return out

    def seconds_between(self, start: float, end: float) -> float:
        """``end - start`` without the probes taken inside it, at the reference speed."""
        window = PROBES_AROUND_CALL * PROBE_INTERVAL_S
        inside = sum(d for t, d in self.probes if start <= t < end)
        local = statistics.median(d for t, d in self.probes if start - window <= t <= end + window)
        return (end - start - inside) * REFERENCE_SPIN_S / local

    def rescaled(self) -> dict[str, list[float]]:
        """Every item's duration at the reference speed, by stage, in recording order."""
        starts = [t for t, _ in self.probes]
        window = PROBES_AROUND_CALL * PROBE_INTERVAL_S
        out = {}
        for stage, items in self.items.items():
            scaled = []
            for start, end in items:
                lo = bisect_left(starts, start - window)
                hi = bisect_right(starts, end + window)
                if hi - lo < PROBES_AROUND_CALL:
                    mid = bisect_left(starts, (start + end) / 2)
                    lo, hi = max(0, mid - PROBES_AROUND_CALL), mid + PROBES_AROUND_CALL
                local = statistics.median(d for _, d in self.probes[lo:hi])
                scaled.append((end - start) * REFERENCE_SPIN_S / local)
            out[stage] = scaled
        return out


class NullTimer:
    """The Timer's interface, timing nothing: traced passes run the workload with it,
    so that no probe or bookkeeping of the benchmark lands inside a traced span."""

    cursor = 0.0

    def add(self, stage: str, start: float, end: float) -> float:
        return end

    def each(self, stage: str, iterable: Iterable) -> Iterable:
        return iterable

    def call(self, stage: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)
