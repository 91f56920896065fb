"""A speed gauge for wall-clock metrics on a shared host.

The benchmark was built on two vCPUs of a shared host whose other
tenants change its speed by a third and more, for seconds to minutes at
a time. :func:`calibrate` times a fixed piece of pure-Python work that
imports nothing from the repository, so no change to the program moves
it; dividing the loop's reference time by its time now gives the factor
that turns wall seconds measured now into reference seconds.
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush
from typing import Dict, List

#: Wall seconds per round of :func:`calibrate` on the machine the bounds
#: were set on (2 vCPUs of a shared Intel Xeon host, CPython 3.11).
ROUND_REFERENCE_S = 0.16 / 120_000
#: Rounds of one slice of a gauged run, about 13 ms.
SLICE_ROUNDS = 10_000
#: Wall seconds of driving between two slices of a gauged run.
SLICE_EVERY_S = 0.2


class _Event:
    __slots__ = ("due", "key")

    def __init__(self, due: int, key: int) -> None:
        self.due = due
        self.key = key

    def fire(self, state: Dict[int, int]) -> None:
        state[self.key] = state.get(self.key, 0) + self.due


def calibrate(rounds: int) -> float:
    """Wall seconds of ``rounds`` rounds of work shaped like the
    simulator's inner loop: a bounded heap of tuples, an object, a
    method call and a dict update per round. The collector is off while
    it runs (the work makes no cycles), so the size of the calling
    process's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: list = []
        state: Dict[int, int] = {}
        for i in range(rounds):
            heappush(heap, ((i * 7919) % 10007, i, _Event(i, i & 1023)))
            if len(heap) > 256:
                heappop(heap)[2].fire(state)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scale(rounds: int, seconds: float) -> float:
    """Reference seconds per wall second, given that ``rounds`` rounds
    of :func:`calibrate` took ``seconds`` in all."""
    return ROUND_REFERENCE_S * rounds / seconds


class SliceGauge:
    """Samples the host's speed while a run drives: :meth:`tick`, called
    between simulation steps, runs one slice of :func:`calibrate` once
    ``SLICE_EVERY_S`` of driving has passed since the last one. Slices
    sample the whole run evenly in time, so their mean speed is the
    run's mean speed; two loops around a 10 s run were not (the spread
    of ten seeds' median run time fell only from 0.17 to 0.16 with
    them, against 0.15 to 0.06 for 2 s runs)."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        self.last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= SLICE_EVERY_S:
            self.slices.append(calibrate(SLICE_ROUNDS))
            self.last = time.perf_counter()

    @property
    def spent_s(self) -> float:
        return sum(self.slices)

    def scale(self) -> float:
        """Reference seconds per wall second over the run so far."""
        slices = self.slices or [calibrate(SLICE_ROUNDS)]
        return scale(SLICE_ROUNDS * len(slices), sum(slices))
