"""Binary-heap event kernel: the test-side oracle for the calendar queue.

:class:`HeapEnvironment` replaces the calendar queue behind
:class:`~repro.sim.core.Environment` with the original binary heap of
``(time, priority, seq, event)`` tuples. Dispatch order is the same by
construction (the heap orders by the very key the calendar sorts on),
so the differential tests drive both kernels through identical
workloads and require identical observable behaviour. Cancellation
marks the event and compacts only when cancelled entries outnumber live
ones 2:1, so a mass cancellation of n events triggers at most O(log n)
heapify passes.

:func:`heap_kernel` swaps the class into :mod:`repro.scenarios.esg`, so
a whole :class:`~repro.scenarios.esg.EsgTestbed` built inside the block
runs on the heap.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Optional
from unittest import mock

from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority


class HeapEnvironment(Environment):
    """:class:`Environment` with a binary heap as its event queue."""

    def __init__(self, initial_time: float = 0.0, seed: int = 0):
        super().__init__(initial_time, seed)
        self._queue: list = []  # (time, priority, seq, event)

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = EventPriority.NORMAL,
                 at: Optional[float] = None) -> None:
        self._seq += 1
        self._n_scheduled += 1
        self._n_live += 1
        t = self._now + delay if at is None else at
        event._t = t
        event._prio = int(priority)
        event._seq = self._seq
        heapq.heappush(self._queue, (t, event._prio, self._seq, event))

    def _compact(self) -> None:
        self._queue = [entry for entry in self._queue
                       if not entry[3]._cancelled]
        heapq.heapify(self._queue)

    def _settle_head(self) -> Optional[Event]:
        q = self._queue
        while q and q[0][3]._cancelled:
            heapq.heappop(q)
            self._n_cancelled -= 1
        return q[0][3] if q else None

    def _consume_head(self) -> None:
        heapq.heappop(self._queue)

    def queue_depth(self) -> int:
        return len(self._queue)


@contextmanager
def heap_kernel():
    """Run every ``EsgTestbed`` built inside the block on the heap."""
    with mock.patch("repro.scenarios.esg.Environment", HeapEnvironment):
        yield
