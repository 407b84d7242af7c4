"""Host-speed correction for wall times measured on a shared core.

A core of a shared host does not run at one speed. While other work
runs on the same physical core (its sibling hyperthread), the same code
takes up to 1.7 times as long, and that state comes and goes over
seconds to minutes. It can cover a whole run, so no statistic over the
repeats of one run removes it.

:class:`SpeedMeter` samples the core's speed while a child runs. Every
:data:`PERIOD_S` of wall time a ``SIGALRM`` handler times a fixed,
small Python kernel. A phase's corrected time is the sum, over the
intervals between samples, of each interval's wall time scaled by
``REF_KERNEL_S / k``, where ``k`` is the rolling median kernel time
around that interval: the phase's time in seconds at the speed where
the kernel takes :data:`REF_KERNEL_S`. The kernel's own time is left
out of every time, through :meth:`SpeedMeter.clock`.

The kernel has to slow down as much as the workloads do. Interpreter
work on a few cache lines alone slows down about twice as much as they
do, since they also wait on memory; a walk through a buffer larger than
the L2 cache slows down less. So the kernel does both, for about equal
time. Over the repeats of the four workloads, the log of a phase's
wall time then followed the log of its kernel time with slopes of 0.82
to 1.03 for the timed run, and 0.59 to 0.81 for set-up except on
``catalog_fanout`` (1.12 to 1.31); a slope of 1 would remove the
core's state completely. README.md has the measurements.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

PERIOD_S = 0.02          # one speed sample every 20 ms of wall time
WINDOW = 5               # samples in the rolling median of kernel time
WALK_BYTES = 4 << 20     # a power of two
# A fixed scale: about the kernel's time on an undisturbed core of an
# Intel Xeon (family 6, model 207) under KVM with Python 3.11.
REF_KERNEL_S = 1.6e-4


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


# Larger than a core's L2 cache, so the walk below waits on memory.
_WALK = bytes(range(256)) * (WALK_BYTES // 256)


def kernel(offset: int) -> int:
    """Fixed work in two halves of about equal time: interpreter work
    on a few cache lines (dict updates, method calls, heap operations),
    then 500 reads of :data:`_WALK` from ``offset`` on. Returns the
    offset to go on from, so that successive calls cover the whole
    buffer and each read finds its line far from the core."""
    counts = dict.fromkeys(range(32), 0)
    heap = []
    line = _Affine(3, 1)
    for i in range(200):
        counts[i & 31] += line.at(i)
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 16:
            heapq.heappop(heap)
    # A full-period LCG over the offsets: it visits every byte once. Each
    # byte read feeds the next offset (times 0), so every read waits for
    # the one before it.
    mask = WALK_BYTES - 1
    for _ in range(500):
        offset = (offset * 1103515245 + 12345 + _WALK[offset] * 0) & mask
    return offset


class SpeedMeter:
    """Samples the core's speed during one child; see the module
    docstring. Not re-entrant: one meter per process."""

    def __init__(self):
        self.spent = 0.0         # wall seconds spent in the kernel
        self.samples = []        # (clock() at the sample, kernel seconds)
        self._offset = 0         # where the kernel's walk goes on
        self._busy = False

    def clock(self) -> float:
        """Wall time without the time spent sampling."""
        return time.perf_counter() - self.spent

    def _sample(self, *_signal) -> None:
        if self._busy:           # the timer fired inside mark()
            return
        self._busy = True
        start = time.perf_counter()
        self._offset = kernel(self._offset)
        took = time.perf_counter() - start
        self.samples.append((start - self.spent, took))
        self.spent += took
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> float:
        """Takes a sample now and returns its clock() time; a phase
        runs from one mark to another."""
        self._sample()
        return self.samples[-1][0]

    def corrected(self, begin: float, end: float) -> float:
        """Corrected seconds between two marks."""
        times = [t for t, _ in self.samples]
        kernels = [k for _, k in self.samples]
        half = WINDOW // 2
        total = 0.0
        prev = begin
        for i, t in enumerate(times):
            if t <= begin or t > end:
                continue
            k = statistics.median(kernels[max(0, i - half):i + half + 1])
            total += (t - prev) * REF_KERNEL_S / k
            prev = t
        return total
