"""Windowed time-series recording of gauges over simulated time.

The metrics registry holds *current* values; bottleneck attribution
needs to know what a resource looked like **while** a ticket was in
flight. :class:`TimeSeriesRecorder` closes that gap: a single sampler
process wakes at aligned window boundaries (multiples of ``interval``)
and evaluates registered probes — plain callables reading live objects
(link utilization from the fluid network, tape-drive busy state,
DiskCache occupancy, scheduler queue depths, server connection slots).

Because every probe is read in the same tick, samples are aligned
across series by construction: ``sample k`` of every series was taken
at the same simulated instant, so cross-series joins ("was the tape
library saturated while this file sat in its stage stage?") are exact
index lookups, not interpolation.

Probes come in two shapes:

- :meth:`add_probe` — one named series from one ``fn() -> float``;
- :meth:`add_multi_probe` — one ``fn() -> {name: value}`` feeding many
  series from a single evaluation (e.g. one ``network.link_load()`` call
  fans into every per-link utilization series instead of N probes).

Series with holes (a multi-probe stopped reporting a key) stay aligned:
missing ticks read as ``None`` and the aggregation helpers either skip
or zero-fill them, explicitly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.core import Environment

#: Utilization at/above which a window counts as busy (the bottleneck
#: attribution's "saturated resource" test).
BUSY_THRESHOLD = 0.9


class TimeSeriesRecorder:
    """Aligned-window sampler over live probe callables.

    Parameters
    ----------
    env:
        Simulation environment.
    interval:
        Window width in simulated seconds; samples are taken at
        multiples of it (the first at the next boundary at/after
        :meth:`start`).
    """

    def __init__(self, env: Environment, interval: float = 5.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.interval = float(interval)
        self._single: List[Tuple[str, Callable[[], float]]] = []
        self._multi: List[Callable[[], Dict[str, float]]] = []
        # per series: tick index -> value (dict keeps holes explicit)
        self._series: Dict[str, Dict[int, float]] = {}
        self._ticks: List[float] = []   # sample times, in order
        self.started = False
        self.samples_taken = 0

    # -- wiring -----------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register one named series fed by ``fn()`` each tick."""
        self._single.append((name, fn))

    def add_multi_probe(self, fn: Callable[[], Dict[str, float]]) -> None:
        """Register a probe feeding many series from one evaluation."""
        self._multi.append(fn)

    def start(self) -> None:
        """Launch the sampler process (idempotent)."""
        if self.started:
            return
        self.started = True
        self.env.process(self._run())

    # -- sampling ---------------------------------------------------------
    def _next_boundary(self) -> float:
        now = self.env.now
        k = int(now / self.interval)
        boundary = k * self.interval
        if boundary < now - 1e-12:
            boundary = (k + 1) * self.interval
        return boundary

    def _run(self):
        boundary = self._next_boundary()
        if boundary > self.env.now:
            yield self.env.timeout(boundary - self.env.now)
        while True:
            self.sample_now()
            yield self.env.timeout(self.interval)

    def sample_now(self) -> None:
        """Evaluate every probe once at the current instant."""
        tick = len(self._ticks)
        self._ticks.append(self.env.now)
        for name, fn in self._single:
            self._record(name, tick, fn())
        for fn in self._multi:
            for name, value in fn().items():
                self._record(name, tick, value)
        self.samples_taken += 1

    def _record(self, name: str, tick: int, value: float) -> None:
        self._series.setdefault(name, {})[tick] = float(value)

    # -- access -----------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._series)

    def series(self, name: str) -> List[Tuple[float, Optional[float]]]:
        """(time, value) per tick; ``None`` where the probe had a hole."""
        data = self._series.get(name, {})
        return [(t, data.get(i)) for i, t in enumerate(self._ticks)]

    def _window(self, name: str, t0: float, t1: float,
                fill: Optional[float]) -> List[float]:
        out = []
        for tick_t, value in self.series(name):
            if t0 - 1e-12 <= tick_t <= t1 + 1e-12:
                if value is None:
                    if fill is not None:
                        out.append(fill)
                else:
                    out.append(value)
        return out

    def mean(self, name: str, t0: float, t1: float,
             fill: Optional[float] = 0.0) -> Optional[float]:
        """Mean over samples in [t0, t1]; holes count as ``fill``
        (pass ``fill=None`` to skip holes instead)."""
        vals = self._window(name, t0, t1, fill)
        return sum(vals) / len(vals) if vals else None

    def peak(self, name: str, t0: float, t1: float) -> Optional[float]:
        """Max over samples in [t0, t1] (holes skipped)."""
        vals = self._window(name, t0, t1, None)
        return max(vals) if vals else None

    def busy_fraction(self, name: str, t0: float,
                      t1: float) -> Optional[float]:
        """Fraction of windows in [t0, t1] at/above
        :data:`BUSY_THRESHOLD` (holes count as idle — an unreported
        resource was not busy)."""
        vals = self._window(name, t0, t1, 0.0)
        if not vals:
            return None
        return sum(1 for v in vals if v >= BUSY_THRESHOLD) / len(vals)

    def __repr__(self) -> str:
        return (f"TimeSeriesRecorder({len(self._series)} series, "
                f"{len(self._ticks)} ticks @ {self.interval:g}s)")
