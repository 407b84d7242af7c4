"""``repro.obs`` — the simulation-time observability layer.

Three legs, bundled by :class:`Observability` so a component needs one
optional reference to get all of them:

- :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms with label sets and sim-clock timestamps (Prometheus-style
  text + JSON export);
- a :class:`~repro.netlogger.log.NetLogger` — the one ULM event stream
  every component emits into; the lifeline analysis in
  :mod:`repro.netlogger.analysis` consumes it;
- :class:`~repro.obs.trace.Tracer` — a read-only view rebuilding causal
  span trees (ticket → file → attempt, plus fault windows) from that
  log, so it records nothing of its own.

Every instrumented component holds a bundle: one built without ``obs``
defaults to ``Observability()``, the unwired bundle whose legs are all
``None``. The emit helpers below are the only place that checks a leg,
so an unwired component emits through the same calls as a wired one
and each call is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netlogger.log import NetLogger
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import Span, Tracer
from repro.sim.core import Environment


@dataclass
class Observability:
    """The bundle instrumented components carry.

    ``Observability()`` is the unwired bundle (every leg ``None``);
    :meth:`create` wires the logger, metrics and tracer. The analysis
    tier (``repro.obs.timeseries`` / ``critical_path`` / ``slo``) reads
    this bundle; ``timeseries`` is attached by scenario helpers (e.g.
    ``EsgTestbed.start_timeseries``) when windowed recording is on.
    """

    logger: Optional[NetLogger] = None
    metrics: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    timeseries: Optional[TimeSeriesRecorder] = None

    @classmethod
    def create(cls, env: Environment, host: str = "localhost",
               prog: str = "repro", logger: Optional[NetLogger] = None,
               capacity: Optional[int] = None) -> "Observability":
        """A fully-wired bundle; pass ``logger`` to share an existing
        event log (``capacity`` bounds a newly-created one)."""
        if logger is None:
            logger = NetLogger(env, host=host, prog=prog,
                               capacity=capacity)
        return cls(logger=logger,
                   metrics=MetricsRegistry(env, logger=logger),
                   tracer=Tracer(logger))

    # -- emit helpers (the only leg checks on the emit path) -----------
    def event(self, name: str, host: Optional[str] = None,
              prog: Optional[str] = None, **fields) -> None:
        """Append a ULM event (no-op without a logger)."""
        if self.logger is not None:
            self.logger.event(name, host=host, prog=prog, **fields)

    def count(self, name: str, amount: float = 1.0, **labels) -> None:
        """Increment a counter (no-op without metrics)."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge (no-op without metrics)."""
        if self.metrics is not None:
            self.metrics.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record a histogram observation (no-op without metrics)."""
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value, **labels)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TimeSeriesRecorder",
    "Tracer",
]
