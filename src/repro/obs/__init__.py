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
``None``. Both kinds of bundle take the same calls:

- ``obs.event(name, host=..., prog=..., **fields)`` is bound to the
  logger's :meth:`~repro.netlogger.log.NetLogger.event` when a logger
  is wired, so an event costs one call: the keyword fields are packed
  once and the :class:`~repro.netlogger.log.LogRecord` tuple is built
  in that one place. Unwired, it is a function that returns at once.
- ``obs.children[family, *label values]`` is the metric child for one
  label set, bound on first use and cached on the bundle (see
  :class:`~repro.obs.metrics.Children`); a hot call site emits with
  one dict lookup and one bound-method call, e.g.
  ``obs.children[FILES, outcome].inc()``. Unwired, every child is the
  shared no-op child.
- ``count`` / ``gauge`` / ``observe`` take the metric name and keyword
  labels and go through the registry on every call; cold paths use
  them.

Setting a leg (``obs.logger = None``) rebinds ``event`` and
``children``, so clearing the legs of a shared bundle unwires every
component holding it.
"""

from __future__ import annotations

from typing import Optional

from repro.netlogger.log import NetLogger
from repro.obs.metrics import (
    Children,
    Counter,
    DEFAULT_BUCKETS,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoChildren,
)
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import Span, Tracer
from repro.sim.core import Environment


def _no_event(name: str, host: Optional[str] = None,
              prog: Optional[str] = None, **fields) -> None:
    """``event`` of a bundle without a logger."""


_NO_CHILDREN = NoChildren()


class Observability:
    """The bundle instrumented components carry.

    ``Observability()`` is the unwired bundle (every leg ``None``);
    :meth:`create` wires the logger, metrics and tracer. The analysis
    tier (``repro.obs.timeseries`` / ``critical_path`` / ``slo``) reads
    this bundle; ``timeseries`` is attached by scenario helpers (e.g.
    ``EsgTestbed.start_timeseries``) when windowed recording is on.
    ``event`` and ``children`` follow the ``logger`` and ``metrics``
    legs; see the module docstring.
    """

    __slots__ = ("logger", "metrics", "tracer", "timeseries",
                 "event", "children")

    def __init__(self, logger: Optional[NetLogger] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 timeseries: Optional[TimeSeriesRecorder] = None):
        self.logger = logger
        self.metrics = metrics
        self.tracer = tracer
        self.timeseries = timeseries

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "logger":
            object.__setattr__(self, "event", value.event
                               if value is not None else _no_event)
        elif name == "metrics":
            object.__setattr__(self, "children", Children(value)
                               if value is not None else _NO_CHILDREN)

    def __repr__(self) -> str:
        return (f"Observability(logger={self.logger!r}, "
                f"metrics={self.metrics!r}, tracer={self.tracer!r}, "
                f"timeseries={self.timeseries!r})")

    @classmethod
    def create(cls, env: Environment,
               logger: Optional[NetLogger] = None) -> "Observability":
        """A fully-wired bundle; pass ``logger`` to share an existing
        event log (else an unbounded one is created)."""
        if logger is None:
            logger = NetLogger(env)
        return cls(logger=logger,
                   metrics=MetricsRegistry(env, logger=logger),
                   tracer=Tracer(logger))

    # -- keyword helpers (cold paths; the registry is looked up per call)
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
    "Children",
    "Counter",
    "DEFAULT_BUCKETS",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TimeSeriesRecorder",
    "Tracer",
]
