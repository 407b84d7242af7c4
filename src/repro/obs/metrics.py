"""Simulation-time metrics: counters, gauges, histograms with labels.

The paper's SC'2000 runs were reported through hand-assembled NetLogger
plots; the ESG follow-on systems (Bernholdt et al.) ran production
telemetry. This module is the simulation-scale equivalent: every sample
is stamped with the *simulated* clock, label sets distinguish hosts /
files / failure classes, and the whole registry exports as
Prometheus-style text or JSON so a run's numbers can be diffed across
seeds and configurations.

Metrics are deliberately allocation-light: a metric is a dict from a
sorted label tuple to a float (or bucket array), and the registry
get-or-creates by name so instrumented components never hold more than
an :class:`~repro.obs.Observability` reference.

The hot emit path skips all of that per sample. A call site declares a
:class:`Family` once (kind, name, label names); the bundle's
:class:`Children` map binds a family plus its label values to a
*child* on first use, Prometheus ``labels()``-style, and caches it.
A child holds its metric and its admitted :data:`LabelKey` and writes
the sample straight into the metric's dicts. The keyword methods
(``Counter.inc(amount, **labels)`` and the like) bind a one-off child
and write through it, so each kind has one write body.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.sim.core import Environment

#: Histogram bucket bounds: span sim-seconds from RTT scale to the
#: Figure 8 multi-hour scale (values beyond the last bound land in +Inf).
DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0,
                   300.0, 1800.0)
#: Distinct label sets each registry metric may hold before further new
#: label sets fold into one shared overflow series.
MAX_LABELSETS = 1024

LabelKey = Tuple[Tuple[str, str], ...]

#: Where samples land once a metric's label-set budget is exhausted:
#: one shared fold-over series, so totals stay exact while memory stays
#: bounded (campaign-scale per-file labels cannot blow up the registry).
OVERFLOW_KEY: LabelKey = (("overflow", "true"),)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def quantile_from_counts(bounds: Tuple[float, ...], row: List[int],
                         q: float) -> Optional[float]:
    """Interpolated quantile from one cumulative-histogram count row.

    ``row`` is per-bucket counts (+ trailing overflow), as stored by
    :class:`Histogram` — or a *delta* of two such rows, which is how the
    SLO engine evaluates sliding windows. Linear interpolation within
    the bucket holding the q-th observation; the overflow bucket has no
    upper bound, so quantiles landing there return ``inf``. ``None``
    when the row is empty.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must be in [0, 1]")
    n = sum(row)
    if n == 0:
        return None
    target = q * n
    running = 0
    lo = 0.0
    for i, bound in enumerate(bounds):
        cnt = row[i]
        if cnt and running + cnt >= target:
            frac = (target - running) / cnt
            return lo + frac * (bound - lo)
        running += cnt
        lo = bound
    return float("inf")


def count_over_threshold(bounds: Tuple[float, ...], row: List[int],
                         threshold: float) -> float:
    """Interpolated count of observations above ``threshold``.

    Same row convention as :func:`quantile_from_counts`; observations
    in the bucket straddling the threshold are apportioned linearly.
    The SLO engine's error-budget arithmetic (fraction of requests over
    the objective) is built on this.
    """
    total = float(sum(row))
    below = 0.0
    lo = 0.0
    for i, bound in enumerate(bounds):
        if bound <= threshold:
            below += row[i]
        else:
            if threshold > lo:
                below += row[i] * (threshold - lo) / (bound - lo)
            return total - below
        lo = bound
    # threshold at/beyond the last finite bound: only overflow is above.
    return float(row[-1])


def _sanitize(name: str) -> str:
    """A logical metric name → a Prometheus-legal one."""
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Metric:
    """Base: one named family of labelled samples."""

    kind = "untyped"

    def __init__(self, env: Environment, name: str, help: str = ""):
        self.env = env
        self.name = name
        self.help = help
        self._samples: Dict[LabelKey, float] = {}
        self._updated: Dict[LabelKey, float] = {}
        # Cardinality guard (wired by the registry): at most this many
        # distinct label sets; extra ones fold into OVERFLOW_KEY.
        self.max_labelsets: Optional[int] = None
        self.overflowed = 0          # samples folded into OVERFLOW_KEY
        self._on_overflow = None     # registry callback (warning + counter)

    def _fits(self, key: LabelKey) -> bool:
        """Whether ``key`` keeps its own series under the label budget."""
        return (self.max_labelsets is None or key in self._samples
                or key == OVERFLOW_KEY
                or len(self._samples) < self.max_labelsets)

    def _spill(self) -> None:
        """Account one sample folded into the overflow series."""
        self.overflowed += 1
        if self._on_overflow is not None:
            self._on_overflow(self)

    def bind(self, key: LabelKey):
        """A child for one label set: its own series while ``key`` fits
        the label budget, else a spill child that folds every sample
        into :data:`OVERFLOW_KEY` and counts it as overflowed."""
        if self._fits(key):
            return self.child(self, key)
        return _Spill(self.child(self, OVERFLOW_KEY))

    def value(self, **labels) -> float:
        """The current value for one label set (0.0 if never touched)."""
        return self._samples.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._samples.values())

    # -- export -----------------------------------------------------------
    def render(self) -> List[str]:
        name = _sanitize(self.name)
        lines = []
        if self.help:
            lines.append(f"# HELP {name} {self.help}")
        lines.append(f"# TYPE {name} {self.kind}")
        for key in sorted(self._samples):
            lines.append(f"{name}{_render_labels(key)} "
                         f"{self._samples[key]:g}")
        return lines

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [{"labels": dict(key), "value": self._samples[key],
                         "t": self._updated.get(key)}
                        for key in sorted(self._samples)],
        }


class _Child:
    """One metric's series for one admitted label set."""

    __slots__ = ("metric", "key", "samples", "updated", "env")

    def __init__(self, metric: Metric, key: LabelKey):
        self.metric = metric
        self.key = key
        self.samples = metric._samples
        self.updated = metric._updated
        self.env = metric.env


class CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self.key
        samples = self.samples
        samples[key] = samples.get(key, 0.0) + amount
        self.updated[key] = self.env.now


class GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        key = self.key
        self.samples[key] = float(value)
        self.updated[key] = self.env.now

    def add(self, amount: float) -> None:
        key = self.key
        samples = self.samples
        samples[key] = samples.get(key, 0.0) + amount
        self.updated[key] = self.env.now


class HistogramChild(_Child):
    __slots__ = ("bounds", "counts", "row")

    def __init__(self, metric: "Histogram", key: LabelKey):
        super().__init__(metric, key)
        self.bounds = metric.bounds
        self.counts = metric._counts
        self.row = metric._buckets.get(key)

    def observe(self, value: float) -> None:
        key = self.key
        row = self.row
        if row is None:
            row = self.row = self.metric._new_row(key)
        # bisect_left finds the first bound >= value (a value equal to
        # a bound counts in that bound's bucket); NaN lands in overflow.
        row[bisect_left(self.bounds, value) if value == value else -1] += 1
        self.samples[key] += value
        self.counts[key] += 1
        self.updated[key] = self.env.now


class _Spill:
    """A child bound past the label budget: each sample is counted as
    overflowed (``Metric.overflowed``, ``obs.labelsets_dropped_total``
    and the one-time warning) before it lands in the overflow series."""

    __slots__ = ("child",)

    def __init__(self, child: _Child):
        self.child = child

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.child.metric._spill()
        self.child.inc(amount)

    def set(self, value: float) -> None:
        self.child.metric._spill()
        self.child.set(value)

    def add(self, amount: float) -> None:
        self.child.metric._spill()
        self.child.add(amount)

    def observe(self, value: float) -> None:
        self.child.metric._spill()
        self.child.observe(value)


class Counter(Metric):
    """Monotonically increasing count (events, bytes, failures)."""

    kind = "counter"
    child = CounterChild

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.bind(_label_key(labels)).inc(amount)


class Gauge(Metric):
    """A value that can go up and down (queue depth, bytes in flight)."""

    kind = "gauge"
    child = GaugeChild

    def set(self, value: float, **labels) -> None:
        self.bind(_label_key(labels)).set(value)

    def add(self, amount: float, **labels) -> None:
        self.bind(_label_key(labels)).add(amount)


class Histogram(Metric):
    """Cumulative-bucket histogram (latency, transfer-time breakdowns)."""

    kind = "histogram"
    child = HistogramChild

    def __init__(self, env: Environment, name: str, help: str = ""):
        super().__init__(env, name, help)
        self.bounds = DEFAULT_BUCKETS
        # per labelset: [counts per bound] + overflow; plus sum/count
        self._buckets: Dict[LabelKey, List[int]] = {}
        self._counts: Dict[LabelKey, int] = {}

    def _new_row(self, key: LabelKey) -> List[int]:
        """The bucket row for ``key``, created empty on first use."""
        row = self._buckets.get(key)
        if row is None:
            row = [0] * (len(self.bounds) + 1)
            self._buckets[key] = row
            self._counts[key] = 0
            self._samples[key] = 0.0
        return row

    def observe(self, value: float, **labels) -> None:
        self.bind(_label_key(labels)).observe(value)

    def count(self, **labels) -> int:
        """Number of observations for one label set."""
        return self._counts.get(_label_key(labels), 0)

    def sum(self, **labels) -> float:
        """Sum of observations for one label set."""
        return self._samples.get(_label_key(labels), 0.0)

    def bucket_row(self, **labels) -> Optional[List[int]]:
        """A copy of one label set's per-bucket counts (+ overflow);
        ``None`` if the label set was never observed. Snapshots of this
        row diffed over time give *windowed* distributions — the SLO
        engine's sliding-window quantiles."""
        row = self._buckets.get(_label_key(labels))
        return list(row) if row is not None else None

    def render(self) -> List[str]:
        name = _sanitize(self.name)
        lines = []
        if self.help:
            lines.append(f"# HELP {name} {self.help}")
        lines.append(f"# TYPE {name} histogram")
        for key in sorted(self._buckets):
            row = self._buckets[key]
            running = 0
            for i, bound in enumerate(self.bounds):
                running += row[i]
                le = 'le="%g"' % bound
                lines.append(f"{name}_bucket{_render_labels(key, le)} "
                             f"{running}")
            running += row[-1]
            le_inf = 'le="+Inf"'
            lines.append(f"{name}_bucket{_render_labels(key, le_inf)} "
                         f"{running}")
            lines.append(f"{name}_sum{_render_labels(key)} "
                         f"{self._samples[key]:g}")
            lines.append(f"{name}_count{_render_labels(key)} "
                         f"{self._counts[key]}")
        return lines

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.bounds),
            "samples": [{"labels": dict(key),
                         "counts": list(self._buckets[key]),
                         "sum": self._samples[key],
                         "count": self._counts[key],
                         "t": self._updated.get(key)}
                        for key in sorted(self._buckets)],
        }


class MetricsRegistry:
    """Get-or-create home for every metric of a simulation run.

    Each metric it creates holds at most :data:`MAX_LABELSETS` distinct
    label sets; further new label sets fold into one shared overflow
    series. Folded samples are counted in
    ``obs.labelsets_dropped_total{metric=...}`` and announced once per
    metric as an ``obs.cardinality.overflow`` ULM warning to ``logger``
    (an optional :class:`~repro.netlogger.log.NetLogger`, wired by
    ``Observability.create``).
    """

    def __init__(self, env: Environment, logger=None):
        self.env = env
        self.logger = logger
        self._metrics: Dict[str, Metric] = {}
        self._overflow_warned: set = set()

    def _get(self, cls, name: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(self.env, name, help)
            metric.max_labelsets = MAX_LABELSETS
            metric._on_overflow = self._overflow
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}")
        return metric

    def _overflow(self, metric: Metric) -> None:
        """One metric just folded a sample into its overflow series."""
        if metric.name != "obs.labelsets_dropped_total":
            self.counter("obs.labelsets_dropped_total",
                         help="samples folded by the cardinality guard"
                         ).inc(metric=metric.name)
        if metric.name not in self._overflow_warned:
            self._overflow_warned.add(metric.name)
            if self.logger is not None:
                self.logger.event("obs.cardinality.overflow", prog="obs",
                                  metric=metric.name,
                                  limit=str(metric.max_labelsets))

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def get(self, name: str) -> Optional[Metric]:
        """Look a metric up without creating it."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- export -----------------------------------------------------------
    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The whole registry as one JSON-serializable dict."""
        return {"t": self.env.now,
                "metrics": {name: m.to_json()
                            for name, m in sorted(self._metrics.items())}}

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


class Family:
    """A metric family as one call site emits it: the metric class, its
    name, and its label names in the order the site passes values.

    Declared once per module; ``obs.children[family, *values]`` is the
    child for those label values (``obs.children[family]`` when the
    family has no labels). Label values should be strings, or values
    whose ``str`` is determined by their equality: the child cache is
    keyed by the values as passed.
    """

    __slots__ = ("cls", "name", "labels")

    def __init__(self, cls, name: str, *labels: str):
        self.cls = cls
        self.name = name
        self.labels = labels

    def __repr__(self) -> str:
        return f"Family({self.cls.kind}, {self.name!r}, {self.labels})"


class Children(dict):
    """The bound children of one registry, keyed by a :class:`Family`
    or ``(family, *label values)``.

    A miss binds the child on first use, creating the metric then as
    the keyword path does (a kind clash raises ``TypeError``) and
    applying the label budget at that moment. A child that keeps its own
    series is cached; a spill child is not, so per-file label values
    past the budget cannot grow the cache.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry):
        super().__init__()
        self.registry = registry

    def __missing__(self, key):
        if key.__class__ is tuple:
            family, values = key[0], key[1:]
        else:
            family, values = key, ()
        if len(values) != len(family.labels):
            raise ValueError(f"{family!r} takes {len(family.labels)} "
                             f"label values, got {len(values)}")
        metric = self.registry._get(family.cls, family.name, "")
        child = metric.bind(_label_key(dict(zip(family.labels, values))))
        if child.__class__ is not _Spill:
            self[key] = child
        return child


class _NoopChild:
    """The child of every family on an unwired bundle."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NOOP_CHILD = _NoopChild()


class NoChildren:
    """The unwired bundle's children map: every key gives
    :data:`NOOP_CHILD`, and nothing is stored."""

    __slots__ = ()

    def __getitem__(self, key) -> _NoopChild:
        return NOOP_CHILD
