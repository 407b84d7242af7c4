"""Keyword emit path: the test-side oracle for children and one-step records.

:class:`ReferenceObservability` is an :class:`~repro.obs.Observability`
whose every emit takes the original route. An event packs its keyword
fields, hands them on to :class:`ReferenceNetLogger`, which packs them
again into a fresh ``str`` dict and counts evictions itself. A metric
emit through ``children[family, *values]`` goes back to keyword labels
and through the registry on every sample: name lookup, sorted
``_label_key``, the label budget, then the sample write with a linear
bucket scan. Nothing is cached. The budget check and the writes below
are the metric methods as they were before children, kept verbatim.

:func:`reference_emit` makes every ``EsgTestbed`` built inside the block
use these classes, so the differential test
(``tests/obs/test_emit_differential.py``) can require both paths to
leave identical records, registries and spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional
from unittest import mock

from repro.netlogger.log import LogRecord, NetLogger
from repro.obs import Observability
from repro.obs.metrics import OVERFLOW_KEY, _label_key


class ReferenceNetLogger(NetLogger):
    """:class:`NetLogger` that builds each record from a new dict and
    keeps :attr:`dropped` as its own counter."""

    dropped = 0

    def event(self, name: str, host: Optional[str] = None,
              prog: Optional[str] = None, **fields) -> LogRecord:
        record = LogRecord(self.env.now, host or self.default_host,
                           prog or self.default_prog, name,
                           {k: str(v) for k, v in fields.items()})
        if (self.capacity is not None
                and len(self.records) == self.capacity):
            self.dropped += 1
        self.records.append(record)
        self.emitted += 1
        return record


def _admit(metric, key):
    if (metric.max_labelsets is None or key in metric._samples
            or key == OVERFLOW_KEY):
        return key
    if len(metric._samples) < metric.max_labelsets:
        return key
    metric.overflowed += 1
    if metric._on_overflow is not None:
        metric._on_overflow(metric)
    return OVERFLOW_KEY


def _inc(metric, amount: float = 1.0, **labels) -> None:
    if amount < 0:
        raise ValueError("counters only go up")
    key = _admit(metric, _label_key(labels))
    metric._samples[key] = metric._samples.get(key, 0.0) + amount
    metric._updated[key] = metric.env.now


def _set(metric, value: float, **labels) -> None:
    key = _admit(metric, _label_key(labels))
    metric._samples[key] = float(value)
    metric._updated[key] = metric.env.now


def _observe(metric, value: float, **labels) -> None:
    key = _admit(metric, _label_key(labels))
    row = metric._buckets.get(key)
    if row is None:
        row = [0] * (len(metric.bounds) + 1)
        metric._buckets[key] = row
        metric._counts[key] = 0
        metric._samples[key] = 0.0
    for i, bound in enumerate(metric.bounds):
        if value <= bound:
            row[i] += 1
            break
    else:
        row[-1] += 1
    metric._samples[key] += value
    metric._counts[key] += 1
    metric._updated[key] = metric.env.now


class _KeywordChild:
    """A child that re-enters the registry by name and keyword labels
    on every sample."""

    def __init__(self, metrics, family, values):
        self.metrics = metrics
        self.family = family
        self.labels = dict(zip(family.labels, values))

    def _metric(self):
        kind = self.family.cls.kind
        return getattr(self.metrics, kind)(self.family.name)

    def inc(self, amount: float = 1.0) -> None:
        _inc(self._metric(), amount, **self.labels)

    def set(self, value: float) -> None:
        _set(self._metric(), value, **self.labels)

    def observe(self, value: float) -> None:
        _observe(self._metric(), value, **self.labels)


class _KeywordChildren:
    def __init__(self, metrics):
        self.metrics = metrics

    def __getitem__(self, key) -> _KeywordChild:
        if key.__class__ is tuple:
            return _KeywordChild(self.metrics, key[0], key[1:])
        return _KeywordChild(self.metrics, key, ())


class ReferenceObservability(Observability):
    """Bundle whose ``event`` and ``children`` take the keyword path."""

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name == "logger":
            object.__setattr__(self, "event", self._keyword_event)
        elif name == "metrics" and value is not None:
            object.__setattr__(self, "children", _KeywordChildren(value))

    def _keyword_event(self, name: str, host: Optional[str] = None,
                       prog: Optional[str] = None, **fields) -> None:
        if self.logger is not None:
            self.logger.event(name, host=host, prog=prog, **fields)


@contextmanager
def reference_emit():
    """Build every ``EsgTestbed`` inside the block on the keyword path."""
    with mock.patch("repro.scenarios.esg.Observability",
                    ReferenceObservability), \
            mock.patch("repro.scenarios.esg.NetLogger", ReferenceNetLogger):
        yield
