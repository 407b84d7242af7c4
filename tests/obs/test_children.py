"""Bound metric children: label budget, kind clash, unwired no-ops."""

import math

import pytest

from repro.netlogger import NetLogger
from repro.obs import (Counter, Family, Gauge, Histogram, MetricsRegistry,
                       Observability)
from repro.obs.metrics import NOOP_CHILD, OVERFLOW_KEY
from repro.sim import Environment

from tests.obs.reference_emit import _observe as reference_observe

HITS = Family(Counter, "cache.hits_total", "host")
DEPTH = Family(Gauge, "queue.depth", "queue")
LATENCY = Family(Histogram, "fetch.seconds", "host")
TOTAL = Family(Counter, "cache.requests_total")


@pytest.fixture
def obs():
    env = Environment()
    logger = NetLogger(env)
    return Observability(logger=logger,
                         metrics=MetricsRegistry(env, max_labelsets=2,
                                                 logger=logger))


def _warnings(obs):
    return [r for r in obs.logger.records
            if r.event == "obs.cardinality.overflow"]


def test_child_writes_the_keyword_series(obs):
    obs.children[HITS, "a"].inc()
    obs.children[HITS, "a"].inc(2.0)
    obs.children[TOTAL].inc()
    metric = obs.metrics.counter("cache.hits_total")
    assert metric.value(host="a") == 3.0
    assert obs.metrics.counter("cache.requests_total").value() == 1.0
    assert obs.children[HITS, "a"] is obs.children[HITS, "a"]
    with pytest.raises(ValueError):
        obs.children[HITS, "a"].inc(-1.0)
    with pytest.raises(ValueError):
        obs.children[HITS, "a", "extra"]


def test_child_bound_after_budget_fills_spills_every_sample(obs):
    obs.children[HITS, "a"].inc()
    obs.children[HITS, "b"].inc()             # budget of 2 now full
    late = obs.children[HITS, "c"]
    for _ in range(3):
        late.inc()
    obs.children[HITS, "d"].inc(5.0)
    metric = obs.metrics.counter("cache.hits_total")
    assert metric.overflowed == 4
    assert metric.labelsets() == [(("host", "a"),), (("host", "b"),),
                                  OVERFLOW_KEY]
    assert metric.value(overflow="true") == 8.0
    assert metric.value(host="c") == 0.0
    drops = obs.metrics.counter("obs.labelsets_dropped_total")
    assert drops.value(metric="cache.hits_total") == 4.0
    assert len(_warnings(obs)) == 1
    # spill children are rebound per emit, never cached
    assert (HITS, "c") not in obs.children


def test_child_bound_before_budget_fills_keeps_its_series(obs):
    early = obs.children[DEPTH, "a"]
    early.set(1.0)
    obs.children[DEPTH, "b"].set(2.0)
    obs.children[DEPTH, "c"].set(3.0)         # spills
    early.set(7.0)
    gauge = obs.metrics.gauge("queue.depth")
    assert gauge.value(queue="a") == 7.0
    assert gauge.value(overflow="true") == 3.0
    assert gauge.overflowed == 1


def test_keyword_gauge_add_spills_past_the_budget(obs):
    # The keyword methods write through a one-off child; past the budget
    # that child is a spill child for every method, add included.
    gauge = obs.metrics.gauge("queue.depth")
    gauge.add(1.0, queue="a")
    gauge.add(2.0, queue="b")
    gauge.add(3.0, queue="c")
    gauge.add(4.0, queue="d")
    gauge.add(0.5, queue="a")
    assert gauge.value(queue="a") == 1.5
    assert gauge.value(overflow="true") == 7.0
    assert gauge.overflowed == 2
    drops = obs.metrics.counter("obs.labelsets_dropped_total")
    assert drops.value(metric="queue.depth") == 2.0


def test_histogram_child_buckets_like_the_linear_scan():
    # The reference path's histogram write is the linear bucket scan the
    # metric used before children; bisect must pick the same buckets,
    # bounds, infinities and NaN included.
    env = Environment()
    reg = MetricsRegistry(env)
    obs = Observability(metrics=reg)
    scanned = reg.histogram("scanned.seconds")
    values = [0.0, 0.01, 0.011, 0.5, 1.0, 1800.0, 1800.5, -3.0,
              math.inf, math.nan]
    for v in values:
        obs.children[LATENCY, "x"].observe(v)
        reference_observe(scanned, v, host="x")
    child_json = reg.histogram("fetch.seconds").to_json()["samples"]
    scanned_json = scanned.to_json()["samples"]
    assert child_json[0]["counts"] == scanned_json[0]["counts"]
    assert child_json[0]["count"] == scanned_json[0]["count"] == 10


def test_kind_clash_raises_on_first_bind(obs):
    obs.metrics.counter("queue.depth")
    with pytest.raises(TypeError):
        obs.children[DEPTH, "a"]
    assert (DEPTH, "a") not in obs.children


def test_unwired_children_are_shared_noops():
    obs = Observability()
    assert obs.children[HITS, "a"] is NOOP_CHILD
    assert obs.children[TOTAL] is NOOP_CHILD
    obs.children[HITS, "a"].inc(3.0)
    obs.children[DEPTH, "q"].set(1.0)
    obs.children[LATENCY, "a"].observe(0.2)
    assert obs.event("x", host="h", k=1) is None


def test_clearing_legs_unwires_the_bundle(obs):
    obs.children[HITS, "a"].inc()
    obs.event("before")
    logger, metrics = obs.logger, obs.metrics
    obs.logger = None
    obs.metrics = None
    obs.children[HITS, "a"].inc()
    obs.event("after")
    assert metrics.counter("cache.hits_total").value(host="a") == 1.0
    assert [r.event for r in logger.records] == ["before"]
    obs.metrics = metrics
    obs.children[HITS, "a"].inc()
    assert metrics.counter("cache.hits_total").value(host="a") == 2.0
