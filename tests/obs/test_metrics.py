"""Tests for the metrics registry."""

import json

import pytest

from repro.obs import metrics
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               quantile_from_counts)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_counter_accumulates_per_label_set(env):
    c = Counter(env, "rm.transfers_total")
    c.inc(host="a")
    c.inc(host="a")
    c.inc(2.0, host="b")
    c.inc()
    assert c.value(host="a") == 2.0
    assert c.value(host="b") == 2.0
    assert c.value() == 1.0
    assert c.total == 5.0


def test_counter_rejects_negative(env):
    c = Counter(env, "n")
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_set_and_add(env):
    g = Gauge(env, "queue.depth")
    g.set(3.0)
    g.add(2.0)
    assert g.value() == 5.0
    g.set(1.0, host="x")
    assert g.value(host="x") == 1.0


def quantile(h, q):
    return quantile_from_counts(h.bounds, h.bucket_row(), q)


def test_histogram_buckets_and_quantiles(env, monkeypatch):
    monkeypatch.setattr(metrics, "DEFAULT_BUCKETS", (0.1, 1.0, 10.0))
    h = Histogram(env, "lat")
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count() == 5
    assert h.sum() == pytest.approx(56.05)
    # median sits in the (0.1, 1.0] bucket
    assert 0.1 <= quantile(h, 0.5) <= 1.0
    assert quantile(h, 0.8) == pytest.approx(10.0)
    # the top observation overflows every finite bucket
    assert quantile(h, 0.99) == float("inf")
    assert Histogram(env, "empty").bucket_row() is None


def test_registry_get_or_create_and_kind_clash(env):
    reg = MetricsRegistry(env)
    c1 = reg.counter("a.total", help="things")
    assert reg.counter("a.total") is c1
    with pytest.raises(TypeError):
        reg.gauge("a.total")
    assert "a.total" in reg.names()


def test_prometheus_rendering_sanitizes_names(env, monkeypatch):
    monkeypatch.setattr(metrics, "DEFAULT_BUCKETS", (1.0,))
    reg = MetricsRegistry(env)
    reg.counter("rm.transfers_total").inc(host="anl")
    reg.histogram("rm.seconds").observe(0.5)
    text = reg.render_prometheus()
    assert "rm_transfers_total{host=\"anl\"} 1" in text
    assert "rm_seconds_bucket{le=\"1\"} 1" in text
    assert "rm_seconds_bucket{le=\"+Inf\"} 1" in text
    assert "rm_seconds_count 1" in text


def test_json_export_is_serializable_with_sim_timestamps(env):
    env.run(until=5.0)
    reg = MetricsRegistry(env)
    reg.counter("c").inc()
    blob = json.loads(json.dumps(reg.to_json()))
    sample = blob["metrics"]["c"]["samples"][0]
    assert sample["value"] == 1.0
    assert sample["t"] == 5.0


def test_quantile_interpolates_within_the_bucket(env, monkeypatch):
    """Directed p95: 10 obs in (0,1], 10 in (1,2] puts the 95th
    percentile 9/10 of the way through the second bucket."""
    monkeypatch.setattr(metrics, "DEFAULT_BUCKETS", (1.0, 2.0, 4.0))
    h = Histogram(env, "lat")
    for _ in range(10):
        h.observe(0.5)
    for _ in range(10):
        h.observe(1.5)
    assert quantile(h, 0.95) == pytest.approx(1.9)
    assert quantile(h, 0.5) == pytest.approx(1.0)
    assert quantile(h, 0.25) == pytest.approx(0.5)


def test_quantile_helpers_on_raw_rows():
    from repro.obs.metrics import count_over_threshold
    bounds = (1.0, 2.0, 4.0)
    row = [10, 10, 0, 0]          # one slot per bound + overflow
    assert quantile_from_counts(bounds, row, 0.95) == pytest.approx(1.9)
    # threshold mid-bucket: half the second bucket is above 1.5
    assert count_over_threshold(bounds, row, 1.5) == pytest.approx(5.0)
    assert count_over_threshold(bounds, row, 4.0) == 0.0
    assert quantile_from_counts(bounds, [0, 0, 0, 0], 0.5) is None


def test_label_cardinality_guard_bounds_labelsets(env, monkeypatch):
    from repro.netlogger import NetLogger
    monkeypatch.setattr(metrics, "MAX_LABELSETS", 2)
    logger = NetLogger(env)
    reg = MetricsRegistry(env, logger=logger)
    c = reg.counter("rm.requests_total")
    for i in range(5):
        c.inc(host=f"site-{i}")   # 3 of these exceed the bound
    assert c.overflowed == 3
    # overflowing increments land on the sentinel series, not new ones
    assert c.value(overflow="true") == 3.0
    assert c.value(host="site-0") == 1.0
    assert c.value(host="site-4") == 0.0
    # the registry self-metric counts the drops per metric
    drops = reg.counter("obs.labelsets_dropped_total")
    assert drops.value(metric="rm.requests_total") == 3.0
    # exactly one ULM warning, not one per dropped labelset
    warnings = [r for r in logger.records
                if r.event == "obs.cardinality.overflow"]
    assert len(warnings) == 1
    assert warnings[0].fields["metric"] == "rm.requests_total"


def test_cardinality_guard_never_blocks_existing_labelsets(env, monkeypatch):
    monkeypatch.setattr(metrics, "MAX_LABELSETS", 1)
    reg = MetricsRegistry(env)
    g = reg.gauge("depth")
    g.set(1.0, queue="a")         # occupies the single slot
    g.set(9.0, queue="a")         # updates in place, no overflow
    g.set(5.0, queue="b")         # rejected
    assert g.value(queue="a") == 9.0
    assert g.overflowed == 1
