"""Tests for exact rate-series analysis, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import RateRecorder, RateSeries, aggregate_series


def make_series():
    # 10 B/s on [0,10), 0 on [10,20), 30 B/s on [20,30)
    return RateSeries([0.0, 10.0, 20.0], [10.0, 0.0, 30.0], 30.0)


def test_total_bytes():
    assert make_series().total_bytes == pytest.approx(100 + 0 + 300)


def test_bytes_between():
    s = make_series()
    assert s.bytes_between(0, 10) == pytest.approx(100)
    assert s.bytes_between(5, 25) == pytest.approx(50 + 0 + 150)
    assert s.bytes_between(12, 18) == pytest.approx(0)


def test_average():
    s = make_series()
    assert s.average() == pytest.approx(400 / 30)
    assert s.average(20, 30) == pytest.approx(30)


def test_rate_at():
    s = make_series()
    assert s.rate_at(5.0) == 10.0
    assert s.rate_at(15.0) == 0.0
    assert s.rate_at(25.0) == 30.0
    assert s.rate_at(-1.0) == 0.0
    assert s.rate_at(30.0) == 0.0  # outside domain


def test_peak_windowed_finds_best_window():
    s = make_series()
    # Best 10 s window is [20,30): 30 B/s.
    assert s.peak_windowed(10.0) == pytest.approx(30.0)
    # Best 20 s window must straddle the dead zone: [10,30) = 300/20.
    assert s.peak_windowed(20.0) == pytest.approx(15.0)


def test_peak_windowed_window_larger_than_domain():
    s = make_series()
    assert s.peak_windowed(60.0) == pytest.approx(400 / 60.0)


def test_peak_instantaneous():
    assert make_series().peak_instantaneous() == 30.0


def test_sample_bins():
    s = make_series()
    t, r = s.sample(10.0)
    assert list(t) == [0.0, 10.0, 20.0]
    assert list(r) == [10.0, 0.0, 30.0]


def test_validation_errors():
    with pytest.raises(ValueError):
        RateSeries([], [], 1.0)
    with pytest.raises(ValueError):
        RateSeries([0.0, 0.0], [1.0, 2.0], 1.0)  # non-increasing
    with pytest.raises(ValueError):
        RateSeries([0.0], [-1.0], 1.0)  # negative rate
    with pytest.raises(ValueError):
        RateSeries([5.0], [1.0], 1.0)  # t_end before breakpoint
    s = make_series()
    with pytest.raises(ValueError):
        s.peak_windowed(0.0)
    with pytest.raises(ValueError):
        s.bytes_between(5, 1)
    with pytest.raises(ValueError):
        s.average(5, 5)
    with pytest.raises(ValueError):
        s.sample(0)


def test_recorder_dedups_and_overwrites():
    rec = RateRecorder("r")
    rec.record(0.0, 5.0)
    rec.record(1.0, 5.0)   # no change → dropped
    rec.record(2.0, 7.0)
    rec.record(2.0, 9.0)   # same instant → overwrite
    s = rec.close(10.0)
    assert list(s.times) == [0.0, 2.0]
    assert list(s.rates) == [5.0, 9.0]


def test_recorder_rejects_backwards_time_and_reuse():
    rec = RateRecorder("r")
    rec.record(5.0, 1.0)
    with pytest.raises(ValueError):
        rec.record(4.0, 1.0)
    rec.close(6.0)
    with pytest.raises(RuntimeError):
        rec.record(7.0, 1.0)
    with pytest.raises(RuntimeError):
        rec.close(8.0)


def test_recorder_empty_close_raises():
    with pytest.raises(RuntimeError):
        RateRecorder("r").close(1.0)


def test_aggregate_sums_overlapping_series():
    a = RateSeries([0.0], [10.0], 10.0)
    b = RateSeries([5.0], [20.0], 15.0)
    agg = aggregate_series([a, b])
    assert agg.rate_at(2.0) == 10.0
    assert agg.rate_at(7.0) == 30.0
    assert agg.rate_at(12.0) == 20.0
    assert agg.total_bytes == pytest.approx(a.total_bytes + b.total_bytes)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate_series([])


# -- property-based invariants ------------------------------------------------

rate_lists = st.lists(
    st.tuples(st.floats(0.01, 100.0), st.floats(0.0, 1000.0)),
    min_size=1, max_size=30)


def build(segments):
    """Build a series from (duration, rate) segments starting at t=0."""
    times, rates, t = [], [], 0.0
    for dur, rate in segments:
        times.append(t)
        rates.append(rate)
        t += dur
    return RateSeries(times, rates, t)


@given(rate_lists)
@settings(max_examples=80, deadline=None)
def test_property_windowed_peak_bounds_average(segments):
    s = build(segments)
    span = s.t_end - s.t_start
    for w in (span / 4, span / 2, span):
        if w <= 0:
            continue
        peak = s.peak_windowed(w)
        assert peak >= s.average() - 1e-6
        assert peak <= s.peak_instantaneous() + 1e-6


@given(rate_lists)
@settings(max_examples=80, deadline=None)
def test_property_peak_exceeds_any_sampled_window(segments):
    """The analytic peak dominates any brute-force sampled window mean."""
    s = build(segments)
    w = (s.t_end - s.t_start) / 3
    if w <= 0:
        return
    peak = s.peak_windowed(w)
    starts = np.linspace(s.t_start, s.t_end - w, 50)
    means = (s.cumulative_bytes(starts + w) - s.cumulative_bytes(starts)) / w
    assert peak >= means.max() - 1e-6


@given(rate_lists)
@settings(max_examples=80, deadline=None)
def test_property_total_bytes_equals_cumulative_end(segments):
    s = build(segments)
    assert s.total_bytes == pytest.approx(
        float(s.cumulative_bytes(s.t_end)), rel=1e-9, abs=1e-9)


@given(rate_lists, rate_lists)
@settings(max_examples=60, deadline=None)
def test_property_aggregate_preserves_total_bytes(seg_a, seg_b):
    a, b = build(seg_a), build(seg_b)
    agg = aggregate_series([a, b])
    assert agg.total_bytes == pytest.approx(
        a.total_bytes + b.total_bytes, rel=1e-9, abs=1e-6)


# -- series built by a recorder: arrays deferred to the first query ----------

def record(segments):
    """The recorder-built twin of :func:`build`, and the eager series on
    the breakpoints the recorder keeps (it drops repeated rates)."""
    rec = RateRecorder("r")
    times, rates, t = [], [], 0.0
    for dur, rate in segments:
        rec.record(t, rate)
        if not rates or rate != rates[-1]:
            times.append(t)
            rates.append(rate)
        t += dur
    return rec.close(t), RateSeries(times, rates, t)


def queries(s):
    span = s.t_end - s.t_start
    probes = np.linspace(s.t_start - 1.0, s.t_end + 1.0, 17)
    out = [s.t_start, s.t_end, s.total_bytes, s.average(),
           s.average(s.t_start + span / 3, s.t_end),
           s.bytes_between(s.t_start + span / 4, s.t_end - span / 4),
           s.peak_instantaneous(), list(s.times), list(s.rates),
           list(s.rate_at(probes)), list(s.cumulative_bytes(probes))]
    for w in (span / 7, span / 2, span, 2 * span):
        out.append(s.peak_windowed(w))
    for dt in (span / 5, span / 2.5):
        edges, means = s.sample(dt)
        out += [list(edges), list(means)]
    return out


@given(rate_lists)
@settings(max_examples=80, deadline=None)
def test_property_recorded_series_equals_eager(segments):
    """Every query of a recorder-built series equals (==) the eager
    series on the same breakpoints, so the properties above hold for it."""
    recorded, eager = record(segments)
    assert queries(recorded) == queries(eager)


@given(rate_lists, rate_lists)
@settings(max_examples=60, deadline=None)
def test_property_recorded_aggregate_equals_eager(seg_a, seg_b):
    (ra, ea), (rb, eb) = record(seg_a), record(seg_b)
    assert queries(aggregate_series([ra, rb])) == queries(
        aggregate_series([ea, eb]))
    assert queries(aggregate_series([ra, eb])) == queries(
        aggregate_series([ea, rb]))


def test_close_does_no_numpy_work(monkeypatch):
    import repro.net.recorder as recorder_mod

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy used at close: np.{name}")

    rec = RateRecorder("r")
    rec.record(0.0, 5.0)
    rec.record(2.0, 7.0)
    monkeypatch.setattr(recorder_mod, "np", NoNumpy())
    series = rec.close(10.0)
    assert series.t_end == 10.0
    monkeypatch.undo()
    assert list(series.times) == [0.0, 2.0]
    assert series.total_bytes == 5.0 * 2 + 7.0 * 8
