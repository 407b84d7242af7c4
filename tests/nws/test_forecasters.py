"""Tests for the NWS forecaster suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nws import (
    AdaptiveForecaster,
    ExpSmoothingForecaster,
    LastValueForecaster,
    MedianForecaster,
    RunningMeanForecaster,
    SlidingMeanForecaster,
)


def feed(f, values):
    for v in values:
        f.update(v)
    return f.predict()


def test_last_value():
    assert LastValueForecaster().predict() is None
    assert feed(LastValueForecaster(), [1, 2, 3]) == 3


def test_running_mean():
    assert feed(RunningMeanForecaster(), [1, 2, 3, 4]) == pytest.approx(2.5)


def test_sliding_mean_window():
    f = SlidingMeanForecaster(window=2)
    assert feed(f, [10, 1, 3]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        SlidingMeanForecaster(window=0)


def test_median_robust_to_outlier():
    f = MedianForecaster(window=5)
    assert feed(f, [10, 10, 10, 1000, 10]) == 10
    even = MedianForecaster(window=4)
    assert feed(even, [1, 2, 3, 4]) == pytest.approx(2.5)


def test_exp_smoothing():
    f = ExpSmoothingForecaster(alpha=0.5)
    assert feed(f, [10]) == 10
    assert feed(ExpSmoothingForecaster(0.5), [10, 20]) == pytest.approx(15)
    with pytest.raises(ValueError):
        ExpSmoothingForecaster(alpha=0)
    with pytest.raises(ValueError):
        ExpSmoothingForecaster(alpha=1.5)


def test_adaptive_empty():
    assert AdaptiveForecaster().predict() is None
    assert AdaptiveForecaster().best_name is None


def test_adaptive_tracks_constant_series():
    f = AdaptiveForecaster()
    for _ in range(20):
        f.update(42.0)
    assert f.predict() == pytest.approx(42.0)


def test_adaptive_prefers_last_value_on_trend():
    """On a steady ramp, last-value beats the running mean."""
    f = AdaptiveForecaster()
    for i in range(50):
        f.update(float(i))
    assert f.best_name == "last"
    assert f.predict() == 49.0


def test_adaptive_prefers_robust_method_on_spiky_series():
    """With rare huge spikes, median/means beat last-value."""
    rng = np.random.default_rng(3)
    f = AdaptiveForecaster()
    for i in range(300):
        v = 100.0 + rng.normal(0, 1)
        if i % 17 == 0:
            v = 5000.0
        f.update(v)
    assert f.best_name != "last"
    errors = dict(zip([s.name for s in f.forecasters], f._errors))
    assert errors[f.best_name] == min(errors.values())


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_property_adaptive_never_worse_than_worst(values):
    """The adaptive forecast is always one of the sub-forecasts, and its
    accumulated error is the minimum over the suite."""
    f = AdaptiveForecaster()
    for v in values:
        f.update(v)
    preds = {sub.predict() for sub in f.forecasters}
    assert f.predict() in preds
    assert min(f._errors) == pytest.approx(
        f._errors[[s.name for s in f.forecasters].index(f.best_name)])


@given(st.lists(st.floats(1.0, 100.0), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_property_forecasts_within_observed_range(values):
    """All suite members forecast inside [min, max] of the history."""
    lo, hi = min(values), max(values)
    f = AdaptiveForecaster()
    for v in values:
        f.update(v)
    for sub in f.forecasters:
        p = sub.predict()
        assert lo - 1e-9 <= p <= hi + 1e-9
