"""Aligned-window time-series recording."""

import pytest

from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def test_rejects_bad_parameters(env):
    with pytest.raises(ValueError):
        TimeSeriesRecorder(env, interval=0.0)


def test_samples_land_on_aligned_boundaries(env):
    ts = TimeSeriesRecorder(env, interval=5.0)
    ts.add_probe("clock", lambda: env.now)
    env.run(until=3.0)        # start mid-window
    ts.start()
    env.run(until=21.0)
    times = [t for t, _v in ts.series("clock")]
    assert times == [5.0, 10.0, 15.0, 20.0]
    # every sample read the probe in the same tick it was stamped
    assert all(v == t for t, v in ts.series("clock"))


def test_multi_probe_feeds_aligned_series_with_holes(env):
    ts = TimeSeriesRecorder(env, interval=1.0)
    state = {"a": 1.0, "b": 2.0}
    ts.add_multi_probe(lambda: dict(state))
    ts.start()
    env.run(until=2.5)        # samples at 0, 1, 2
    del state["b"]            # probe stops reporting b
    state["a"] = 5.0
    env.run(until=4.5)        # samples at 3, 4
    assert [v for _t, v in ts.series("a")] == [1.0, 1.0, 1.0, 5.0, 5.0]
    # b has explicit holes, keeping the tick axes aligned
    assert [v for _t, v in ts.series("b")] == [2.0, 2.0, 2.0, None, None]
    assert ts.names() == ["a", "b"]


def test_window_aggregates_and_hole_policy(env):
    ts = TimeSeriesRecorder(env, interval=1.0)
    vals = iter([0.2, 1.0, None, 0.95])
    current = {"v": None}

    def probe():
        current["v"] = next(vals)
        return {"v": current["v"]} if current["v"] is not None else {}

    ts.add_multi_probe(probe)
    ts.start()
    env.run(until=3.5)
    assert ts.series("v")[1] == (1.0, 1.0)
    assert ts.series("v")[2] == (2.0, None)    # the hole itself
    # holes zero-fill by default, or are skipped with fill=None
    assert ts.mean("v", 0.0, 3.0) == pytest.approx((0.2 + 1.0 + 0.0 + 0.95) / 4)
    assert ts.mean("v", 0.0, 3.0, fill=None) == \
        pytest.approx((0.2 + 1.0 + 0.95) / 3)
    assert ts.peak("v", 0.0, 3.0) == 1.0
    # 2 of 4 windows at >= 0.9; the hole counts as idle
    assert ts.busy_fraction("v", 0.0, 3.0) == 0.5
    assert ts.mean("missing", 0.0, 3.0) == 0.0    # all-holes, zero-filled
    assert ts.mean("missing", 0.0, 3.0, fill=None) is None


def test_start_is_idempotent(env):
    ts = TimeSeriesRecorder(env, interval=1.0)
    ts.add_probe("x", lambda: 1.0)
    ts.start()
    ts.start()
    env.run(until=2.5)
    assert len(ts.series("x")) == 3   # one sampler, not two
