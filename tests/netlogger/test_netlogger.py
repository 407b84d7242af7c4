"""Tests for NetLogger events and bandwidth analysis."""

import numpy as np
import pytest

from repro.net import RateSeries, gbps, mbps
from repro.netlogger import (
    BandwidthSummary,
    NetLogger,
    bandwidth_timeline,
    summarize,
)
from repro.sim import Environment


def test_event_recording_and_filtering():
    env = Environment()
    log = NetLogger(env, host="anl-ws", prog="gridftp")

    def worker(env, log):
        log.event("transfer.start", file="a.nc")
        yield env.timeout(5)
        log.event("transfer.end", file="a.nc", bytes=100)
        log.event("transfer.start", host="other", file="b.nc")

    env.process(worker(env, log))
    env.run()
    assert len(log) == 3
    assert len(log.select(event="transfer.start")) == 2
    assert len(log.select(host="anl-ws")) == 2
    ends = log.select(event="transfer.end")
    assert ends[0].t == 5.0
    assert ends[0].fields["bytes"] == "100"


def flat_series(rate, t0, t1):
    return RateSeries([t0], [rate], t1)


def test_summarize_flat_series():
    s = summarize([flat_series(mbps(100), 0, 100)])
    assert s.sustained == pytest.approx(mbps(100))
    assert s.peak_100ms == pytest.approx(mbps(100))
    assert s.peak_5s == pytest.approx(mbps(100))
    assert s.total_bytes == pytest.approx(mbps(100) * 100)
    assert s.duration == 100


def test_summarize_peaks_exceed_sustained_on_bursty_series():
    burst = RateSeries([0.0, 10.0, 10.05, 50.0],
                       [mbps(100), gbps(1.5), mbps(100), 0.0], 100.0)
    s = summarize([burst])
    assert s.peak_100ms > s.peak_5s > s.sustained


def test_summarize_sustained_window_picks_best_window():
    # 200 Mb/s for the first 50 s, dead afterwards.
    series = RateSeries([0.0, 50.0], [mbps(200), 0.0], 200.0)
    s = summarize([series], sustained_window=50.0)
    assert s.sustained == pytest.approx(mbps(200))
    full = summarize([series])
    assert full.sustained == pytest.approx(mbps(50))


def test_summarize_window_bounds():
    series = flat_series(mbps(10), 0, 60)
    s = summarize([series], t0=0.0, t1=30.0)
    assert s.total_bytes == pytest.approx(mbps(10) * 30)
    with pytest.raises(ValueError):
        summarize([series], t0=10.0, t1=10.0)


def test_unit_conversions_in_summary():
    s = BandwidthSummary(peak_100ms=gbps(1.55), peak_5s=gbps(1.03),
                         sustained=mbps(512.9), sustained_window=3600,
                         total_bytes=230.8e9, duration=3600)
    assert s.peak_100ms_gbps == pytest.approx(1.55)
    assert s.sustained_mbps == pytest.approx(512.9)
    assert s.total_gbytes == pytest.approx(230.8)
    rows = dict(s.rows())
    assert rows["Peak transfer rate over 0.1 seconds"] == "1.55 Gbits/sec"
    assert rows["Sustained transfer rate over 1 hour"] == "512.9 Mbits/sec"
    assert rows["Total data transferred"] == "230.8 Gbytes"


def test_bandwidth_timeline_bins():
    a = flat_series(mbps(10), 0, 120)
    b = flat_series(mbps(10), 60, 120)
    times, rates = bandwidth_timeline([a, b], bin_seconds=60.0)
    assert list(times) == [0.0, 60.0]
    assert rates[0] == pytest.approx(mbps(10))
    assert rates[1] == pytest.approx(mbps(20))
