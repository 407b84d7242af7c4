"""Tests for the dataset-series aggregation view (portal.open_series).

One logical request fans out across a dataset's file series at the best
replicas and comes back as a single time-concatenated dataset — the
caller never sees file boundaries.
"""

import numpy as np
import pytest

from repro.data import GridSpec
from repro.scenarios import EsgTestbed

CHUNKS = {"time": 1, "lat": 8, "lon": 16}
DATASET = "pcmdi.ncar_csm.run1"


def make_testbed(seed=6):
    tb = EsgTestbed(seed=seed, materialize=True,
                    grid=GridSpec(nlat=16, nlon=32, months=12),
                    sdbf_chunks=CHUNKS)
    tb.warm_nws(90.0)
    return tb


def open_series(tb, dataset_id=DATASET):
    def main():
        return (yield from tb.portal.open_series(dataset_id))
    return tb.run_process(main())


def test_open_series_resolves_the_record():
    tb = make_testbed()
    series = open_series(tb)
    assert series.dataset_id == DATASET
    assert "tas" in series.record.variables
    lo, hi = series.time_extent
    assert lo <= hi


def test_open_series_unknown_dataset_raises():
    from repro.metadata import MetadataError
    tb = make_testbed()

    def main():
        with pytest.raises(MetadataError):
            yield from tb.portal.open_series("no.such.dataset")
        yield tb.env.timeout(0)

    tb.run_process(main())


def test_series_fetch_concatenates_in_file_order():
    tb = make_testbed()
    series = open_series(tb)
    lo, _hi = series.time_extent

    def main():
        return (yield from series.fetch("tas", operation="subset",
                                        years=(lo, lo),
                                        lat=(-30.0, 30.0)))

    resp = tb.run_process(main())
    assert resp.files > 1                       # really fanned out
    assert resp.dataset["tas"].shape[0] == 12   # a full year of months
    time = resp.dataset.coords["time"]
    assert np.all(np.diff(time) > 0)            # merged in time order
    assert resp.bytes_shipped < resp.full_bytes
    assert resp.server_decoded_bytes > 0
    # Fanned-out products may come from several replica hosts.
    for host in resp.source_hostname.split(","):
        assert host in tb.registry


def test_series_fetch_matches_sequential_request():
    """The aggregation view is a performance feature, not a semantics
    change: its merged dataset equals the sequential portal request."""
    tb = make_testbed()
    series = open_series(tb)
    lo, _ = series.time_extent

    def fanned():
        return (yield from series.fetch("tas", operation="subset",
                                        years=(lo, lo), fanout=4,
                                        lat=(-20.0, 20.0)))

    def sequential():
        return (yield from tb.portal.request(
            DATASET, "tas", operation="subset", years=(lo, lo),
            lat=(-20.0, 20.0)))

    fan = tb.run_process(fanned())
    seq = tb.run_process(sequential())
    np.testing.assert_array_equal(fan.dataset["tas"].data,
                                  seq.dataset["tas"].data)
    np.testing.assert_array_equal(fan.dataset.coords["time"],
                                  seq.dataset.coords["time"])
    assert fan.bytes_shipped == pytest.approx(seq.bytes_shipped)


def test_series_fanout_width_does_not_change_results():
    tb1 = make_testbed()
    s1 = open_series(tb1)
    lo, _ = s1.time_extent
    tb2 = make_testbed()
    s2 = open_series(tb2)

    def run(series, tb, fanout):
        def main():
            return (yield from series.fetch("tas", years=(lo, lo),
                                            fanout=fanout,
                                            lat=(-10.0, 10.0)))
        return tb.run_process(main())

    wide = run(s1, tb1, 4)
    narrow = run(s2, tb2, 1)
    np.testing.assert_array_equal(wide.dataset["tas"].data,
                                  narrow.dataset["tas"].data)
    assert wide.bytes_shipped == pytest.approx(narrow.bytes_shipped)


def test_series_fetch_bad_fanout_rejected():
    tb = make_testbed()
    series = open_series(tb)

    def main():
        with pytest.raises(ValueError):
            yield from series.fetch("tas", fanout=0)
        yield tb.env.timeout(0)

    tb.run_process(main())


def test_series_time_mean_repeat_hits_derived_caches():
    """A reload of the same series plot is answered from the servers'
    derived-product caches: zero new bytes decoded."""
    tb = make_testbed()
    series = open_series(tb)
    lo, _ = series.time_extent

    def fetch():
        return (yield from series.fetch("tas", operation="subset",
                                        years=(lo, lo),
                                        lat=(-30.0, 30.0)))

    cold = tb.run_process(fetch())
    warm = tb.run_process(fetch())
    assert cold.server_decoded_bytes > 0
    assert cold.cache_hits == 0
    assert warm.cache_hits == warm.files == cold.files
    assert warm.server_decoded_bytes == 0.0
    np.testing.assert_array_equal(cold.dataset["tas"].data,
                                  warm.dataset["tas"].data)


def test_series_results_deterministic_across_runs():
    """Same seed, fresh testbed: identical merged bytes and identical
    byte accounting, with the derived caches enabled."""
    def run():
        tb = make_testbed(seed=6)
        series = open_series(tb)
        lo, _ = series.time_extent

        def main():
            return (yield from series.fetch("tas", operation="subset",
                                            years=(lo, lo),
                                            lat=(-30.0, 30.0)))
        return tb.run_process(main())

    a, b = run(), run()
    np.testing.assert_array_equal(a.dataset["tas"].data,
                                  b.dataset["tas"].data)
    assert a.bytes_shipped == b.bytes_shipped
    assert a.server_decoded_bytes == b.server_decoded_bytes
    assert a.seconds == b.seconds
