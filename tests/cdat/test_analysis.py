"""Tests for CDAT analysis primitives."""

import numpy as np
import pytest

from repro.cdat import (
    anomaly,
    concat_time,
    global_mean_series,
    seasonal_cycle,
    time_mean,
    zonal_mean,
)
from repro.cdat.analysis import area_weights
from repro.data.synth import slice_months
from repro.data import ClimateModelRun, DataError, Dataset, GridSpec, Variable


def run():
    return ClimateModelRun(grid=GridSpec(nlat=16, nlon=32, months=12),
                           start_year=1995, seed=4)


def small(nt=4, nlat=3, nlon=4, fill=None):
    ds = Dataset("s")
    ds.add_coord("time", np.arange(nt, dtype=float))
    ds.add_coord("lat", np.linspace(-60, 60, nlat))
    ds.add_coord("lon", np.linspace(0, 270, nlon))
    data = (np.arange(nt * nlat * nlon, dtype=float)
            .reshape(nt, nlat, nlon) if fill is None
            else np.full((nt, nlat, nlon), float(fill)))
    ds.add_variable(Variable("v", ("time", "lat", "lon"), data))
    return ds


def test_time_mean_shape_and_value():
    ds = small(fill=7.0)
    tm = time_mean(ds, "v")
    assert tm.shape == (3, 4)
    assert np.allclose(tm, 7.0)


def test_zonal_mean_shape():
    ds = small()
    zm = zonal_mean(ds, "v")
    assert zm.shape == (3,)


def test_wrong_dims_rejected():
    ds = Dataset("bad")
    ds.add_coord("time", [0.0, 1.0])
    ds.add_variable(Variable("v", ("time",), np.zeros(2)))
    with pytest.raises(DataError):
        time_mean(ds, "v")


def test_area_weights_normalized_and_equator_heavy():
    ds = small()
    w = area_weights(ds)
    assert w.sum() == pytest.approx(1.0)
    assert w[1] > w[0]  # equator band outweighs 60° bands


def test_global_mean_series_constant_field():
    ds = small(fill=3.0)
    gm = global_mean_series(ds, "v")
    assert gm.shape == (4,)
    assert np.allclose(gm, 3.0)


def test_anomaly_zero_mean():
    ds = small()
    an = anomaly(ds, "v")
    assert an.shape == ds["v"].shape
    assert np.allclose(an.mean(axis=0), 0.0, atol=1e-9)


def test_seasonal_cycle_requires_whole_years():
    ds = small(nt=13)
    with pytest.raises(DataError):
        seasonal_cycle(ds, "v")
    ok = small(nt=24)
    cyc = seasonal_cycle(ok, "v")
    assert cyc.shape == (12, 3, 4)


def test_seasonal_cycle_recovers_synthetic_cycle():
    ds = run().generate_year(1995)
    cyc = seasonal_cycle(ds, "tas")
    lat = ds.coords["lat"]
    north = lat > 30
    # July (index 6) warmer than January (index 0) in the NH climatology.
    assert cyc[6][north].mean() > cyc[0][north].mean()


def test_concat_time_stacks():
    r = run()
    full = r.generate_year(1995, variables=("tas",))
    ds95 = slice_months(full, 1, 6)
    ds95b = slice_months(full, 7, 12)
    merged = concat_time([ds95, ds95b], "tas")
    assert merged["tas"].shape[0] == 12
    np.testing.assert_array_equal(merged["tas"].data, full["tas"].data)


def test_concat_time_grid_mismatch_rejected():
    a = small(nlat=3)
    b = small(nlat=3)
    b.coords["lat"] = b.coords["lat"] + 1.0
    with pytest.raises(DataError):
        concat_time([a, b], "v")
    with pytest.raises(DataError):
        concat_time([], "v")


def test_generate_months_validation():
    year = run().generate_year(1995)
    with pytest.raises(ValueError):
        slice_months(year, 0, 3)
    with pytest.raises(ValueError):
        slice_months(year, 5, 3)
    with pytest.raises(ValueError):
        slice_months(year, 1, 13)
