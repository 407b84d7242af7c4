"""Tests for the synthetic climate model output generator."""

import numpy as np
import pytest

from repro.data import (
    ClimateModelRun,
    GridSpec,
    decode,
    monthly_files,
)


def run():
    return ClimateModelRun(model="NCAR_CSM", run="run1",
                           grid=GridSpec(nlat=16, nlon=32, months=12),
                           start_year=1995, seed=1)


def test_grid_spec_axes():
    g = GridSpec(nlat=4, nlon=8, months=12)
    assert len(g.lats) == 4
    assert g.lats[0] == pytest.approx(-67.5)
    assert g.lats[-1] == pytest.approx(67.5)
    assert len(g.lons) == 8
    assert (g.lons >= 0).all() and (g.lons < 360).all()
    assert g.points_per_field == 32
    assert g.bytes_per_variable == 12 * 32 * 8
    with pytest.raises(ValueError):
        GridSpec(nlat=0)


def test_dataset_id():
    assert run().dataset_id == "pcmdi.ncar_csm.run1"


def test_generated_fields_physical():
    ds = run().generate_year(1995)
    tas = ds["tas"].data
    lat = ds.coords["lat"]
    # Warmer at the equator than the poles (annual mean).
    zonal_mean = tas.mean(axis=(0, 2))
    eq = zonal_mean[np.abs(lat).argmin()]
    pole = zonal_mean[np.abs(lat).argmax()]
    assert eq > pole + 20
    # Plausible Kelvin range.
    assert 180 < tas.min() < tas.max() < 330
    # Precipitation non-negative with an ITCZ peak.
    pr = ds["pr"].data
    assert pr.min() >= 0
    pr_zonal = pr.mean(axis=(0, 2))
    assert pr_zonal[np.abs(lat).argmin()] > pr_zonal.mean()
    # Cloud fraction bounded.
    clt = ds["clt"].data
    assert 0 <= clt.min() and clt.max() <= 100


def test_seasonal_cycle_antisymmetric():
    ds = run().generate_year(1995)
    tas = ds["tas"].data
    lat = ds.coords["lat"]
    north = lat > 30
    south = lat < -30
    nh_winter = tas[0][north].mean()   # January
    nh_summer = tas[6][north].mean()   # July
    sh_winter = tas[6][south].mean()
    sh_summer = tas[0][south].mean()
    assert nh_summer > nh_winter + 5
    assert sh_summer > sh_winter + 5


def test_generation_deterministic_per_seed():
    a = run().generate_year(1995)["tas"].data
    b = run().generate_year(1995)["tas"].data
    c = ClimateModelRun(model="NCAR_CSM", run="run1",
                        grid=GridSpec(16, 32, 12), seed=2
                        ).generate_year(1995)["tas"].data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_years_differ():
    r = run()
    a = r.generate_year(1995)["tas"].data
    b = r.generate_year(1996)["tas"].data
    assert not np.array_equal(a, b)


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        run().generate_year(1995, variables=("sst",))


def test_encode_year_roundtrips():
    blob = run().encode_year(1995, variables=("tas",))
    ds = decode(blob)
    assert "tas" in ds
    assert ds.attrs["model"] == "NCAR_CSM"


def test_monthly_files_listing():
    files = monthly_files(run(), years=2, files_per_year=12)
    assert len(files) == 24
    names = [f["logical_name"] for f in files]
    assert names[0] == "pcmdi.ncar_csm.run1.1995.m01-m01.nc"
    assert names[-1] == "pcmdi.ncar_csm.run1.1996.m12-m12.nc"
    assert len(set(names)) == 24
    # Size consistent with a 1-month file of 3 variables on this grid.
    expected = GridSpec(16, 32, 1).field_bytes(3)
    assert files[0]["size"] == expected


def test_monthly_files_grouping_and_override():
    files = monthly_files(run(), years=1, files_per_year=4)
    assert len(files) == 4
    assert files[0]["month_range"] == (1, 3)
    big = monthly_files(run(), years=1, size_override=2 * 2**30)
    assert all(f["size"] == 2 * 2**30 for f in big)
    with pytest.raises(ValueError):
        monthly_files(run(), years=1, files_per_year=5)
    with pytest.raises(ValueError):
        monthly_files(run(), years=0)
