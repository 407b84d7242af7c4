"""Tests for Dataset/Variable and subsetting."""

import numpy as np
import pytest

from repro.data import DataError, Dataset, Variable


def small_ds():
    ds = Dataset("test", {"model": "X"})
    ds.add_coord("time", [0.0, 1.0, 2.0])
    ds.add_coord("lat", [-45.0, 0.0, 45.0])
    ds.add_coord("lon", [0.0, 90.0, 180.0, 270.0])
    data = np.arange(36, dtype=float).reshape(3, 3, 4)
    ds.add_variable(Variable("tas", ("time", "lat", "lon"), data,
                             {"units": "K"}))
    return ds


def test_variable_dim_mismatch():
    with pytest.raises(DataError):
        Variable("v", ("time",), np.zeros((2, 2)))


def test_variable_casts_to_float():
    v = Variable("v", ("x",), np.array([1, 2, 3]))
    assert np.issubdtype(v.data.dtype, np.floating)


def test_add_variable_checks_coords():
    ds = Dataset("d")
    ds.add_coord("time", [0.0, 1.0])
    with pytest.raises(DataError):  # unregistered dim
        ds.add_variable(Variable("v", ("lat",), np.zeros(3)))
    with pytest.raises(DataError):  # length mismatch
        ds.add_variable(Variable("v", ("time",), np.zeros(3)))


def test_coord_must_be_1d():
    ds = Dataset("d")
    with pytest.raises(DataError):
        ds.add_coord("bad", np.zeros((2, 2)))


def test_getitem_and_contains():
    ds = small_ds()
    assert "tas" in ds
    assert ds["tas"].attrs["units"] == "K"
    with pytest.raises(DataError):
        ds["pr"]


def test_nbytes_counts_vars_and_coords():
    ds = small_ds()
    assert ds.nbytes == 36 * 8 + (3 + 3 + 4) * 8


def test_subset_by_coordinate_ranges():
    ds = small_ds()
    sub = ds.subset("tas", lat=(-10, 50), lon=(0, 100))
    assert list(sub.coords["lat"]) == [0.0, 45.0]
    assert list(sub.coords["lon"]) == [0.0, 90.0]
    assert sub["tas"].shape == (3, 2, 2)
    # values preserved: tas[t=0, lat=0(idx1), lon=0(idx0)] == 4
    assert sub["tas"].data[0, 0, 0] == 4.0


def test_subset_full_when_no_ranges():
    ds = small_ds()
    sub = ds.subset("tas")
    assert sub["tas"].shape == ds["tas"].shape


def test_subset_errors():
    ds = small_ds()
    with pytest.raises(DataError):
        ds.subset("tas", lat=(500, 600))  # empty selection
    with pytest.raises(DataError):
        ds.subset("tas", lat=(10, -10))  # inverted
    with pytest.raises(DataError):
        ds.subset("tas", depth=(0, 1))  # unknown dim
    with pytest.raises(DataError):
        ds.subset("ghost")


def test_subset_reduces_bytes():
    ds = small_ds()
    sub = ds.subset("tas", time=(0, 0))
    assert sub.nbytes < ds.nbytes
