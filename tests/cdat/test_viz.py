"""Tests for the ASCII visualization layer."""

import numpy as np
import pytest

from repro.cdat import render_field, render_profile, render_timeseries


def test_render_field_dimensions_and_scale():
    field = np.linspace(0, 1, 20 * 40).reshape(20, 40)
    out = render_field(field, title="T", units="K", width=30, height=10)
    lines = out.splitlines()
    assert lines[0] == "T"
    body = lines[1:-1]
    assert len(body) == 10
    assert all(len(row) == 30 for row in body)
    assert "scale:" in lines[-1]
    assert "K" in lines[-1]


def test_render_field_north_up():
    """High values at high latitude index (north) appear in early rows."""
    field = np.zeros((10, 10))
    field[-1, :] = 100.0  # northernmost band hottest
    out = render_field(field, width=10, height=10)
    body = out.splitlines()[:-1]
    assert body[0].count("@") == 10  # top row saturated
    assert "@" not in body[-1]


def test_render_field_constant_input():
    out = render_field(np.full((5, 5), 3.0), width=5, height=5)
    assert "scale: ' '=3.00 .. '@'=3.00" in out


def test_render_field_rejects_non_2d():
    with pytest.raises(ValueError):
        render_field(np.zeros(5))
    with pytest.raises(ValueError):
        render_field(np.zeros((2, 2, 2)))


def test_render_profile():
    lat = np.array([-45.0, 0.0, 45.0])
    values = np.array([1.0, 3.0, 2.0])
    out = render_profile(values, lat, title="zonal")
    lines = out.splitlines()
    assert lines[0] == "zonal"
    # North at the top: 45.0 first.
    assert lines[1].strip().startswith("45.0")
    # Maximum value (equator) has the longest bar.
    bars = [l.count("#") for l in lines[1:]]
    assert bars[1] == max(bars)


def test_render_profile_shape_mismatch():
    with pytest.raises(ValueError):
        render_profile(np.zeros(3), np.zeros(4))


def test_render_timeseries():
    series = np.sin(np.linspace(0, 2 * np.pi, 50)) + 2
    out = render_timeseries(series, title="gm", height=8)
    lines = out.splitlines()
    assert lines[0] == "gm"
    assert len(lines) == 1 + 8 + 1
    assert "min=" in lines[-1] and "max=" in lines[-1]


def test_render_timeseries_validation():
    with pytest.raises(ValueError):
        render_timeseries(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        render_timeseries(np.array([]))

