"""Tests for the standard server-side processing plug-ins."""

import numpy as np
import pytest

from repro.data import (ClimateModelRun, Dataset, GridSpec, Variable,
                        decode, encode)
from repro.gridftp.plugins import (
    PluginError,
    install_standard_plugins,
    subset_plugin,
    time_mean_plugin,
)
from repro.storage import FileObject


def sdbf_file(name="year.nc"):
    run = ClimateModelRun(grid=GridSpec(16, 32, 12), seed=2)
    blob = run.encode_year(1995)
    return FileObject(name, len(blob), content=blob), run


def test_subset_plugin_reduces_and_preserves_values():
    file, run = sdbf_file()
    size, blob, decoded = subset_plugin(file, {"variable": "tas",
                                               "lat": (-30.0, 30.0),
                                               "time": (0.0, 0.2)})
    assert size == len(blob)
    assert size < file.size / 4
    assert decoded == file.size  # flat layout decodes the whole file
    sub = decode(blob)
    full = run.generate_year(1995)
    lat = full.coords["lat"]
    keep = (lat >= -30) & (lat <= 30)
    np.testing.assert_allclose(sub["tas"].data[0],
                               full["tas"].data[0][keep], rtol=1e-12)


def test_subset_plugin_validation():
    file, _ = sdbf_file()
    with pytest.raises(PluginError, match="variable"):
        subset_plugin(file, {})
    with pytest.raises(PluginError):
        subset_plugin(file, {"variable": "ghost"})
    with pytest.raises(PluginError, match="no content"):
        subset_plugin(FileObject("x", 100), {"variable": "tas"})
    with pytest.raises(PluginError, match="not an SDBF"):
        subset_plugin(FileObject("x", 4, content=b"junk"),
                      {"variable": "tas"})



def _chunked_file(name="a.nc"):
    ds = Dataset("d", {})
    ds.add_coord("time", np.arange(4.0))
    ds.add_coord("lat", np.arange(8.0))
    ds.add_variable(Variable(
        "tas", ("time", "lat"), np.arange(32.0).reshape(4, 8), {}))
    blob = encode(ds, chunks={"time": 1, "lat": 4})
    return FileObject(name, float(len(blob)), blob)


def test_each_request_gets_its_own_decode_count():
    f = _chunked_file()
    args = {"variable": "tas", "lat": (0.0, 3.0)}
    first = subset_plugin(f, args)
    assert subset_plugin(f, args) == first
    assert subset_plugin.stage_prefix(f, args) is not None


def test_malformed_content_raises_every_time():
    f = FileObject("bad.nc", 6.0, b"nosdbf")
    for _ in range(2):
        with pytest.raises(PluginError):
            subset_plugin(f, {"variable": "tas"})
    assert subset_plugin.stage_prefix(f, {"variable": "tas"}) is None

def test_extract_variable_plugin():
    """A subset without coordinate ranges extracts one variable."""
    file, _ = sdbf_file()
    size, blob, _ = subset_plugin(file, {"variable": "pr"})
    ds = decode(blob)
    assert set(ds.variables) == {"pr"}
    assert size < file.size / 2  # dropped 2 of 3 variables
    with pytest.raises(PluginError):
        subset_plugin(file, {"variable": "nope"})
    with pytest.raises(PluginError):
        subset_plugin(file, {})


def test_time_mean_plugin_reduces_by_months():
    file, run = sdbf_file()
    size, blob, _ = time_mean_plugin(file, {"variable": "tas"})
    ds = decode(blob)
    assert ds["tas"].dims == ("lat", "lon")
    full = run.generate_year(1995)
    np.testing.assert_allclose(ds["tas"].data,
                               full["tas"].data.mean(axis=0), rtol=1e-12)
    # ~12x reduction on the variable payload.
    assert size < file.size / 6


def test_time_mean_plugin_requires_time_axis():
    from repro.data import Dataset, Variable, encode
    ds = Dataset("flat")
    ds.add_coord("lat", [0.0, 1.0])
    ds.add_variable(Variable("v", ("lat",), np.zeros(2)))
    blob = encode(ds)
    f = FileObject("flat.nc", len(blob), content=blob)
    with pytest.raises(PluginError, match="no time axis"):
        time_mean_plugin(f, {"variable": "v"})
    with pytest.raises(PluginError):
        time_mean_plugin(f, {})


def test_install_standard_plugins(grid):
    install_standard_plugins(grid.server)
    assert sorted(grid.server._plugins) == ["subset", "time_mean"]


def test_plugins_over_the_wire(grid):
    """End-to-end: the subset ships, the original stays put."""
    install_standard_plugins(grid.server)
    file, _ = sdbf_file()
    grid.server_fs.store(file)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        stats = yield from session.get(
            "year.nc", grid.client_fs, grid.client_host,
            dest_name="tropics.nc", eret="subset",
            eret_args={"variable": "tas", "lat": (-15.0, 15.0)})
        return stats

    stats = grid.run_process(main())
    assert stats.transferred_bytes < file.size / 4
    sub = decode(grid.client_fs.stat("tropics.nc").content)
    assert float(np.abs(sub.coords["lat"]).max()) <= 15.0
