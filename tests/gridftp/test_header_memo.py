"""The ERET plug-ins parse each SDBF file's header once per content.

A subset request and its staging plan each read the file's header; the
parsed header is kept on the ``FileObject`` while its content is the
same bytes, and every request gets a fresh reader with its own decode
count, so the bytes charged as decode work do not change.
"""

from collections import Counter

import numpy as np
import pytest

from repro.data import Dataset, GridSpec, Variable, encode, ncformat
from repro.gridftp import plugins
from repro.scenarios import EsgTestbed
from repro.storage.filesystem import FileObject

CHUNKS = {"time": 1, "lat": 8, "lon": 16}


@pytest.fixture
def header_parses(monkeypatch):
    """Counts decode_header calls per blob (by value)."""
    calls = Counter()
    real = ncformat.decode_header

    def counting(blob):
        calls[bytes(blob)] += 1
        return real(blob)
    monkeypatch.setattr(ncformat, "decode_header", counting)
    return calls


def test_reduced_portal_run_parses_each_archive_header_once(header_parses):
    tb = EsgTestbed(seed=6, years=2, materialize=True, with_tape=True,
                    grid=GridSpec(nlat=16, nlon=32, months=12),
                    sdbf_chunks=CHUNKS, eret_range_staging=True)
    # As in the suite's portal workload: the second dataset is tape-only,
    # so its requests are planned (stage prefix) before they are served.
    disk_ds, tape_ds = tb.dataset_ids()[:2]
    for site in tb.sites.values():
        if site.name != "lbnl-pdsf":
            tb.replica_catalog.delete_location(tape_ds, site.name)
            for f in tb.datasets[tape_ds]:
                if site.fs.exists(str(f["logical_name"])):
                    site.fs.delete(str(f["logical_name"]))
    tb.warm_nws(90.0)
    archive = {f.content for site in tb.sites.values()
               for f in site.fs._files.values() if f.content is not None}
    assert archive
    header_parses.clear()
    lo, _hi = tb.metadata_catalog.time_extent(disk_ds)

    def analyst(ds):
        series = yield from tb.portal.open_series(ds)
        shapes = []
        # Two bands of the same files: each file serves two different
        # subsets, and a fresh parse per request would read it twice.
        for lat in ((0.0, 45.0), (-45.0, 0.0)):
            resp = yield from series.fetch("tas", operation="subset",
                                           years=(lo, lo), lat=lat,
                                           lon=(0.0, 90.0))
            shapes.append(resp.dataset["tas"].data.shape)
        return shapes

    for ds in (disk_ds, tape_ds):
        shapes = tb.run_process(analyst(ds))
        assert len(set(shapes)) == 1
    server_side = {blob: n for blob, n in header_parses.items()
                   if blob in archive}
    assert len(server_side) >= 2, "no archive file was read by a plug-in"
    assert max(server_side.values()) == 1, sorted(server_side.values())


def _chunked_file(name="a.nc"):
    ds = Dataset("d", {})
    ds.add_coord("time", np.arange(4.0))
    ds.add_coord("lat", np.arange(8.0))
    ds.add_variable(Variable(
        "tas", ("time", "lat"), np.arange(32.0).reshape(4, 8), {}))
    blob = encode(ds, chunks={"time": 1, "lat": 4})
    return FileObject(name, float(len(blob)), blob)


def test_each_request_gets_its_own_decode_count(header_parses):
    f = _chunked_file()
    args = {"variable": "tas", "lat": (0.0, 3.0)}
    first = plugins.subset_plugin(f, args)
    again = plugins.subset_plugin(f, args)
    assert first == again
    assert plugins.subset_plugin.stage_prefix(f, args) is not None
    assert sum(header_parses.values()) == 1


def test_new_content_is_parsed_again(header_parses):
    f = _chunked_file()
    plugins.subset_plugin(f, {"variable": "tas"})
    other = _chunked_file()
    f.content = bytes(other.content)
    plugins.subset_plugin(f, {"variable": "tas"})
    assert sum(header_parses.values()) == 2


def test_malformed_content_raises_every_time():
    f = FileObject("bad.nc", 6.0, b"nosdbf")
    for _ in range(2):
        with pytest.raises(plugins.PluginError):
            plugins.subset_plugin(f, {"variable": "tas"})
    assert plugins.subset_plugin.stage_prefix(f, {"variable": "tas"}) is None
