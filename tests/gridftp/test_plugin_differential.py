"""Differential property: chunked SDBF serves bit-identical products.

For any dataset shape, chunk geometry, and coordinate selection, the
subset / extract / time_mean plug-ins must produce byte-identical
derived blobs from the flat and chunked encodings of the same data —
the chunked fast path is an optimization, never a semantics change.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import encode
from repro.data.variables import Dataset, Variable
from repro.gridftp.plugins import (
    PluginError,
    subset_plugin,
    time_mean_plugin,
)
from repro.storage import FileObject


@st.composite
def dataset_and_chunks(draw):
    nt = draw(st.integers(1, 6))
    nlat = draw(st.integers(1, 9))
    nlon = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ds = Dataset("prop", {"case": "differential"})
    ds.add_coord("time", np.arange(nt, dtype=float))
    ds.add_coord("lat", np.linspace(-80.0, 80.0, nlat))
    ds.add_coord("lon", np.linspace(0.0, 350.0, nlon))
    ds.add_variable(Variable("tas", ("time", "lat", "lon"),
                             rng.normal(280.0, 10.0, (nt, nlat, nlon)),
                             {"units": "K"}))
    chunks = {"time": draw(st.integers(1, nt + 2)),
              "lat": draw(st.integers(1, nlat + 2)),
              "lon": draw(st.integers(1, nlon + 2))}
    lat = ds.coords["lat"]
    lo = draw(st.integers(0, nlat - 1))
    hi = draw(st.integers(lo, nlat - 1))
    ranges = {"lat": (float(lat[lo]), float(lat[hi]))}
    return ds, chunks, ranges


@settings(max_examples=60, deadline=None)
@given(dataset_and_chunks())
def test_chunked_equals_flat_bit_identical(case):
    ds, chunks, ranges = case
    flat_blob = encode(ds)
    chunked_blob = encode(ds, chunks=chunks)
    flat = FileObject("f.nc", len(flat_blob), content=flat_blob)
    chunked = FileObject("c.nc", len(chunked_blob), content=chunked_blob)

    for plugin, args in [
        (subset_plugin, {"variable": "tas", **ranges}),
        (subset_plugin, {"variable": "tas"}),
        (time_mean_plugin, {"variable": "tas"}),
    ]:
        try:
            size_f, blob_f, dec_f = plugin(flat, dict(args))
        except PluginError as exc_f:
            # Whatever the flat path rejects, the chunked path must
            # reject the same way.
            try:
                plugin(chunked, dict(args))
            except PluginError:
                continue
            raise AssertionError(
                f"flat raised {exc_f!r} but chunked succeeded")
        size_c, blob_c, dec_c = plugin(chunked, dict(args))
        assert blob_f == blob_c, plugin.__name__
        assert size_f == size_c == len(blob_f)
        # The fast path never decodes more than the whole file.
        assert 0 <= dec_c <= len(chunked_blob)
        assert dec_f == len(flat_blob)
