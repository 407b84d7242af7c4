"""Per-axis chunk tiling and slab planning against the brute-force scan.

``encode`` tiles each variable from per-axis slice lists and
``SdbfReader`` visits only the chunk-index ranges a slab touches; the
reference in ``tests/data/reference_chunks.py`` walks every chunk. On
seeded random datasets (1-4-D, zero-length axes, uneven edges, int and
per-dim ``chunks``, dims left out of the map) the bytes, the decoded
arrays and every byte count must agree exactly.
"""

import random

import numpy as np
import pytest

from repro.data import FormatError, SdbfReader, encode
from repro.data.variables import Dataset, Variable
from tests.data.reference_chunks import (
    reference_encode,
    scan_needed_prefix,
    scan_read_slab,
    scan_touched_chunk_bytes,
)

CASES = 240


def random_case(seed: int):
    """A random dataset plus a ``chunks`` spec for it."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    ndim = rng.randint(1, 4)
    dims = [f"d{i}" for i in range(ndim)]
    sizes = [0 if rng.random() < 0.08 else rng.randint(1, 9) for _ in dims]
    ds = Dataset(f"case{seed}", {"seed": str(seed)})
    for dim, size in zip(dims, sizes):
        ds.add_coord(dim, np.arange(size) * 0.5 + seed)
    for v in range(rng.randint(1, 3)):
        # Each variable spans a random ordered subset of the dims.
        vdims = rng.sample(dims, rng.randint(1, ndim))
        shape = tuple(sizes[dims.index(d)] for d in vdims)
        kind = rng.choice(["f8", "f4", "int", "big", "view"])
        if kind == "int":
            data = nprng.integers(-50, 50, shape)
        elif kind == "view":
            # A transposed (non-contiguous) view of the same shape.
            data = nprng.normal(size=shape[::-1]).T
        else:
            data = nprng.normal(size=shape).astype(
                {"f8": "<f8", "f4": "<f4", "big": ">f8"}[kind])
        ds.add_variable(Variable(f"v{v}", tuple(vdims), data,
                                 {"k": kind}))
    if rng.random() < 0.3:
        chunks = rng.randint(1, 5)
    else:
        chunks = {d: rng.randint(1, max(1, s) + 2) for d, s in
                  zip(dims, sizes) if rng.random() < 0.75}
    return ds, chunks, rng


def random_bounds(rng: random.Random, shape):
    bounds = []
    for size in shape:
        if rng.random() < 0.2:
            bounds.append(None)
        else:
            lo = rng.randrange(size)
            bounds.append((lo, rng.randint(lo, size - 1)))
    return bounds


@pytest.mark.parametrize("seed", range(CASES))
def test_encode_and_slab_plans_match_the_per_chunk_scan(seed):
    ds, chunks, rng = random_case(seed)
    assert encode(ds) == reference_encode(ds)
    blob = encode(ds, chunks=chunks)
    assert blob == reference_encode(ds, chunks=chunks)
    for name, var in ds.variables.items():
        if 0 in var.shape:
            with pytest.raises(FormatError):
                SdbfReader(blob).read_slab(name, [None] * var.data.ndim)
            continue
        for _ in range(4):
            bounds = random_bounds(rng, var.shape)
            fast, scan = SdbfReader(blob), SdbfReader(blob)
            got = fast.read_slab(name, bounds)
            want = scan_read_slab(scan, name, bounds)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert fast.bytes_decoded == scan.bytes_decoded
            assert (fast.touched_chunk_bytes(name, bounds)
                    == scan_touched_chunk_bytes(scan, name, bounds))
            assert (fast.needed_prefix(name, bounds)
                    == scan_needed_prefix(scan, name, bounds))


def test_zero_dimensional_variable_is_one_chunk():
    ds = Dataset("scalar")
    ds.add_coord("t", [1.0, 2.0])
    ds.add_variable(Variable("s", (), np.array(3.5)))
    blob = encode(ds, chunks=1)
    assert blob == reference_encode(ds, chunks=1)
    fast, scan = SdbfReader(blob), SdbfReader(blob)
    assert fast.read_variable("s") == scan_read_slab(scan, "s", []) == 3.5
    assert fast.bytes_decoded == scan.bytes_decoded == 8.0
    assert fast.touched_chunk_bytes("s", []) == 8.0
    assert fast.needed_prefix("s", []) == scan_needed_prefix(scan, "s", [])
