"""Brute-force chunk planner: the oracle for the chunked SDBF layout.

``repro.data.ncformat`` tiles a variable from per-axis slice lists and
plans a slab read from per-axis chunk-index ranges. This module keeps
the plain per-chunk forms those replaced: walk every chunk of the grid
in row-major order, encode each block on its own, and test each chunk
against the slab. ``tests/data/test_chunk_planner.py`` checks the two
agree byte for byte and count for count.
"""

from __future__ import annotations

import itertools
import json
import struct
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.ncformat import (
    CHUNKED_VERSION,
    MAGIC,
    VERSION,
    SdbfReader,
    _chunk_shape_for,
)
from repro.data.variables import Dataset


def iter_chunks(shape: Sequence[int], chunk_shape: Sequence[int]):
    """Yield ``(starts, extents)`` per chunk, row-major over the grid."""
    counts = [max(1, -(-s // c)) for s, c in zip(shape, chunk_shape)]
    for grid in itertools.product(*(range(n) for n in counts)):
        starts = tuple(g * c for g, c in zip(grid, chunk_shape))
        extents = tuple(min(c, s - st)
                        for c, s, st in zip(chunk_shape, shape, starts))
        yield starts, extents


def touches(starts: Tuple[int, ...], extents: Tuple[int, ...],
            lo_hi: List[Tuple[int, int]]) -> bool:
    """Whether one chunk intersects the inclusive slab ``lo_hi``."""
    return all(cs <= hi and cs + ce - 1 >= lo
               for cs, ce, (lo, hi) in zip(starts, extents, lo_hi))


def reference_encode(dataset: Dataset,
                     chunks: Optional[Union[int, Mapping[str, int]]] = None
                     ) -> bytes:
    """SDBF bytes built one array (or one chunk block) at a time."""
    if isinstance(chunks, int):
        chunks = {dim: chunks for dim in dataset.coords}
    parts: List[bytes] = []
    offset = 0

    def append(arr: np.ndarray) -> int:
        nonlocal offset
        raw = np.ascontiguousarray(arr).astype("<f8").tobytes()
        parts.append(raw)
        start = offset
        offset += len(raw)
        return start

    coords_hdr = {}
    for name, coord in dataset.coords.items():
        coords_hdr[name] = {"length": int(len(coord)), "dtype": "<f8",
                            "offset": append(coord)}
    vars_hdr = {}
    for name, var in dataset.variables.items():
        meta = {"dims": list(var.dims),
                "shape": [int(s) for s in var.shape],
                "dtype": "<f8"}
        if chunks is None:
            meta["offset"] = append(var.data)
        else:
            chunk_shape = _chunk_shape_for(var.shape, chunks, var.dims)
            index = []
            for starts, extents in iter_chunks(var.shape, chunk_shape):
                block = var.data[tuple(slice(s, s + e)
                                       for s, e in zip(starts, extents))]
                start = append(block)
                index.append([start, offset - start])
            meta["chunks"] = list(chunk_shape)
            meta["chunk_index"] = index
        meta["attrs"] = dict(var.attrs)
        vars_hdr[name] = meta
    version = VERSION if chunks is None else CHUNKED_VERSION
    header = json.dumps({
        "name": dataset.name,
        "attrs": dict(dataset.attrs),
        "coords": coords_hdr,
        "variables": vars_hdr,
    }).encode()
    return (MAGIC + struct.pack("<II", version, len(header))
            + header + b"".join(parts))


def _scan(reader: SdbfReader, name: str, bounds):
    """Every chunk of a chunked variable that the slab touches, in
    row-major order, as ``(index entry, starts, extents)``."""
    meta = reader.variable_meta(name)
    shape = tuple(meta["shape"])
    lo_hi = reader._clip_bounds(shape, bounds)
    for i, (starts, extents) in enumerate(
            iter_chunks(shape, tuple(meta["chunks"]))):
        if touches(starts, extents, lo_hi):
            yield meta["chunk_index"][i], starts, extents


def scan_read_slab(reader: SdbfReader, name: str, bounds) -> np.ndarray:
    """``SdbfReader.read_slab`` of a chunked variable, chunk by chunk."""
    lo_hi = reader._clip_bounds(tuple(reader.variable_meta(name)["shape"]),
                                bounds)
    out = np.empty(tuple(hi - lo + 1 for lo, hi in lo_hi), dtype=np.float64)
    for (offset, nbytes), starts, extents in _scan(reader, name, bounds):
        chunk = reader._array_at(int(offset),
                                 int(nbytes) // 8).reshape(extents)
        src, dst = [], []
        for cs, ce, (lo, hi) in zip(starts, extents, lo_hi):
            a, b = max(cs, lo), min(cs + ce - 1, hi)
            src.append(slice(a - cs, b - cs + 1))
            dst.append(slice(a - lo, b - lo + 1))
        out[tuple(dst)] = chunk[tuple(src)]
    return out


def scan_touched_chunk_bytes(reader: SdbfReader, name: str,
                             bounds) -> float:
    """``SdbfReader.touched_chunk_bytes`` of a chunked variable."""
    total = 0.0
    for (_offset, nbytes), _s, _e in _scan(reader, name, bounds):
        total += float(nbytes)
    return total


def scan_needed_prefix(reader: SdbfReader, name: str, bounds) -> float:
    """``SdbfReader.needed_prefix`` of a chunked variable."""
    end = 0.0
    for cmeta in reader.header.get("coords", {}).values():
        end = max(end, cmeta["offset"] + cmeta["length"] * 8)
    for (offset, nbytes), _s, _e in _scan(reader, name, bounds):
        end = max(end, float(offset) + float(nbytes))
    return reader.data_offset + end
