"""SDBF: a self-describing binary format in the netCDF-classic spirit.

Layout::

    bytes 0-3   magic  b"SDBF"
    bytes 4-7   version (u32 little-endian)
    bytes 8-11  header length H (u32)
    bytes 12-.. UTF-8 JSON header: dataset name/attrs, coordinates
                (name, length, dtype, offset), variables (name, dims,
                shape, dtype, attrs, offset)
    then        raw little-endian array payloads at the stated offsets

Version 1 stores every array as one contiguous run ("flat"). Version 2
("chunked") tiles each variable over a per-variable chunk grid: the
header carries the chunk shape plus a row-major ``chunk_index`` of
``[offset, nbytes]`` extents, one per chunk, and each chunk is the
C-order bytes of its sub-block. Coordinates stay whole in both
versions — they are the first payloads after the header, so any reader
can map coordinate ranges to chunk sets from a short file prefix.

The header is readable without the payload — :func:`decode_header` is
what a metadata scanner (or a DODS-style subsetting server) uses to
answer structural queries cheaply. :class:`SdbfReader` goes one step
further: it decodes only the chunks a requested index slab touches, so
a server-side subsetting plug-in pays for the bytes it reads, not the
bytes the file stores.
"""

from __future__ import annotations

import itertools
import json
import struct
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.variables import Dataset, Variable

MAGIC = b"SDBF"
VERSION = 1
CHUNKED_VERSION = 2
HEADER_FIXED = 12  # magic + version + header length

#: Inclusive (lo, hi) index bounds per axis; None = the whole axis.
IndexBounds = Sequence[Optional[Tuple[int, int]]]


class FormatError(Exception):
    """Not an SDBF byte stream, or a corrupt one."""


def _chunk_shape_for(shape: Sequence[int],
                     chunks: Mapping[str, int],
                     dims: Sequence[str]) -> Tuple[int, ...]:
    """Per-axis chunk lengths for one variable (full extent if unset)."""
    out = []
    for dim, size in zip(dims, shape):
        c = int(chunks.get(dim, size or 1))
        if c < 1:
            raise FormatError(f"chunk length for {dim!r} must be >= 1")
        out.append(min(c, size) if size else 1)
    return tuple(out)


def _axis_tiles(size: int, chunk: int) -> List[slice]:
    """The chunk slices along one axis (one empty tile if ``size`` is 0)."""
    return [slice(start, start + chunk)
            for start in range(0, max(size, 1), chunk)]


def encode(dataset: Dataset,
           chunks: Optional[Union[int, Mapping[str, int]]] = None) -> bytes:
    """Serialize a :class:`Dataset` to SDBF bytes.

    With ``chunks`` (dim name → chunk length, or one int for every
    dim), variables are tiled into the version-2 chunked layout so a
    reader can decode an index slab without touching the rest of the
    payload. Without it the flat version-1 layout is produced,
    byte-identical to earlier releases.
    """
    if isinstance(chunks, int):
        chunks = {dim: chunks for dim in dataset.coords}
    payload_parts: List[bytes] = []
    offset = 0
    coords_hdr = {}
    for name, coord in dataset.coords.items():
        raw = np.asarray(coord, dtype="<f8").tobytes()
        coords_hdr[name] = {"length": int(len(coord)), "dtype": "<f8",
                            "offset": offset}
        payload_parts.append(raw)
        offset += len(raw)
    vars_hdr = {}
    for name, var in dataset.variables.items():
        data = np.asarray(var.data, dtype="<f8")
        meta = {"dims": list(var.dims),
                "shape": [int(s) for s in var.shape],
                "dtype": "<f8"}
        if chunks is None:
            raw = data.tobytes()
            meta["offset"] = offset
            payload_parts.append(raw)
            offset += len(raw)
        else:
            chunk_shape = _chunk_shape_for(var.shape, chunks, var.dims)
            index = []
            # One tile list per axis; their product is the row-major grid.
            for box in itertools.product(*map(_axis_tiles, var.shape,
                                              chunk_shape)):
                raw = data[box].tobytes()
                index.append([offset, len(raw)])
                payload_parts.append(raw)
                offset += len(raw)
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
            + header + b"".join(payload_parts))


def decode_header(blob: bytes) -> Dict:
    """Parse only the JSON header (cheap structural inspection)."""
    if len(blob) < HEADER_FIXED or blob[:4] != MAGIC:
        raise FormatError("not an SDBF stream")
    version, hlen = struct.unpack("<II", blob[4:HEADER_FIXED])
    if version not in (VERSION, CHUNKED_VERSION):
        raise FormatError(f"unsupported SDBF version {version}")
    if len(blob) < HEADER_FIXED + hlen:
        raise FormatError("truncated header")
    try:
        return json.loads(blob[HEADER_FIXED:HEADER_FIXED + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt header: {exc}") from exc


def decode(blob: bytes) -> Dataset:
    """Deserialize SDBF bytes (either layout) back into a Dataset."""
    reader = SdbfReader(blob)
    ds = Dataset(reader.name, dict(reader.attrs))
    for name in reader.header.get("coords", {}):
        ds.add_coord(name, reader.coord(name))
    for name, meta in reader.header.get("variables", {}).items():
        ds.add_variable(Variable(name, tuple(meta["dims"]),
                                 reader.read_variable(name),
                                 meta.get("attrs", {})))
    return ds


class SdbfReader:
    """Random access into one SDBF blob, flat or chunked.

    Tracks :attr:`bytes_decoded` — every payload byte actually turned
    into an array — so callers can cost-model partial reads. The JSON
    header is parsed at construction and not counted. Each variable's
    ``chunk_index`` is then held as one ``(n, 2)`` int64 array, a sixth
    of the parsed lists' size.
    """

    def __init__(self, blob: bytes):
        self.header = decode_header(blob)
        for meta in self.header.get("variables", {}).values():
            if "chunk_index" in meta:
                meta["chunk_index"] = np.array(
                    meta["chunk_index"], dtype=np.int64).reshape(-1, 2)
        self.version, hlen = struct.unpack("<II", blob[4:HEADER_FIXED])
        self.data_offset = HEADER_FIXED + hlen
        self._payload = memoryview(blob)[self.data_offset:]
        self.bytes_decoded = 0.0
        self._coord_cache: Dict[str, np.ndarray] = {}

    # -- structure ---------------------------------------------------------
    @property
    def name(self) -> str:
        return self.header["name"]

    @property
    def attrs(self) -> Dict:
        return self.header.get("attrs", {})

    @property
    def is_chunked(self) -> bool:
        return self.version == CHUNKED_VERSION

    def variable_meta(self, name: str) -> Dict:
        meta = self.header.get("variables", {}).get(name)
        if meta is None:
            raise FormatError(f"no variable {name!r} in SDBF header")
        return meta

    # -- payload access ------------------------------------------------------
    def _array_at(self, offset: int, count: int) -> np.ndarray:
        nbytes = count * 8
        if offset + nbytes > len(self._payload):
            raise FormatError("truncated payload")
        self.bytes_decoded += nbytes
        return np.frombuffer(self._payload, dtype="<f8", count=count,
                             offset=offset).copy()

    def coord(self, name: str) -> np.ndarray:
        """One coordinate axis, decoded whole (cached per reader)."""
        cached = self._coord_cache.get(name)
        if cached is not None:
            return cached
        meta = self.header.get("coords", {}).get(name)
        if meta is None:
            raise FormatError(f"no coordinate {name!r} in SDBF header")
        arr = self._array_at(meta["offset"], meta["length"])
        self._coord_cache[name] = arr
        return arr

    def read_variable(self, name: str) -> np.ndarray:
        """One variable, decoded whole (both layouts)."""
        meta = self.variable_meta(name)
        shape = tuple(meta["shape"])
        if "chunk_index" not in meta:
            count = int(np.prod(shape)) if shape else 1
            return self._array_at(meta["offset"], count).reshape(shape)
        bounds = [(0, s - 1) for s in shape]
        return self.read_slab(name, bounds)

    def read_slab(self, name: str, bounds: IndexBounds) -> np.ndarray:
        """The bounding-box slab covering inclusive index ``bounds``.

        Decodes only the chunks the slab touches (chunked layout); a
        flat variable falls back to decoding the whole array and
        slicing, charging the full variable to :attr:`bytes_decoded`.
        """
        meta = self.variable_meta(name)
        shape = tuple(meta["shape"])
        lo_hi = self._clip_bounds(shape, bounds)
        box = tuple(slice(lo, hi + 1) for lo, hi in lo_hi)
        if "chunk_index" not in meta:
            count = int(np.prod(shape)) if shape else 1
            whole = self._array_at(meta["offset"], count).reshape(shape)
            return np.ascontiguousarray(whole[box])
        index = meta["chunk_index"]
        out = np.empty(tuple(hi - lo + 1 for lo, hi in lo_hi),
                       dtype=np.float64)
        for tiles in itertools.product(*self._plan(meta, lo_hi)):
            # A 0-D variable is one chunk with no axes.
            at, extents, src, dst = zip(*tiles) if tiles else ((),) * 4
            offset, nbytes = index[sum(at)]
            chunk = self._array_at(int(offset),
                                   int(nbytes) // 8).reshape(extents)
            out[dst] = chunk[src]
        return out

    def touched_chunk_bytes(self, name: str, bounds: IndexBounds) -> float:
        """Payload bytes of the chunks an index slab intersects."""
        meta = self.variable_meta(name)
        shape = tuple(meta["shape"])
        lo_hi = self._clip_bounds(shape, bounds)
        if "chunk_index" not in meta:
            return float(int(np.prod(shape)) * 8) if shape else 8.0
        total = 0.0
        for i in self._touched(meta, lo_hi):
            total += float(meta["chunk_index"][i][1])
        return total

    def needed_prefix(self, name: str, bounds: IndexBounds
                      ) -> Optional[float]:
        """Absolute byte prefix of the blob that covers the request.

        The header, every coordinate, and every chunk the slab touches
        all end at or before the returned offset, so staging that many
        bytes suffices to serve the slab. ``None`` for flat layouts —
        a flat variable is one run and offers no partial-read savings
        beyond its own extent, which the whole-file path handles.
        """
        meta = self.variable_meta(name)
        if "chunk_index" not in meta:
            return None
        shape = tuple(meta["shape"])
        lo_hi = self._clip_bounds(shape, bounds)
        end = 0.0
        for cmeta in self.header.get("coords", {}).values():
            end = max(end, cmeta["offset"] + cmeta["length"] * 8)
        for i in self._touched(meta, lo_hi):
            offset, nbytes = meta["chunk_index"][i]
            end = max(end, float(offset) + float(nbytes))
        return self.data_offset + end

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _clip_bounds(shape: Tuple[int, ...],
                     bounds: IndexBounds) -> List[Tuple[int, int]]:
        if len(bounds) != len(shape):
            raise FormatError(f"{len(bounds)} bounds for "
                              f"{len(shape)}-D variable")
        out = []
        for size, b in zip(shape, bounds):
            lo, hi = (0, size - 1) if b is None else (int(b[0]), int(b[1]))
            if not (0 <= lo <= hi < size):
                raise FormatError(f"bad index bounds {b} for axis of "
                                  f"length {size}")
            out.append((lo, hi))
        return out

    @staticmethod
    def _plan(meta: Dict, lo_hi: List[Tuple[int, int]]) -> List[List]:
        """Per axis, the chunks an index slab touches (grid indices
        ``lo // c .. hi // c``) as ``(row-major index term, extent,
        source slice, destination slice)``."""
        axes = []
        stride = 1
        for size, c, (lo, hi) in reversed(list(zip(meta["shape"],
                                                    meta["chunks"], lo_hi))):
            tiles = []
            for g in range(lo // c, hi // c + 1):
                cs = g * c
                a, b = max(cs, lo), min(cs + c - 1, hi)
                tiles.append((g * stride, min(c, size - cs),
                              slice(a - cs, b - cs + 1),
                              slice(a - lo, b - lo + 1)))
            axes.append(tiles)
            stride *= -(-size // c)
        axes.reverse()
        return axes

    @classmethod
    def _touched(cls, meta: Dict, lo_hi: List[Tuple[int, int]]):
        """Row-major ``chunk_index`` positions of the touched chunks."""
        terms = [[t[0] for t in tiles] for tiles in cls._plan(meta, lo_hi)]
        return map(sum, itertools.product(*terms))

    def __repr__(self) -> str:
        kind = "chunked" if self.is_chunked else "flat"
        return (f"SdbfReader({self.name!r}, {kind}, "
                f"{len(self.header.get('variables', {}))} vars)")
