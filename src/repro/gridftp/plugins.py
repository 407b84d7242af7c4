"""Standard server-side processing (ERET) plug-ins.

§6.1: "Server side processing that allows for the inclusion of user
written code that can process the data prior to transmission or
storage. Partial file retrieval is included by default."

§9 (ESG-II): "distribution of data analysis and visualization
pipelines, so that some data analysis operations (at least extraction
and subsetting, similar to those available with DODS) can be performed
local to the data before it is transferred over the network."

These plug-ins give GridFTP servers exactly that: SDBF-aware
subsetting and time reduction executed at the data, so only the
derived product crosses the WAN. Extraction is a subset with no
coordinate ranges: it ships one variable with all its coordinates.

Each standard plug-in returns ``(derived_size, derived_content,
bytes_decoded)`` — the third element is how many source bytes it had
to turn into arrays, which the server charges as decode CPU time.
Chunked SDBF files (``repro.data.ncformat`` version 2) are served by
decoding only the chunks the request touches; flat files decode whole.
User plug-ins may still return plain 2-tuples; the server then charges
a whole-file decode.

A plug-in may also carry a ``stage_prefix(file, args)`` attribute: the
byte prefix of the file that suffices to serve the request (``None``
when the whole file is needed). The server uses it to start tape
cut-through at the request's chunk set instead of waiting for the
entire file to stage.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.ncformat import FormatError, SdbfReader, decode, encode
from repro.data.variables import DataError, Dataset, Variable
from repro.storage.filesystem import FileObject


class PluginError(Exception):
    """A server-side processing step failed."""


def _require_reader(file: FileObject) -> SdbfReader:
    if file.content is None:
        raise PluginError(f"{file.name}: no content to process "
                          f"(size-only synthetic file)")
    try:
        return SdbfReader(file.content)
    except FormatError as exc:
        raise PluginError(f"{file.name}: not an SDBF file: {exc}") from exc


def _require_dataset(file: FileObject) -> Dataset:
    """Whole-file decode (the flat-SDBF path)."""
    if file.content is None:
        raise PluginError(f"{file.name}: no content to process "
                          f"(size-only synthetic file)")
    try:
        return decode(file.content)
    except Exception as exc:
        raise PluginError(f"{file.name}: not an SDBF file: {exc}") from exc


def _range_indexers(reader: SdbfReader, variable: str, ranges: Dict,
                    op: str) -> Tuple[Tuple[str, ...], List[np.ndarray]]:
    """Per-dim index arrays for coordinate ranges, with clean errors.

    Mirrors :meth:`Dataset.subset` exactly so the chunked fast path
    produces bit-identical derived products.
    """
    try:
        meta = reader.variable_meta(variable)
    except FormatError as exc:
        raise PluginError(f"{op}: {exc}") from exc
    dims = tuple(meta["dims"])
    unknown = set(ranges) - set(dims)
    if unknown:
        raise PluginError(f"{op}: {variable!r} has no dims "
                          f"{sorted(unknown)}")
    indexers: List[np.ndarray] = []
    for dim in dims:
        coord = reader.coord(dim)
        if dim in ranges:
            lo, hi = ranges[dim]
            if lo > hi:
                raise PluginError(f"{op}: empty range for {dim!r}: "
                                  f"{lo} > {hi}")
            mask = (coord >= lo) & (coord <= hi)
            if not mask.any():
                raise PluginError(f"{op}: range {tuple(ranges[dim])} "
                                  f"selects nothing on {dim!r}")
            indexers.append(np.where(mask)[0])
        else:
            indexers.append(np.arange(len(coord)))
    return dims, indexers


def subset_plugin(file: FileObject,
                  args: dict) -> Tuple[float, bytes, float]:
    """Coordinate-range subsetting, DODS-style, at the server.

    ``args``: ``{"variable": name, "<dim>": (lo, hi), ...}``. Returns
    the re-encoded subset. Chunked files decode only the chunks the
    requested ranges touch.
    """
    variable = args.get("variable")
    if not variable:
        raise PluginError("subset: 'variable' argument required")
    ranges = {k: tuple(v) for k, v in args.items() if k != "variable"}
    reader = _require_reader(file)
    if not reader.is_chunked:
        ds = _require_dataset(file)
        try:
            sub = ds.subset(variable, **ranges)
        except DataError as exc:
            raise PluginError(f"subset: {exc}") from exc
        blob = encode(sub)
        return float(len(blob)), blob, float(len(file.content))
    dims, indexers = _range_indexers(reader, variable, ranges, "subset")
    meta = reader.variable_meta(variable)
    bounds = [(int(idx[0]), int(idx[-1])) for idx in indexers]
    slab = reader.read_slab(variable, bounds)
    out = Dataset(f"{reader.name}:{variable}", dict(reader.attrs))
    for dim, idx in zip(dims, indexers):
        out.add_coord(dim, reader.coord(dim)[idx])
    sel = np.ix_(*[idx - lo for idx, (lo, _) in zip(indexers, bounds)])
    out.add_variable(Variable(variable, dims, slab[sel],
                              dict(meta.get("attrs", {}))))
    blob = encode(out)
    return float(len(blob)), blob, float(reader.bytes_decoded)


def time_mean_plugin(file: FileObject,
                     args: dict) -> Tuple[float, bytes, float]:
    """Reduce over time at the server: ship a single mean field.

    The strongest data-reduction case: a year of monthly fields becomes
    one field (≈12× smaller), computed where the data lives.
    """
    variable = args.get("variable")
    if not variable:
        raise PluginError("time_mean: 'variable' argument required")
    reader = _require_reader(file)
    try:
        meta = reader.variable_meta(variable)
    except FormatError:
        raise PluginError(f"time_mean: no variable {variable!r}") from None
    dims = tuple(meta["dims"])
    if "time" not in dims:
        raise PluginError(f"time_mean: {variable!r} has no time axis")
    if not reader.is_chunked:
        ds = _require_dataset(file)
        var = ds[variable]
        data = var.data
        attrs = dict(var.attrs)
        ds_name, ds_attrs = ds.name, dict(ds.attrs)
        coords = ds.coords
        decoded = float(len(file.content))
    else:
        data = reader.read_variable(variable)
        attrs = dict(meta.get("attrs", {}))
        ds_name, ds_attrs = reader.name, dict(reader.attrs)
        coords = {dim: reader.coord(dim) for dim in dims if dim != "time"}
        decoded = float(reader.bytes_decoded)
    axis = dims.index("time")
    mean = data.mean(axis=axis)
    out = Dataset(f"{ds_name}:{variable}:tmean", ds_attrs)
    kept_dims = tuple(d for d in dims if d != "time")
    for dim in kept_dims:
        out.add_coord(dim, coords[dim])
    out.add_variable(Variable(variable, kept_dims, mean, attrs))
    blob = encode(out)
    return float(len(blob)), blob, decoded


# -- staging planners ----------------------------------------------------------
def _planned_bounds(reader: SdbfReader, variable: str,
                    ranges: Dict) -> Optional[list]:
    dims, indexers = _range_indexers(reader, variable, ranges, "plan")
    return [(int(idx[0]), int(idx[-1])) for idx in indexers]


def _subset_stage_prefix(file: FileObject, args: dict) -> Optional[float]:
    """Byte prefix that covers a subset request (None = whole file)."""
    try:
        reader = SdbfReader(file.content)
        variable = args.get("variable")
        ranges = {k: tuple(v) for k, v in args.items() if k != "variable"}
        bounds = _planned_bounds(reader, variable, ranges)
        return reader.needed_prefix(variable, bounds)
    except Exception:
        return None


def _variable_stage_prefix(file: FileObject,
                           args: dict) -> Optional[float]:
    """Byte prefix covering one whole variable (time_mean)."""
    try:
        reader = SdbfReader(file.content)
        variable = args.get("variable")
        shape = tuple(reader.variable_meta(variable)["shape"])
        bounds = [(0, s - 1) for s in shape]
        return reader.needed_prefix(variable, bounds)
    except Exception:
        return None


subset_plugin.stage_prefix = _subset_stage_prefix
time_mean_plugin.stage_prefix = _variable_stage_prefix


STANDARD_PLUGINS = {
    "subset": subset_plugin,
    "time_mean": time_mean_plugin,
}


def install_standard_plugins(server) -> None:
    """Register the standard plug-in set on a GridFTP server."""
    for name, plugin in STANDARD_PLUGINS.items():
        server.register_plugin(name, plugin)
