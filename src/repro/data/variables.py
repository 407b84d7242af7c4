"""In-memory datasets: named dimensions, variables, attributes, subsetting."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np


class DataError(Exception):
    """Inconsistent dataset structure or invalid subset request."""


class Variable:
    """A multidimensional variable with named dimensions.

    Parameters
    ----------
    name:
        Variable name, e.g. ``"tas"`` (surface air temperature).
    dims:
        Dimension names, one per axis of ``data``.
    data:
        The array (converted to float64 unless already floating).
    attrs:
        Descriptive attributes, e.g. units and long_name.
    """

    def __init__(self, name: str, dims: Tuple[str, ...], data: np.ndarray,
                 attrs: Optional[Mapping[str, str]] = None):
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(np.float64)
        if len(dims) != data.ndim:
            raise DataError(f"variable {name!r}: {len(dims)} dims for "
                            f"{data.ndim}-D data")
        self.name = name
        self.dims = tuple(dims)
        self.data = data
        self.attrs: Dict[str, str] = dict(attrs or {})

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, dims={self.dims}, shape={self.shape})"


class Dataset:
    """A set of variables sharing coordinate dimensions.

    Coordinates are 1-D variables whose name equals their dimension
    (``time``, ``lat``, ``lon``); data variables reference them by name.
    """

    def __init__(self, name: str, attrs: Optional[Mapping[str, str]] = None):
        self.name = name
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.coords: Dict[str, np.ndarray] = {}
        self.variables: Dict[str, Variable] = {}

    # -- construction -----------------------------------------------------
    def add_coord(self, name: str, values: Iterable[float]) -> "Dataset":
        """Register a coordinate axis."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                         else values, dtype=np.float64)
        if arr.ndim != 1:
            raise DataError(f"coordinate {name!r} must be 1-D")
        self.coords[name] = arr
        return self

    def add_variable(self, var: Variable) -> "Dataset":
        """Add a data variable (its dims must match registered coords)."""
        for dim, size in zip(var.dims, var.shape):
            coord = self.coords.get(dim)
            if coord is None:
                raise DataError(f"variable {var.name!r} uses unregistered "
                                f"dimension {dim!r}")
            if len(coord) != size:
                raise DataError(
                    f"variable {var.name!r}: dim {dim!r} has {size} points, "
                    f"coordinate has {len(coord)}")
        self.variables[var.name] = var
        return self

    # -- access -------------------------------------------------------------
    def __getitem__(self, name: str) -> Variable:
        var = self.variables.get(name)
        if var is None:
            raise DataError(f"dataset {self.name!r} has no variable {name!r}")
        return var

    def __contains__(self, name: str) -> bool:
        return name in self.variables

    @property
    def nbytes(self) -> int:
        """Total array payload (variables + coordinates)."""
        return (sum(v.nbytes for v in self.variables.values())
                + sum(int(c.nbytes) for c in self.coords.values()))

    # -- subsetting ------------------------------------------------------------
    def subset(self, variable: str,
               **ranges: Tuple[float, float]) -> "Dataset":
        """Extract one variable over coordinate ranges.

        ``ranges`` maps dimension name → (lo, hi) inclusive coordinate
        bounds, e.g. ``ds.subset("tas", lat=(-30, 30), time=(0, 5))``.
        Returns a new dataset holding the sliced variable and coords.
        """
        var = self[variable]
        out = Dataset(f"{self.name}:{variable}", dict(self.attrs))
        indexers = []
        for dim in var.dims:
            coord = self.coords[dim]
            if dim in ranges:
                lo, hi = ranges[dim]
                if lo > hi:
                    raise DataError(f"empty range for {dim!r}: {lo} > {hi}")
                mask = (coord >= lo) & (coord <= hi)
                if not mask.any():
                    raise DataError(f"range {ranges[dim]} selects nothing "
                                    f"on {dim!r}")
                idx = np.where(mask)[0]
            else:
                idx = np.arange(len(coord))
            indexers.append(idx)
            out.add_coord(dim, coord[idx])
        unknown = set(ranges) - set(var.dims)
        if unknown:
            raise DataError(f"{variable!r} has no dims {sorted(unknown)}")
        sliced = var.data[np.ix_(*indexers)] if indexers else var.data
        out.add_variable(Variable(var.name, var.dims, sliced,
                                  dict(var.attrs)))
        return out

    def __repr__(self) -> str:
        return (f"Dataset({self.name!r}, vars={sorted(self.variables)}, "
                f"coords={ {k: len(v) for k, v in self.coords.items()} })")
