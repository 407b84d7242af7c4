"""Synthetic climate model output.

The paper's workload: "running a high-resolution ocean model ... can
generate a dozen multi-gigabyte files in a few hours"; PCMDI-style
archives hold many model runs, each a logical collection of thousands of
netCDF files. We generate physically plausible fields so the analysis
pipeline has something real to compute on:

- **tas** (surface air temperature, K): latitudinal gradient + seasonal
  cycle (hemisphere-antisymmetric) + weather noise;
- **pr** (precipitation, mm/day): ITCZ peak near the equator +
  mid-latitude storm tracks + noise, non-negative;
- **clt** (cloud fraction, %): humidity-correlated, clipped to [0, 100].

Two modes: *materialized* datasets carry real arrays (analysis &
visualization experiments); *catalog-only* file listings carry sizes
computed from the grid (multi-GB transfer experiments without the RAM).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.grids import GridSpec
from repro.data.ncformat import encode
from repro.data.variables import Dataset, Variable

KELVIN = 273.15

_VARIABLE_ATTRS = {
    "tas": {"units": "K", "long_name": "surface air temperature"},
    "pr": {"units": "mm/day", "long_name": "precipitation"},
    "clt": {"units": "%", "long_name": "total cloud fraction"},
}


@dataclass
class ClimateModelRun:
    """One simulated model run producing monthly-mean output files.

    Attributes
    ----------
    model:
        Model name, e.g. ``"NCAR_CSM"`` or ``"PCM"``.
    run:
        Run/ensemble label.
    grid:
        Output resolution.
    start_year:
        First simulated year.
    seed:
        Controls the stochastic weather component.
    """

    model: str = "NCAR_CSM"
    run: str = "run1"
    grid: GridSpec = field(default_factory=GridSpec)
    start_year: int = 1995
    seed: int = 0

    @property
    def dataset_id(self) -> str:
        """Canonical id, e.g. ``pcmdi.ncar_csm.run1`` (lowercased)."""
        return f"pcmdi.{self.model.lower()}.{self.run.lower()}"

    def _rng(self, year: int) -> np.random.Generator:
        # zlib.crc32, not hash(): string hashing is salted per process
        # (PYTHONHASHSEED), which would make "seeded" output differ
        # between runs.
        key = f"{self.model}|{self.run}|{self.seed}|{year}".encode()
        return np.random.default_rng(zlib.crc32(key))

    # -- field synthesis ----------------------------------------------------
    def generate_year(self, year: int,
                      variables: Tuple[str, ...] = ("tas", "pr", "clt")
                      ) -> Dataset:
        """Materialize one year of monthly means as a real Dataset."""
        g = self.grid
        rng = self._rng(year)
        lats = g.lats
        lons = g.lons
        months = np.arange(g.months)
        ds = Dataset(f"{self.dataset_id}.{year}", {
            "model": self.model, "run": self.run,
            "year": str(year), "source": "repro synthetic generator"})
        ds.add_coord("time", (year - self.start_year) + months / 12.0)
        ds.add_coord("lat", lats)
        ds.add_coord("lon", lons)
        lat3 = lats[None, :, None]
        mon3 = months[:, None, None]
        lon3 = lons[None, None, :]
        season = np.cos(2 * np.pi * (mon3 - 0.5) / 12.0)
        for name in variables:
            if name == "tas":
                base = KELVIN + 15.0 - 45.0 * np.sin(
                    np.deg2rad(lat3)) ** 2
                seasonal = 12.0 * season * np.sin(np.deg2rad(lat3)) * -1.0
                zonal = 2.0 * np.sin(np.deg2rad(lon3) * 3)
                noise = rng.normal(0.0, 1.5,
                                   (g.months, g.nlat, g.nlon))
                data = base + seasonal + zonal + noise
            elif name == "pr":
                itcz = 8.0 * np.exp(-(lat3 / 10.0) ** 2)
                storms = 3.0 * np.exp(-((np.abs(lat3) - 45.0) / 12.0) ** 2)
                wet = 0.5 * (1 + 0.3 * season)
                noise = rng.gamma(2.0, 0.5, (g.months, g.nlat, g.nlon))
                data = np.maximum((itcz + storms) * wet + noise - 1.0, 0.0)
            elif name == "clt":
                base = 55.0 + 20.0 * np.exp(-((np.abs(lat3) - 55.0)
                                              / 15.0) ** 2)
                tropics = 15.0 * np.exp(-(lat3 / 8.0) ** 2)
                noise = rng.normal(0.0, 8.0, (g.months, g.nlat, g.nlon))
                data = np.clip(base + tropics + noise, 0.0, 100.0)
            else:
                raise ValueError(f"unknown variable {name!r}")
            ds.add_variable(Variable(name, ("time", "lat", "lon"), data,
                                     _VARIABLE_ATTRS[name]))
        return ds

    def encode_year(self, year: int,
                    variables: Tuple[str, ...] = ("tas", "pr", "clt"),
                    chunks=None) -> bytes:
        """One year of output as SDBF bytes.

        ``chunks`` (dim name → chunk length, or one int) selects the
        chunked SDBF layout so servers can serve subsets by decoding
        only the touched chunks.
        """
        return encode(self.generate_year(year, variables), chunks=chunks)


def slice_months(year_ds: Dataset, month_lo: int, month_hi: int) -> Dataset:
    """Months [month_lo, month_hi] (1-based inclusive) of a
    :meth:`ClimateModelRun.generate_year` dataset, so one synthesized
    year can be cut into all of its files."""
    if not (1 <= month_lo <= month_hi <= len(year_ds.coords["time"])):
        raise ValueError(f"bad month range ({month_lo}, {month_hi})")
    sliced = Dataset(f"{year_ds.name}.m{month_lo:02d}-m{month_hi:02d}",
                     dict(year_ds.attrs))
    lo, hi = month_lo - 1, month_hi  # to 0-based half-open
    sliced.add_coord("time", year_ds.coords["time"][lo:hi])
    sliced.add_coord("lat", year_ds.coords["lat"])
    sliced.add_coord("lon", year_ds.coords["lon"])
    for name, var in year_ds.variables.items():
        sliced.add_variable(Variable(name, var.dims, var.data[lo:hi],
                                     dict(var.attrs)))
    return sliced


def monthly_files(run: ClimateModelRun, years: int,
                  variables: Tuple[str, ...] = ("tas", "pr", "clt"),
                  files_per_year: int = 12,
                  size_override: Optional[float] = None
                  ) -> List[Dict[str, object]]:
    """Catalog-only listing of a run's output files.

    Returns dicts with ``logical_name``, ``size`` (bytes), ``year``,
    ``month_range`` and ``variables`` — enough to populate metadata and
    replica catalogs without materializing arrays. ``size_override``
    forces a fixed file size (e.g. 2 GB striped-transfer test files).
    """
    if years < 1 or files_per_year < 1 or 12 % files_per_year != 0:
        raise ValueError("years >= 1 and files_per_year must divide 12")
    months_per_file = 12 // files_per_year
    per_file_grid = GridSpec(run.grid.nlat, run.grid.nlon, months_per_file)
    size = (size_override if size_override is not None
            else float(per_file_grid.field_bytes(len(variables))))
    out: List[Dict[str, object]] = []
    for y in range(years):
        year = run.start_year + y
        for i in range(files_per_year):
            m0 = i * months_per_file + 1
            m1 = m0 + months_per_file - 1
            out.append({
                "logical_name": (f"{run.dataset_id}.{year}."
                                 f"m{m0:02d}-m{m1:02d}.nc"),
                "size": size,
                "year": year,
                "month_range": (m0, m1),
                "variables": tuple(variables),
            })
    return out
