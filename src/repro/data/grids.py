"""Regular lat/lon/time grids for synthetic model output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """A regular global grid.

    Attributes
    ----------
    nlat, nlon:
        Grid points in latitude/longitude. T42-era atmosphere models ran
        ~64×128; eddy-resolving ocean models (the intro's example) far
        finer.
    months:
        Time steps (monthly means) per file.
    """

    nlat: int = 64
    nlon: int = 128
    months: int = 12

    def __post_init__(self) -> None:
        if min(self.nlat, self.nlon, self.months) < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def lats(self) -> np.ndarray:
        """Latitude centers, degrees north, south → north."""
        step = 180.0 / self.nlat
        return np.linspace(-90 + step / 2, 90 - step / 2, self.nlat)

    @property
    def lons(self) -> np.ndarray:
        """Longitude centers, degrees east in [0, 360)."""
        step = 360.0 / self.nlon
        return np.arange(self.nlon) * step + step / 2

    @property
    def points_per_field(self) -> int:
        """Grid points in one 2-D field."""
        return self.nlat * self.nlon

    @property
    def bytes_per_variable(self) -> int:
        """Payload of one (time, lat, lon) float64 variable."""
        return self.months * self.points_per_field * 8

    def field_bytes(self, n_variables: int) -> int:
        """Approximate file size holding ``n_variables`` variables."""
        coords = (self.nlat + self.nlon + self.months) * 8
        return n_variables * self.bytes_per_variable + coords
