"""VCDAT-style visualization, terminal edition (Figure 3).

The prototype rendered temperature/cloud fields in a GUI; here fields
become ASCII intensity maps with a scale bar, profiles become sparklines.
The point is that the *data pipeline* up to the renderer is identical.
"""

from __future__ import annotations

import numpy as np

_RAMP = " .:-=+*#%@"
# Characters of the longest bar of a profile.
PROFILE_WIDTH = 48


def _normalize(field: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(field)), float(np.max(field))
    if hi <= lo:
        return np.zeros_like(field)
    return (field - lo) / (hi - lo)


def render_field(field: np.ndarray, title: str = "",
                 units: str = "", width: int = 72,
                 height: int = 24) -> str:
    """An ASCII intensity map of a (lat, lon) field.

    Latitude rows print north-up; the field is resampled to
    ``height``×``width`` characters; a value scale annotates the ramp.
    """
    if field.ndim != 2:
        raise ValueError(f"need a 2-D field, got {field.ndim}-D")
    nlat, nlon = field.shape
    rows = np.clip((np.linspace(0, nlat - 1, height)).astype(int),
                   0, nlat - 1)
    cols = np.clip((np.linspace(0, nlon - 1, width)).astype(int),
                   0, nlon - 1)
    sampled = field[np.ix_(rows, cols)]
    norm = _normalize(sampled)
    idx = np.clip((norm * (len(_RAMP) - 1)).astype(int), 0,
                  len(_RAMP) - 1)
    lines = []
    if title:
        lines.append(title)
    # North at the top: latitude axis is south→north in our grids.
    for r in reversed(range(height)):
        lines.append("".join(_RAMP[i] for i in idx[r]))
    lo, hi = float(np.min(field)), float(np.max(field))
    lines.append(f"scale: '{_RAMP[0]}'={lo:.2f} .. "
                 f"'{_RAMP[-1]}'={hi:.2f} {units}".rstrip())
    return "\n".join(lines)


def render_profile(values: np.ndarray, coords: np.ndarray,
                   title: str = "") -> str:
    """A horizontal-bar profile (e.g. zonal mean vs latitude), bars up
    to ``PROFILE_WIDTH`` characters."""
    values = np.asarray(values, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if values.shape != coords.shape:
        raise ValueError("values and coords must align")
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    lines = [title] if title else []
    for c, v in zip(coords[::-1], values[::-1]):  # north at the top
        bar = "#" * int(round((v - lo) / span * PROFILE_WIDTH))
        lines.append(f"{c:7.1f} | {bar} {v:.2f}")
    return "\n".join(lines)


def render_timeseries(values: np.ndarray, title: str = "",
                      units: str = "", height: int = 10) -> str:
    """A column plot of a 1-D series (e.g. global-mean timeline), one
    column per value."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a non-empty 1-D series")
    norm = _normalize(values)
    levels = np.clip((norm * (height - 1)).round().astype(int), 0,
                     height - 1)
    lines = [title] if title else []
    for row in reversed(range(height)):
        lines.append("".join("*" if lv >= row else " " for lv in levels))
    lines.append(f"min={values.min():.2f} max={values.max():.2f} "
                 f"{units}".rstrip())
    return "\n".join(lines)
