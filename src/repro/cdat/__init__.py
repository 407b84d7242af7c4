"""CDAT: the Climate Data Analysis Tool layer (§3).

- :class:`CdatClient` — the CDMS-flavoured client: queries the metadata
  catalog, forwards logical file names to the request manager over the
  CORBA shim, decodes the delivered SDBF files, and concatenates them
  along time ("we have modified CDAT to access individual data files via
  the request manager. Analysis then proceeds in the client, as usual").
- ``repro.cdat.analysis`` — the analysis primitives a climate user
  runs after the fetch: time/zonal means, area-weighted global means,
  anomalies, seasonal cycles.
- ``repro.cdat.viz`` — VCDAT-style rendering (Figure 3) as ASCII field
  maps and profiles (the terminal is our canvas).
"""

from repro.cdat.analysis import (
    anomaly,
    concat_time,
    global_mean_series,
    seasonal_cycle,
    time_mean,
    zonal_mean,
)
from repro.cdat.client import AnalysisResult, CdatClient
from repro.cdat.portal import PortalClient, PortalResponse
from repro.cdat.viz import render_field, render_profile, render_timeseries

__all__ = [
    "AnalysisResult",
    "CdatClient",
    "PortalClient",
    "PortalResponse",
    "anomaly",
    "concat_time",
    "global_mean_series",
    "render_field",
    "render_profile",
    "render_timeseries",
    "seasonal_cycle",
    "time_mean",
    "zonal_mean",
]
