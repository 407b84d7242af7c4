"""Network Weather Service (NWS).

§5: "NWS is a distributed system that periodically monitors and
dynamically forecasts the performance that various network and
computational resources can deliver over a given time interval; it
forecasts process-to-process network performance (latency and bandwidth)
and available CPU percentage for each machine that it monitors." The
request manager ranks replicas by network forecasts only, so this
package models the network half.

- ``repro.nws.forecasters`` — the forecaster suite: last-value, running
  mean, sliding-window mean, median, exponential smoothing, and the
  adaptive meta-forecaster that tracks each method's error and answers
  with the current best (Wolski's NWS design).
- ``repro.nws.sensors`` — periodic active probes over the simulated
  network (small transfers timed end-to-end, so probes see outages,
  congestion, and share bandwidth like any other traffic).
- ``repro.nws.service`` — wires sensors to per-series forecasters and
  publishes forecasts into the MDS information service, which is where
  the request manager reads them ("NWS information is accessed by the
  MDS information service").
"""

from repro.nws.forecasters import (
    AdaptiveForecaster,
    ExpSmoothingForecaster,
    Forecaster,
    LastValueForecaster,
    MedianForecaster,
    RunningMeanForecaster,
    SlidingMeanForecaster,
)
from repro.nws.sensors import NetworkSensor, ProbeResult
from repro.nws.service import Forecast, NetworkWeatherService

__all__ = [
    "AdaptiveForecaster",
    "ExpSmoothingForecaster",
    "Forecast",
    "Forecaster",
    "LastValueForecaster",
    "MedianForecaster",
    "NetworkSensor",
    "NetworkWeatherService",
    "ProbeResult",
    "RunningMeanForecaster",
    "SlidingMeanForecaster",
]
