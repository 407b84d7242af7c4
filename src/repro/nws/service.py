"""The NWS service: sensors → forecasters → MDS publication."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nws.forecasters import AdaptiveForecaster
from repro.nws.sensors import NetworkSensor, ProbeResult
from repro.net.fluid import FluidNetwork
from repro.obs import Counter, Family, Gauge, Observability
from repro.sim.core import Environment

# Per-probe metric families (obs.children).
_MEASUREMENTS = Family(Counter, "nws.measurements_total", "src", "dst")
_FORECAST_BW = Family(Gauge, "nws.forecast_bandwidth_bytes", "src", "dst")
_FORECAST_LAT = Family(Gauge, "nws.forecast_latency_seconds", "src", "dst")


@dataclass(frozen=True)
class Forecast:
    """A bandwidth/latency forecast for one (src, dst) pair."""

    src: str
    dst: str
    bandwidth: float     # bytes/s
    latency: float       # one-way seconds
    measured_at: float   # simulated time of the last measurement
    samples: int


class NetworkWeatherService:
    """Monitors node pairs and serves adaptive forecasts.

    Parameters
    ----------
    env, network:
        Simulation environment and fluid network.
    mds:
        Optional :class:`repro.mds.MdsService`; forecasts are published
        there after every measurement, since "NWS information is
        accessed by the MDS information service" (§5).
    """

    def __init__(self, env: Environment, network: FluidNetwork,
                 mds=None, rng: Optional[np.random.Generator] = None,
                 obs=None):
        self.env = env
        self.network = network
        self.mds = mds
        self.rng = rng
        self.obs = obs or Observability()
        self.sensors: Dict[Tuple[str, str], NetworkSensor] = {}
        self._bw: Dict[Tuple[str, str], AdaptiveForecaster] = {}
        self._lat: Dict[Tuple[str, str], AdaptiveForecaster] = {}
        self._last: Dict[Tuple[str, str], ProbeResult] = {}
        self._counts: Dict[Tuple[str, str], int] = {}

    # -- monitoring -------------------------------------------------------
    def monitor(self, src: str, dst: str,
                start: bool = True) -> NetworkSensor:
        """Begin periodic monitoring of a path."""
        key = (src, dst)
        if key in self.sensors:
            return self.sensors[key]
        sensor = NetworkSensor(self.env, self.network, src, dst,
                               rng=self.rng)
        self.sensors[key] = sensor
        self._bw[key] = AdaptiveForecaster()
        self._lat[key] = AdaptiveForecaster()
        self._counts[key] = 0
        if start:
            self.env.process(sensor.run(self._ingest))
        return sensor

    def _ingest(self, key: Tuple[str, str], result: ProbeResult) -> None:
        self._bw[key].update(result.bandwidth)
        self._lat[key].update(result.latency)
        self._last[key] = result
        self._counts[key] += 1
        forecast = self.forecast(*key)
        children = self.obs.children
        children[_MEASUREMENTS, key[0], key[1]].inc()
        if forecast is not None:
            children[_FORECAST_BW, key[0], key[1]].set(forecast.bandwidth)
            children[_FORECAST_LAT, key[0], key[1]].set(forecast.latency)
        if self.mds is not None:
            self.mds.publish_nws(key[0], key[1], forecast)

    def observe(self, src: str, dst: str, bandwidth: float,
                latency: float) -> None:
        """Feed an external measurement (e.g. from a completed transfer).

        Real deployments fold application transfer logs into NWS series;
        the request manager uses this to learn from its own transfers.
        """
        key = (src, dst)
        if key not in self._bw:
            self.monitor(src, dst, start=False)
        self._ingest(key, ProbeResult(self.env.now, bandwidth, latency))

    # -- queries ------------------------------------------------------------
    def forecast(self, src: str, dst: str) -> Optional[Forecast]:
        """Current forecast for a pair, or None if never measured."""
        key = (src, dst)
        bw = self._bw.get(key)
        bandwidth = None if bw is None else bw.predict()
        if bandwidth is None:
            return None
        return Forecast(src=src, dst=dst,
                        bandwidth=float(bandwidth),
                        latency=float(self._lat[key].predict()),
                        measured_at=self._last[key].t,
                        samples=self._counts[key])

    def monitored_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """All (src, dst) pairs with sensors."""
        return tuple(self.sensors)

    def __repr__(self) -> str:
        return (f"NetworkWeatherService({len(self.sensors)} sensors, "
                f"mds={'yes' if self.mds else 'no'})")
