"""Active measurement sensors.

The bandwidth sensor times a real (small) transfer through the fluid
network, so its measurements automatically reflect congestion, host
bottlenecks, and outages — and, like real NWS probes, consume a little
bandwidth themselves. The latency sensor reads the path RTT with
measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.fluid import FluidNetwork
from repro.sim.core import Environment

# Standard deviation of the relative latency jitter a probe reports.
JITTER_FRACTION = 0.05


@dataclass(frozen=True)
class ProbeResult:
    """One sensor reading."""

    t: float
    bandwidth: float          # bytes/s (0 when the probe timed out)
    latency: float            # one-way seconds
    timed_out: bool = False


class NetworkSensor:
    """Periodic bandwidth/latency probe between two topology nodes.

    Parameters
    ----------
    env, network:
        Simulation environment and fluid network.
    src, dst:
        Topology node names the probe runs between.
    period:
        Seconds between probes (NWS default era-typical: tens of seconds
        to minutes).
    probe_bytes:
        Probe transfer size (64 KB default, like NWS).
    timeout:
        Probe abandonment threshold; a timed-out probe reports 0
        bandwidth (the path is effectively down).
    rng:
        Noise source for latency jitter.
    """

    def __init__(self, env: Environment, network: FluidNetwork,
                 src: str, dst: str, period: float = 30.0,
                 probe_bytes: float = 64 * 1024.0, timeout: float = 10.0,
                 rng: Optional[np.random.Generator] = None):
        if period <= 0 or probe_bytes <= 0 or timeout <= 0:
            raise ValueError("period, probe_bytes, timeout must be positive")
        self.env = env
        self.network = network
        self.src = src
        self.dst = dst
        self.period = period
        self.probe_bytes = probe_bytes
        self.timeout = timeout
        self.rng = rng
        self.probes_sent = 0
        self.probes_timed_out = 0

    def probe_once(self):
        """Simulation process: one measurement; returns ProbeResult."""
        env = self.env
        self.probes_sent += 1
        started = env.now
        flow = self.network.transfer(self.src, self.dst, self.probe_bytes,
                                     name=f"nws:{self.src}->{self.dst}")
        deadline = env.timeout(self.timeout)
        yield env.any_of([flow.done, deadline])
        rtt = self.network.topology.rtt(self.src, self.dst)
        latency = rtt / 2.0
        if self.rng is not None:
            latency *= 1.0 + abs(self.rng.normal(0, JITTER_FRACTION))
        if not flow.done.processed:
            flow.abort("probe timeout")
            flow.done.defuse()
            self.probes_timed_out += 1
            return ProbeResult(env.now, 0.0, latency, timed_out=True)
        # Fluid flows carry no propagation delay, so elapsed time is pure
        # transfer time and the rate estimate is exact.
        elapsed = max(env.now - started, 1e-9)
        return ProbeResult(env.now, self.probe_bytes / elapsed, latency)

    def run(self, sink, phase: Optional[float] = None):
        """Simulation process: probe forever, reporting to ``sink``.

        ``sink(series_key, result)`` is called per measurement. Probes
        start after ``phase`` seconds (default: a deterministic offset
        derived from the endpoint names) so that a fleet of sensors
        sharing a link does not fire in lockstep and measure each other.
        """
        if phase is None:
            # Stable across processes (unlike builtin hash()).
            import hashlib
            digest = hashlib.md5(
                f"{self.src}->{self.dst}".encode()).digest()
            phase = (digest[0] * 256 + digest[1]) / 65536.0 * self.period
        if phase > 0:
            yield self.env.timeout(phase)
        while True:
            result = yield from self.probe_once()
            sink((self.src, self.dst), result)
            yield self.env.timeout(self.period)
