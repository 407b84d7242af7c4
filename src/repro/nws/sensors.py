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
# Seconds between probes (NWS era-typical: tens of seconds to minutes).
PERIOD = 30.0
# Probe transfer size (64 KB, like NWS).
PROBE_BYTES = 64 * 1024.0
# Probe abandonment threshold; a timed-out probe reports 0 bandwidth
# (the path is effectively down).
TIMEOUT = 10.0


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
    rng:
        Noise source for latency jitter.

    A probe moves :data:`PROBE_BYTES` every :data:`PERIOD` seconds and
    is abandoned after :data:`TIMEOUT` seconds.
    """

    def __init__(self, env: Environment, network: FluidNetwork,
                 src: str, dst: str,
                 rng: Optional[np.random.Generator] = None):
        self.env = env
        self.network = network
        self.src = src
        self.dst = dst
        self.rng = rng
        self.probes_sent = 0
        self.probes_timed_out = 0

    def probe_once(self):
        """Simulation process: one measurement; returns ProbeResult."""
        env = self.env
        self.probes_sent += 1
        started = env.now
        flow = self.network.transfer(self.src, self.dst, PROBE_BYTES,
                                     name=f"nws:{self.src}->{self.dst}")
        yield env.wait_for(flow.done, TIMEOUT)
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
        return ProbeResult(env.now, PROBE_BYTES / elapsed, latency)

    def run(self, sink):
        """Simulation process: probe forever, reporting to ``sink``.

        ``sink(series_key, result)`` is called per measurement. Probes
        start after a deterministic phase derived from the endpoint
        names, so that a fleet of sensors sharing a link does not fire
        in lockstep and measure each other.
        """
        # Stable across processes (unlike builtin hash()).
        import hashlib
        digest = hashlib.md5(f"{self.src}->{self.dst}".encode()).digest()
        phase = (digest[0] * 256 + digest[1]) / 65536.0 * PERIOD
        if phase > 0:
            yield self.env.timeout(phase)
        while True:
            result = yield from self.probe_once()
            sink((self.src, self.dst), result)
            yield self.env.timeout(PERIOD)
