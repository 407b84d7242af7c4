"""Background (cross) traffic as link-load modulation.

The SC'2000 measurements were taken on shared infrastructure — the
SciNET floor network and the HSCC/NTON backbone carried every other
demo's traffic too ("we were only supposed to use 1.5 Gb/s" of the
OC-48). Cross traffic is what separates the *peak* rates (quiet floor)
from the *sustained* rate (busy floor) in Table 1.

:class:`LinkLoadModulator` models that load as a time-varying share of a
link's capacity taken by others, rather than as individual cross flows.
"""

from __future__ import annotations

import numpy as np

from repro.net.fluid import FluidNetwork
from repro.sim.core import Environment

# Clamp on the load fraction: others never quite vacate or completely
# saturate the pipe.
FLOOR = 0.05
CEILING = 0.97


class LinkLoadModulator:
    """Time-varying cross-load on one link, as residual capacity.

    Simulating every other demo's flows individually is prohibitively
    expensive at event scale, and per-flow max-min fairness would let a
    32-stream foreground dominate anyway (real floor TCP did not). The
    modulator instead samples the *fraction of the link consumed by
    others* as a mean-reverting AR(1) process and sets the link's usable
    capacity to the residual, reallocating foreground flows each step.

    Parameters
    ----------
    env, network:
        Simulation environment and fluid network.
    link:
        The shared link to modulate.
    mean_load:
        Long-run average cross-load fraction of nominal capacity.
    volatility:
        Standard deviation of the AR(1) innovations.
    correlation:
        AR(1) coefficient per step (0 = white noise, →1 = slow drift).
    interval:
        Seconds between load updates.

    The load fraction is clamped to [:data:`FLOOR`, :data:`CEILING`].
    """

    def __init__(self, env: Environment, network: FluidNetwork, link,
                 mean_load: float, rng: np.random.Generator,
                 volatility: float = 0.15, correlation: float = 0.85,
                 interval: float = 10.0):
        if not (0.0 <= mean_load <= 1.0):
            raise ValueError("mean_load must be in [0, 1]")
        if not (0.0 <= correlation < 1.0):
            raise ValueError("correlation must be in [0, 1)")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.network = network
        self.link = link
        self.mean_load = mean_load
        self.volatility = volatility
        self.correlation = correlation
        self.interval = interval
        self.rng = rng
        self.load = mean_load
        self.samples = 0
        self._running = False

    def start(self) -> None:
        """Begin modulating (idempotent)."""
        if not self._running:
            self._running = True
            self.env.process(self._run())

    def _step(self) -> None:
        noise = float(self.rng.normal(0.0, self.volatility))
        self.load = (self.correlation * self.load
                     + (1 - self.correlation) * self.mean_load + noise)
        self.load = float(np.clip(self.load, FLOOR, CEILING))
        self.samples += 1
        # Never resurrect a link held down/degraded by fault injection;
        # the modulator resumes writing once every hold is released.
        if getattr(self.link, "faulted", False):
            return
        self.link.capacity = self.link.nominal_capacity * (1.0 - self.load)
        # Component-scoped: an idle-floor tick (no foreground flows on
        # the modulated link) costs nothing; otherwise only the link's
        # component is recomputed.
        self.network.link_updated(self.link)

    def _run(self):
        while True:
            self._step()
            yield self.env.timeout(self.interval)
