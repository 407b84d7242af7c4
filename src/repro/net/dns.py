"""A toy name service with outage windows.

Figure 8 of the paper attributes one of the bandwidth drops to "DNS
problems" on the SC'2000 floor; to reproduce that failure mode, hostname
resolution is a first-class simulated step that can be made to fail for a
scheduled period.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.core import Environment

# Seconds per successful (or failed) resolution.
LOOKUP_LATENCY = 0.01


class DnsError(Exception):
    """Hostname resolution failed (unknown name or outage)."""


class NameService:
    """Maps hostnames to topology node names, with simulated latency.

    Parameters
    ----------
    env:
        Simulation environment.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._records: Dict[str, str] = {}
        self._outages: List[Tuple[float, float]] = []
        self.lookups = 0  # instrumentation
        self.failures = 0

    def register(self, hostname: str, node_name: str) -> None:
        """Add (or replace) an A-record."""
        self._records[hostname] = node_name

    def add_outage(self, start: float, duration: float) -> None:
        """Resolution fails during [start, start+duration)."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        self._outages.append((start, start + duration))

    def is_down(self, t: float) -> bool:
        """True if the service is in an outage window at time ``t``."""
        return any(a <= t < b for a, b in self._outages)

    def resolve(self, hostname: str):
        """Simulation process: resolve ``hostname`` to a node name.

        Yields the lookup latency, then returns the node name, or raises
        :class:`DnsError` on unknown names or during an outage window.
        """
        self.lookups += 1
        yield self.env.timeout(LOOKUP_LATENCY)
        if self.is_down(self.env.now):
            self.failures += 1
            raise DnsError(f"DNS outage at t={self.env.now:.1f}s "
                           f"(resolving {hostname!r})")
        node = self._records.get(hostname)
        if node is None:
            self.failures += 1
            raise DnsError(f"unknown host {hostname!r}")
        return node

    def __contains__(self, hostname: str) -> bool:
        return hostname in self._records
