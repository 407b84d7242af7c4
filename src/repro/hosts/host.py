"""The Host: internal bottlenecks materialized as topology links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hosts.cpu import CpuModel
from repro.hosts.disk import DiskArray
from repro.net.topology import Link, Topology
from repro.net.units import gbps


@dataclass
class HostSpec:
    """Hardware description of a workstation/server.

    Attributes
    ----------
    nic_rate:
        Line rate of one NIC, bytes/s.
    nic_count:
        Bonded NICs (SC'2000 cluster switches used dual-bonded GbE).
    bus_rate:
        PCI/memory bus ceiling, bytes/s (32-bit/33 MHz PCI ≈ 133 MB/s —
        the "remaining bottleneck" §7 mentions). ``None`` = not limiting.
    cpu:
        The CPU interrupt/copy model.
    disk:
        The attached disk array.
    """

    nic_rate: float = gbps(1)
    nic_count: int = 1
    bus_rate: Optional[float] = 133 * 2**20
    cpu: CpuModel = field(default_factory=CpuModel)
    disk: DiskArray = field(default_factory=DiskArray)

    def __post_init__(self) -> None:
        if self.nic_rate <= 0 or self.nic_count < 1:
            raise ValueError("nic_rate must be positive, nic_count >= 1")
        if self.bus_rate is not None and self.bus_rate <= 0:
            raise ValueError("bus_rate must be positive")

    @property
    def line_rate(self) -> float:
        """Aggregate NIC rate, capped by the bus."""
        rate = self.nic_rate * self.nic_count
        if self.bus_rate is not None:
            rate = min(rate, self.bus_rate)
        return rate


class Host:
    """A named endpoint wired into the topology.

    Creates nodes ``<name>`` (external attachment), ``host:<name>:app``
    (memory endpoint) and ``host:<name>:store`` (disk endpoint), joined
    by disk, CPU, and NIC links in each direction. Connect the host to a
    router with ``topology.duplex_link(host.node, router, ...)`` or
    :meth:`uplink`.

    Note: CPU capacity is modelled per direction (send and receive each
    get a full CPU). In every reproduced experiment hosts move data in
    one dominant direction, so this does not distort results.
    """

    def __init__(self, topology: Topology, name: str, site: str = "",
                 spec: Optional[HostSpec] = None):
        if name in topology.nodes:
            raise ValueError(f"node name {name!r} already in topology")
        self.topology = topology
        self.name = name
        self.site = site or name
        self.spec = spec or HostSpec()
        self.links: Dict[str, Link] = {}
        self._build()

    # -- node names ---------------------------------------------------------
    @property
    def node(self) -> str:
        """External attachment node (wire WAN links here)."""
        return self.name

    @property
    def app_node(self) -> str:
        """Memory endpoint (transfers that skip the disk)."""
        return f"host:{self.name}:app"

    @property
    def store_node(self) -> str:
        """Disk endpoint (disk-to-disk transfers start/end here)."""
        return f"host:{self.name}:store"

    # -- wiring ---------------------------------------------------------------
    def _build(self) -> None:
        t = self.topology
        for node in (self.node, self.app_node, self.store_node):
            t.add_node(node, site=self.site,
                       kind="host" if node == self.node else "internal")
        eps = 1e-6  # negligible internal latency
        spec = self.spec
        cpu_cap = spec.cpu.throughput_cap
        line = spec.line_rate
        pairs = [
            ("disk", self.store_node, self.app_node, spec.disk.rate),
            ("cpu", self.app_node, f"host:{self.name}:nic", cpu_cap),
            ("nic", f"host:{self.name}:nic", self.node, line),
        ]
        t.add_node(f"host:{self.name}:nic", site=self.site, kind="internal")
        for label, a, b, capacity in pairs:
            out = t.add_link(a, b, capacity, eps,
                             name=f"host:{self.name}:{label}:out")
            inn = t.add_link(b, a, capacity, eps,
                             name=f"host:{self.name}:{label}:in")
            out.site = self.site
            inn.site = self.site
            self.links[f"{label}:out"] = out
            self.links[f"{label}:in"] = inn

    def uplink(self, router: str, latency: float = 1e-4) -> None:
        """Connect the host's external node to a router at line rate."""
        fwd, rev = self.topology.duplex_link(
            self.node, router, self.spec.line_rate, latency,
            name=f"up:{self.name}:{router}")
        fwd.site = self.site
        rev.site = self.site
        self.links["uplink:out"] = fwd
        self.links["uplink:in"] = rev

    # -- dynamics --------------------------------------------------------------
    def set_coalescing(self, coalesce: int) -> None:
        """Change interrupt coalescing; CPU link capacities follow."""
        self.spec.cpu = self.spec.cpu.with_coalescing(coalesce)
        cap = self.spec.cpu.throughput_cap
        for direction in ("out", "in"):
            link = self.links[f"cpu:{direction}"]
            link.nominal_capacity = cap
            link.capacity = cap

    def __repr__(self) -> str:
        return (f"Host({self.name!r}, line={self.spec.line_rate * 8 / 1e9:.2f}"
                f"Gb/s, cpu_cap={self.spec.cpu.throughput_cap * 8 / 1e9:.2f}"
                f"Gb/s, disk={self.spec.disk.rate / 2**20:.0f}MB/s)")
