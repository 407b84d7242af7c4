"""Fluid-flow wide-area network model.

The network is a graph of :class:`Link` objects with capacity (bits/s) and
latency. Data movement is modelled at *flow* granularity: each active flow
receives a rate from a progressive-filling max-min fair allocator
(:class:`FluidNetwork`), subject to a per-flow cap contributed by the TCP
window model (:class:`TcpStream`) and to the capacities of every link on
its path. Host-internal bottlenecks (NIC, CPU interrupt servicing, bus,
disk) are modelled as additional links on the path, so contention at any
layer falls out of the same allocator.

Rates are piecewise-constant between flow events; every flow records its
``(t, rate)`` breakpoints, and :class:`RateRecorder` computes exact
windowed peaks and sustained averages from those breakpoints (this is how
the Table 1 "peak over 0.1 s / 5 s / sustained 1 h" figures are produced).
"""

from repro.net.units import (
    GB,
    GIGABIT,
    KB,
    KILOBIT,
    MB,
    MEGABIT,
    TB,
    gbps,
    mbps,
    to_gbps,
    to_mbps,
)
from repro.net.topology import Link, Node, Topology
from repro.net.recorder import RateRecorder, RateSeries, aggregate_series
from repro.net.fluid import Flow, FlowError, FluidNetwork
from repro.net.tcp import TcpParams, TcpStream, bdp_buffer_size
from repro.net.transport import Connection, ConnectionRefused, Transport
from repro.net.background import LinkLoadModulator
from repro.net.dns import DnsError, NameService
from repro.net.faults import Fault, FaultInjector, FaultSchedule

__all__ = [
    "GB", "GIGABIT", "KB", "KILOBIT", "MB", "MEGABIT", "TB",
    "gbps", "mbps", "to_gbps", "to_mbps",
    "Link", "Node", "Topology",
    "RateRecorder", "RateSeries", "aggregate_series",
    "LinkLoadModulator",
    "Flow", "FlowError", "FluidNetwork",
    "TcpParams", "TcpStream", "bdp_buffer_size",
    "Connection", "ConnectionRefused", "Transport",
    "DnsError", "NameService",
    "Fault", "FaultInjector", "FaultSchedule",
]
