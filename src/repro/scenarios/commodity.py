"""The Figure 8 reliability experiment over commodity internet.

§7: "The hardware configuration for this experiment consisted of a Linux
workstation with a 100 Mbs NIC transferring a 2 GB file repeatedly to a
similar workstation at Argonne National Laboratory in Chicago, via
commodity internet access. ... aggregate parallel bandwidth for a period
of approximately fourteen hours ... parallel (multiple TCP stream)
transfers using varying levels of parallelism, up to a maximum of eight
streams. ... Bandwidth between the two hosts reaches approximately
80 Mbs, somewhat lower than achieved in previous experiments, most
likely due to disk bandwidth limitations. [The graph] shows drops in
performance due to various network problems, including a power failure
for the SC network (SCinet), DNS problems, and backbone problems on the
exhibition floor. Because the GridFTP protocol supports restart of
failed transfers, the interrupted transfers continued as soon as the
network was restored. ... The frequent drop in bandwidth to relatively
low levels occurs because the GridFTP implementation used at SC'2000
destroys and rebuilds its TCP connections between consecutive
transfers."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.gridftp.protocol import GridFtpConfig, GridFtpError
from repro.hosts.cpu import CpuModel
from repro.hosts.disk import DiskArray, DiskSpec
from repro.hosts.host import Host, HostSpec
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.recorder import RateSeries, aggregate_series
from repro.net.units import GB, MB, mbps
from repro.netlogger.analysis import FaultWindow, extract_fault_windows
from repro.netlogger.log import NetLogger
from repro.obs import Observability
from repro.scenarios.testbed import Testbed
from repro.storage.filesystem import FileSystem

HOURS = 3600.0
COMMODITY_CAPACITY = mbps(155)     # the shared Dallas→Chicago path
# Background loss events per second per stream on the commodity path.
LOSS_RATE = 0.05
# A bin below this fraction of the plateau counts as an outage bin.
OUTAGE_FRACTION = 0.1


def default_fault_schedule() -> FaultSchedule:
    """The incident timeline of Figure 8 (hours into the run):

    - ~2.5 h: SCinet power failure (whole Dallas site dark, ~25 min);
    - ~6 h: DNS problems (~20 min);
    - ~9.5 h: backbone problems on the exhibition floor (the link limps
      at 15% for ~40 min).
    """
    return (FaultSchedule()
            .site_outage("dallas", start=2.5 * HOURS, duration=1500.0,
                         description="SCinet power failure")
            .dns_outage(start=6.0 * HOURS, duration=1200.0,
                        description="DNS problems")
            .degrade("commodity:fwd", start=9.5 * HOURS, duration=2400.0,
                     fraction=0.15,
                     description="backbone problems on the floor"))


def default_parallelism_schedule() -> List[Tuple[float, int]]:
    """(start_time, streams) steps: mostly modest parallelism, with the
    late-run increases the paper points out ("toward the right side of
    the graph, we see several temporary increases in aggregate
    bandwidth, due to increased levels of parallelism")."""
    return [(0.0, 2), (4.0 * HOURS, 4), (8.0 * HOURS, 2),
            (11.0 * HOURS, 8), (12.5 * HOURS, 4)]


@dataclass
class Figure8Result:
    """The Figure 8 data: a binned bandwidth timeline plus events."""

    bin_times: np.ndarray
    bin_rates: np.ndarray          # bytes/s per bin
    transfers_completed: int
    transfers_failed: int
    total_bytes: float
    restarts: int
    faults: List[FaultWindow]
    series: List[RateSeries] = field(default_factory=list)

    @property
    def plateau_rate(self) -> float:
        """90th-percentile bin rate — the 'reaches approximately X'
        number (bytes/s)."""
        return float(np.percentile(self.bin_rates, 90))

    def outage_bins(self) -> int:
        """Bins below ``OUTAGE_FRACTION`` of the plateau."""
        return int(np.sum(self.bin_rates
                          < OUTAGE_FRACTION * self.plateau_rate))


class CommodityTestbed(Testbed):
    """One Dallas workstation → one ANL workstation, commodity path.

    Parameters
    ----------
    seed:
        Random seed.
    disk_rate:
        Source/destination disk rate; the 10 MB/s default makes disk the
        bottleneck (~80 Mb/s), as the paper observed.
    one_way_latency:
        Dallas→Chicago commodity latency (~12 ms one-way).
    """

    def __init__(self, seed: int = 0, disk_rate: float = 10 * 2**20,
                 one_way_latency: float = 0.012):
        super().__init__(seed, "commodity", ca_name="Globus CA",
                         user_subject="/CN=anl-user", crypto_time=0.15,
                         aggregation_threshold=None)
        env = self.env
        ws_spec = HostSpec(
            nic_rate=mbps(100), bus_rate=None,
            cpu=CpuModel(coalesce=8),
            disk=DiskArray(DiskSpec(rate=disk_rate), count=1))
        self.src_host = Host(self.topology, "dallas-ws", site="dallas",
                             spec=ws_spec)
        self.dst_host = Host(self.topology, "anl-ws", site="anl",
                             spec=ws_spec)
        self.src_host.uplink("r-dallas")
        self.dst_host.uplink("r-anl")
        self.topology.duplex_link("r-dallas", "r-anl",
                                  COMMODITY_CAPACITY, one_way_latency,
                                  name="commodity")
        self.src_fs = FileSystem(env, "dallas-fs")
        self.src_fs.create("big-2gb.dat", 2 * GB)
        self.server = self.add_server(self.src_host, self.src_fs,
                                      "dallas-ws.scinet")
        self.client = self.user_client()
        self.dst_fs = FileSystem(env, "anl-fs")
        self.logger = NetLogger(env, host="anl-ws", prog="gridftp")
        self.injector = FaultInjector(env, self.network, self.dns,
                                      obs=Observability(logger=self.logger))


def run_figure8_schedule(testbed: CommodityTestbed,
                         duration: float = 14 * HOURS,
                         faults: Optional[FaultSchedule] = None,
                         parallelism: Optional[List[Tuple[float, int]]]
                         = None,
                         bin_seconds: float = 120.0) -> Figure8Result:
    """Repeat 2 GB transfers for ``duration`` seconds under faults.

    Every transfer tears its session and data channels down and the next
    one re-authenticates, as at SC'2000 (the frequent dips).
    """
    env = testbed.env
    if faults is None:
        faults = default_fault_schedule()
    if parallelism is None:
        parallelism = default_parallelism_schedule()
    testbed.injector.install(faults)
    all_series: List[RateSeries] = []
    counts = {"done": 0, "failed": 0, "restarts": 0, "bytes": 0.0}

    def streams_at(t: float) -> int:
        current = parallelism[0][1]
        for start, n in parallelism:
            if t >= start:
                current = n
        return current

    def driver():
        copy = 0
        while env.now < duration:
            n = streams_at(env.now)
            cfg = GridFtpConfig(parallelism=n, buffer_bytes=1 * MB,
                                stall_timeout=30.0, retry_backoff=10.0,
                                retry_limit=1000, loss_rate=LOSS_RATE)
            try:
                session = yield from testbed.client.connect(
                    testbed.dst_host, "dallas-ws.scinet", cfg)
            except GridFtpError:
                # DNS outage or dead path at connect time: retry soon.
                counts["failed"] += 1
                testbed.logger.event("transfer.connect_failed",
                                     t=env.now)
                yield env.timeout(30.0)
                continue
            copy += 1
            testbed.logger.event("transfer.start", copy=copy, streams=n)
            try:
                stats = yield from session.get(
                    "big-2gb.dat", testbed.dst_fs, testbed.dst_host,
                    dest_name=f"copy{copy}.dat", config=cfg, record=True)
            except GridFtpError:
                counts["failed"] += 1
                testbed.logger.event("transfer.failed", copy=copy)
                session.close()
                continue
            session.close()
            testbed.client.channel_cache.drain()
            all_series.extend(stats.series)
            counts["done"] += 1
            counts["restarts"] += stats.restarts
            counts["bytes"] += stats.transferred_bytes
            testbed.logger.event("transfer.end", copy=copy,
                                 bytes=f"{stats.transferred_bytes:.0f}",
                                 restarts=stats.restarts)

    p = env.process(driver())
    env.run(until=duration)
    # Bin the aggregate series over exactly [0, duration].
    agg = aggregate_series(all_series) if all_series else None
    edges = np.arange(0.0, duration + bin_seconds, bin_seconds)
    if agg is not None:
        cum = agg.cumulative_bytes(edges)
        rates = np.diff(cum) / np.diff(edges)
    else:  # pragma: no cover - nothing transferred
        rates = np.zeros(len(edges) - 1)
    return Figure8Result(
        bin_times=edges[:-1], bin_rates=rates,
        transfers_completed=counts["done"],
        transfers_failed=counts["failed"],
        total_bytes=counts["bytes"],
        restarts=counts["restarts"],
        faults=extract_fault_windows(testbed.logger),
        series=all_series)
