"""The SC'2000 SciNET striped-transfer experiment (Figure 7 / Table 1).

Hardware, per §7: "eight Linux workstations, in Dallas, Texas, sending
data across the wide area network to eight workstations (four Linux,
four Solaris), at Lawrence Berkeley National Laboratory ... All
workstations had gigabit Ethernet NICs and the cluster switches were
connected via dual bonded gigabit Ethernet to the exit routers. Wide
area network traffic went through the nationwide HSCC and NTON
infrastructure ... and finally across an OC48 connection" — 2.5 Gb/s,
"although we were only supposed to use 1.5 Gb/s". Latencies were
10–20 ms; buffers were set to 1 MB; interrupt coalescing was on, with
the CPU near 100%; software RAID kept disk out of the way.

Schedule, per §7: a 2 GB file partitioned across the eight Dallas
workstations, four copies of each partition; "on each server machine, a
new transfer of a copy of the file partition was initiated after 25% of
the previous transfer was complete. Each new transfer created a new TCP
stream. At any time, there were up to four simultaneous TCP streams
transferring data from each server" (≤32 total).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.gridftp.client import TransferHandle
from repro.gridftp.protocol import GridFtpConfig, GridFtpError
from repro.gridftp.server import GridFtpServer
from repro.hosts.cpu import CpuModel
from repro.hosts.disk import DiskArray, DiskSpec
from repro.hosts.host import Host, HostSpec
from repro.net.background import LinkLoadModulator
from repro.net.recorder import RateSeries
from repro.net.units import GB, MB, gbps
from repro.netlogger.analysis import BandwidthSummary, summarize
from repro.scenarios.testbed import Testbed
from repro.storage.filesystem import FileSystem

# The SC'2000 configuration.
N_HOSTS = 8                   # workstations per cluster
# Nominal OC-48 capacity (the 1.5 Gb/s "allowance" was an agreement,
# not an enforced clamp — peaks reached 1.55 Gb/s).
OC48_CAPACITY = gbps(2.5)
# Mean fraction of the OC-48 consumed by the rest of the exhibition
# floor (cross traffic), modulated stochastically by
# :class:`repro.net.LinkLoadModulator`. This is what separates the peak
# numbers (quiet moments) from the sustained average.
FLOOR_LOAD = 0.82
ONE_WAY_LATENCY = 0.007       # WAN propagation: 10–20 ms RTT
# Interrupt coalescing factor ("we were, in fact, using interrupt
# coalescing at SC"; jumbo frames were unavailable, so the CPU still
# topped out well below GbE line rate).
COALESCING = 2
# Random-loss events per second per stream on the shared path.
LOSS_RATE = 0.15
PARTITION_BYTES = 2 * GB / N_HOSTS    # each server's share of the file
COPIES_PER_SERVER = 4         # concurrent partition copies per server


@dataclass
class Table1Result:
    """Everything Table 1 reports, plus the raw series."""

    striped_servers_src: int
    striped_servers_dst: int
    max_streams_per_server: int
    max_streams_total: int
    summary: BandwidthSummary
    copies_completed: int
    series: List[RateSeries] = field(default_factory=list)

    def rows(self) -> list:
        """(label, value) rows in the paper's Table 1 order."""
        return [
            ("Striped servers at source location",
             str(self.striped_servers_src)),
            ("Striped servers at destination location",
             str(self.striped_servers_dst)),
            ("Maximum simultaneous TCP streams per server",
             str(self.max_streams_per_server)),
            ("Maximum simultaneous TCP streams overall",
             str(self.max_streams_total)),
        ] + self.summary.rows()


class ScinetTestbed(Testbed):
    """The SC'2000 floor ↔ LBNL configuration.

    Parameters
    ----------
    seed:
        Random seed (loss events).
    """

    def __init__(self, seed: int = 0):
        # Era public-key crypto on era CPUs was not cheap.
        super().__init__(seed, "scinet", ca_name="Globus CA",
                         user_subject="/CN=sc2000-demo", crypto_time=0.15,
                         aggregation_threshold=None)
        env = self.env
        ws_spec = HostSpec(
            nic_rate=gbps(1), bus_rate=None,
            cpu=CpuModel(copy_cost_per_byte=3.3e-8, interrupt_cost=25e-6,
                         coalesce=COALESCING),
            disk=DiskArray(DiskSpec(rate=30 * 2**20), count=4))
        self.dallas_hosts: List[Host] = []
        self.lbl_hosts: List[Host] = []
        for i in range(N_HOSTS):
            d = Host(self.topology, f"dallas-ws{i}", site="dallas",
                     spec=ws_spec)
            d.uplink("sw-dallas", latency=5e-5)
            self.dallas_hosts.append(d)
            l = Host(self.topology, f"lbl-ws{i}", site="lbl",
                     spec=ws_spec)
            l.uplink("sw-lbl", latency=5e-5)
            self.lbl_hosts.append(l)
        # Dual-bonded GbE from each cluster switch to the exit router.
        self.topology.duplex_link("sw-dallas", "r-dallas", gbps(2), 1e-4,
                                  name="bond-dallas")
        self.topology.duplex_link("sw-lbl", "r-lbl", gbps(2), 1e-4,
                                  name="bond-lbl")
        # HSCC/NTON OC-48 path, shared with the rest of the floor.
        self.topology.duplex_link("r-dallas", "r-lbl", OC48_CAPACITY,
                                  ONE_WAY_LATENCY, name="oc48")
        self.floor_traffic = LinkLoadModulator(
            env, self.network, self.topology.links["oc48:fwd"],
            mean_load=FLOOR_LOAD, rng=env.rng.stream("scinet.floor"),
            volatility=0.16, correlation=0.45, interval=1.0)
        # One GridFTP server per Dallas workstation, holding its
        # partition of the 2 GB file (the four "copies" are identical
        # bytes; re-serving the partition per copy is equivalent).
        self.servers: List[GridFtpServer] = []
        for i, host in enumerate(self.dallas_hosts):
            fs = FileSystem(env, f"dallas{i}-fs")
            fs.create("partition.dat", PARTITION_BYTES)
            self.servers.append(
                self.add_server(host, fs, f"dallas-ws{i}.scinet"))
        self.transfer_config = GridFtpConfig(
            parallelism=1, buffer_bytes=1 * MB, stall_timeout=30.0,
            retry_backoff=2.0, loss_rate=LOSS_RATE)
        self.client = self.user_client(config=self.transfer_config)
        self.dest_fs = [FileSystem(env, f"lbl{i}-fs")
                        for i in range(N_HOSTS)]


def run_table1_schedule(testbed: ScinetTestbed,
                        duration: float = 3600.0) -> Table1Result:
    """Execute the §7 schedule for ``duration`` seconds and summarize.

    Per source workstation: keep launching partition-copy transfers, a
    new one whenever the youngest in flight reaches 25% completion,
    capped at :data:`COPIES_PER_SERVER` concurrent; stop launching at
    ``duration`` and let in-flight copies drain. The Table 1 summary
    measures exactly the [0, duration] window.
    """
    env = testbed.env
    all_series: List[RateSeries] = []
    copies_done = [0]
    cfg = testbed.transfer_config

    def copy_body(i: int, session, handle: TransferHandle):
        try:
            stats = yield from session.get(
                "partition.dat", testbed.dest_fs[i], testbed.lbl_hosts[i],
                dest_name=f"copy-{env.now:.3f}.dat",
                handle=handle, config=cfg, record=True)
        except GridFtpError:
            return None
        all_series.extend(stats.series)
        copies_done[0] += 1
        return stats

    def server_schedule(i: int):
        server = testbed.servers[i]
        session = yield from testbed.client.connect(
            testbed.lbl_hosts[i], server.hostname, cfg)
        active: List = []
        while env.now < duration:
            active = [(p, h) for p, h in active if not p.triggered]
            if len(active) >= COPIES_PER_SERVER:
                yield env.timeout(0.25)
                continue
            handle = TransferHandle(env, "partition.dat", 0.0)
            proc = env.process(copy_body(i, session, handle))
            active.append((proc, handle))
            # §7: the next copy starts once this one is 25% complete.
            while (not proc.triggered and handle.fraction < 0.25
                   and env.now < duration):
                yield env.timeout(0.25)
        for p, _ in active:
            if not p.triggered:
                yield p

    testbed.floor_traffic.start()
    drivers = [env.process(server_schedule(i)) for i in range(N_HOSTS)]
    done = env.all_of(drivers)
    env.run(until=done)
    summary = summarize(all_series, sustained_window=duration,
                        t0=0.0, t1=duration)
    return Table1Result(
        striped_servers_src=N_HOSTS,
        striped_servers_dst=N_HOSTS,
        max_streams_per_server=COPIES_PER_SERVER,
        max_streams_total=COPIES_PER_SERVER * N_HOSTS,
        summary=summary,
        copies_completed=copies_done[0],
        series=all_series)
