"""The ESG-I multi-site testbed (Figure 1).

Sites and roles, as drawn in the architecture figure:

- **ANL** — GridFTP disk server; also runs the replica catalog and MDS
  (LDAP services lived at ANL in the prototype).
- **LBNL-PDSF** — HPSS tape archive behind an HRM, with a GridFTP
  server on its staging disk (GSI-pftpd in the figure).
- **LBNL-Clipper**, **NCAR**, **ISI**, **SDSC**, **LLNL** — GridFTP
  disk servers with replica subsets (LLNL also "runs" PCMDI/CDAT).
- **client** — the user's desktop: VCDAT, the request manager, and the
  destination disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from repro.data.digest import content_digest
from repro.data.synth import ClimateModelRun, monthly_files, slice_months
from repro.data.grids import GridSpec
from repro.data.ncformat import encode
from repro.gridftp.client import GridFtpClient
from repro.gridftp.protocol import GridFtpConfig
from repro.gridftp.plugins import install_standard_plugins
from repro.gridftp.server import GridFtpServer
from repro.gsi.auth import GsiContext, SecurityPolicy
from repro.gsi.credentials import CertificateAuthority, Identity, TrustAnchors
from repro.hosts.cpu import CpuModel
from repro.hosts.disk import DiskArray, DiskSpec
from repro.hosts.host import Host, HostSpec
from repro.mds.service import MdsService
from repro.metadata.catalog import MetadataCatalog, VariableRecord
from repro.net.dns import NameService
from repro.net.fluid import FluidNetwork
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.net.units import gbps, mbps
from repro.netlogger.log import NetLogger
from repro.nws.service import NetworkWeatherService
from repro.obs import Observability
from repro.replica.catalog import ReplicaCatalog
from repro.replica.manager import ReplicaManager
from repro.rm.manager import RequestManager
from repro.rm.resilience import ResiliencePolicy
from repro.rm.scheduler import SchedulerConfig, TransferScheduler
from repro.sim.core import Environment
from repro.storage.filesystem import FileSystem
from repro.storage.hpss import MassStorageSystem
from repro.storage.hrm import HierarchicalResourceManager

_VARIABLE_RECORDS = (
    VariableRecord("tas", "K", "surface air temperature"),
    VariableRecord("pr", "mm/day", "precipitation"),
    VariableRecord("clt", "%", "total cloud fraction"),
)


@dataclass
class EsgSite:
    """One storage site in the testbed."""

    name: str
    hostname: str
    host: Host
    server: GridFtpServer
    fs: FileSystem
    hrm: Optional[HierarchicalResourceManager] = None


def fleet_config() -> GridFtpConfig:
    """GridFTP tuning for large simulated fleets.

    Single-stream transfers over cached channels without per-block rate
    series, so flows of one PoP can aggregate. A stalled stream is
    aborted after 120 s, placed on a 30 s grid; a transfer monitor on a
    fleet ticket samples every 5 s. An unmonitored transfer schedules
    no tick either way. Use with :meth:`EsgTestbed.add_fleet`.
    """
    return GridFtpConfig(parallelism=1, channel_caching=True,
                         progress_poll=5.0, stall_poll=30.0,
                         stall_timeout=120.0, record_series=False)


# (site, wan latency to the backbone in s, wan capacity)
_SITES: List[Tuple[str, float, float]] = [
    ("anl", 0.012, mbps(622)),
    ("lbnl-pdsf", 0.020, mbps(622)),
    ("lbnl-clipper", 0.020, mbps(622)),
    ("ncar", 0.015, mbps(155)),
    ("isi", 0.022, mbps(155)),
    ("sdsc", 0.021, mbps(155)),
    ("llnl", 0.019, mbps(155)),
]

# Each fleet PoP's downlink and its one-way latency to the backbone.
FLEET_DOWNLINK = mbps(622)
FLEET_LATENCY = 0.010


class EsgTestbed:
    """The full prototype stack on one simulated WAN.

    Parameters
    ----------
    seed:
        Random seed (probes, losses).
    years:
        Years of synthetic model output in the archive.
    grid:
        Resolution of the synthetic output (sets file sizes).
    with_tape:
        Whether LBNL-PDSF data is tape-resident behind the HRM.
    materialize:
        When True, files carry real SDBF bytes (analysis/visualization
        experiments); when False they are size-only (bulk transfer
        experiments at any scale without the RAM).
    catalog_sites:
        When set, replace the single replica catalog with a
        :class:`~repro.replica.federation.FederatedReplicaCatalog`
        sharded across the first ``catalog_sites`` testbed sites
        (§6.2's "distribution and replication of the catalog").
        Collections are consistent-hash-placed on two shards (home +
        one async replica); lookups fan out and tolerate shard outages
        with partial answers.
    catalog_sync_interval:
        Async replication period between federation shards, seconds
        (the bounded staleness window).
    catalog_cache_ttl:
        Client-side lookup cache TTL for the federated catalog, seconds
        (0 disables). Cached answers may be stale; the RM verifies on
        open and demotes entries that outlived their replica.
    file_size_override:
        Force every catalog file to this size in bytes (bulk transfer
        experiments; incompatible with ``materialize``).
    log_capacity:
        When set, bound the shared NetLogger to a ring buffer of this
        many records (long runs); default keeps everything.
    scheduler:
        A :class:`~repro.rm.scheduler.SchedulerConfig`; when set, one
        shared :class:`~repro.rm.scheduler.TransferScheduler` is built
        and handed to every request manager (the main client's and
        every :meth:`add_client` RM), so admission control and fair
        queueing span all tenants.
    max_server_connections:
        When set, every GridFTP server rejects connects beyond this
        many concurrent sessions with a 421 reply (visible
        backpressure for unscheduled stampedes).
    tape_policy:
        Tape scheduling policy at the PDSF library: ``"batch"``
        (cartridge grouping + SCAN + aging, the default) or ``"fifo"``
        (strict arrival order, the pre-pipeline baseline).
    hrm_prefetch:
        Whether the PDSF HRM prefetches hinted dataset siblings during
        idle drive time.
    tape_drives:
        Number of tape drives in the PDSF library (default 2).
    aggregation_threshold:
        Passed to :class:`~repro.net.fluid.FluidNetwork`: paths already
        carrying this many flows aggregate further same-path transfers
        into one fluid class. ``None`` (default) keeps every transfer
        exact.
    sdbf_chunks:
        When set (with ``materialize=True``), encode the archive's
        files in the chunked SDBF layout — dim name → chunk length, or
        one int for every dim — so ERET subsets decode only the
        touched chunks.
    eret_range_staging:
        Whether tape-resident ERET requests start once the needed byte
        prefix is staged (see :class:`~repro.gridftp.server.GridFtpServer`).
    """

    def __init__(self, seed: int = 0, years: int = 1,
                 grid: Optional[GridSpec] = None,
                 with_tape: bool = True, materialize: bool = False,
                 catalog_sites: Optional[int] = None,
                 catalog_sync_interval: float = 30.0,
                 catalog_cache_ttl: float = 0.0,
                 file_size_override: Optional[float] = None,
                 config: Optional[GridFtpConfig] = None,
                 resilience: Optional["ResiliencePolicy"] = None,
                 log_capacity: Optional[int] = None,
                 scheduler: Optional["SchedulerConfig"] = None,
                 max_server_connections: Optional[int] = None,
                 tape_policy: str = "batch",
                 hrm_prefetch: bool = True,
                 tape_drives: int = 2,
                 aggregation_threshold: Optional[int] = None,
                 sdbf_chunks=None,
                 eret_range_staging: bool = True):
        self.env = Environment(seed=seed)
        env = self.env
        self.grid = grid or GridSpec(nlat=32, nlon=64, months=12)
        self.topology = Topology("esg")
        self.network = FluidNetwork(
            env, self.topology,
            aggregation_threshold=aggregation_threshold)
        self.dns = NameService(env)
        self.transport = Transport(env, self.network, self.dns)
        self.logger = NetLogger(env, host="client", prog="esg",
                                capacity=log_capacity)
        # One observability bundle for the whole testbed: the shared ULM
        # log above (its one event stream) plus a metrics registry and
        # the tracer's span view over that log (repro.obs).
        self.obs = Observability.create(env, logger=self.logger)
        # attached by start_timeseries() when windowed recording is on
        self.timeseries = None

        # -- security fabric
        ca = CertificateAuthority("DOE Science Grid CA")
        self.trust = TrustAnchors()
        self.trust.trust_ca(ca)
        self.gsi = GsiContext(self.trust, SecurityPolicy(crypto_time=0.02))
        self.user = Identity("/DC=org/DC=doegrids/CN=climate-user", ca,
                             self.trust)

        # -- backbone (ESnet-ish star) and sites
        server_spec = HostSpec(
            nic_rate=gbps(1), bus_rate=None, cpu=CpuModel(coalesce=8),
            disk=DiskArray(DiskSpec(rate=40 * 2**20), count=4))
        self.sites: Dict[str, EsgSite] = {}
        self.registry: Dict[str, GridFtpServer] = {}
        for name, latency, capacity in _SITES:
            router = f"r-{name}"
            self.topology.duplex_link(router, "backbone", capacity,
                                      latency, name=f"wan-{name}")
            host = Host(self.topology, f"{name}-gridftp", site=name,
                        spec=server_spec)
            host.uplink(router)
            hostname = f"gridftp.{name}.gov"
            self.dns.register(hostname, host.node)
            fs = FileSystem(env, f"{name}-fs")
            server_id = Identity(f"/CN=gridftp/{hostname}", ca, self.trust)
            hrm = None
            if name == "lbnl-pdsf" and with_tape:
                mss = MassStorageSystem(env, cache_capacity=400 * 2**30,
                                        drives=tape_drives,
                                        name="hpss-pdsf",
                                        tape_policy=tape_policy,
                                        obs=self.obs)
                hrm = HierarchicalResourceManager(env, mss, fs,
                                                  name="hrm-pdsf",
                                                  obs=self.obs,
                                                  prefetch=hrm_prefetch)
            server = GridFtpServer(env, host, fs, gsi=self.gsi,
                                   credential_chain=server_id.chain,
                                   hrm=hrm, hostname=hostname,
                                   obs=self.obs,
                                   max_connections=max_server_connections,
                                   eret_range_staging=eret_range_staging)
            install_standard_plugins(server)
            self.registry[hostname] = server
            self.sites[name] = EsgSite(name, hostname, host, server, fs,
                                       hrm)

        # -- client site (the user's desktop)
        client_spec = HostSpec(
            nic_rate=mbps(100), bus_rate=None, cpu=CpuModel(coalesce=4),
            disk=DiskArray(DiskSpec(rate=20 * 2**20), count=1))
        self.client_host = self._attach_host("client", client_spec,
                                             mbps(100), 0.010)
        self.client_fs = FileSystem(env, "client-fs")

        # -- grid services
        self.federation = None
        if catalog_sites is not None:
            from repro.replica.federation import FederatedReplicaCatalog
            if not 1 <= catalog_sites <= len(_SITES):
                raise ValueError(f"catalog_sites must be in "
                                 f"[1, {len(_SITES)}]")
            shard_sites = [name for name, _, _ in _SITES][:catalog_sites]
            self.federation = FederatedReplicaCatalog(
                env, shard_sites, name="esg",
                sync_interval=catalog_sync_interval,
                cache_ttl=catalog_cache_ttl, obs=self.obs)
            self.federation.start()
            self.replica_catalog = self.federation
        else:
            self.replica_catalog = ReplicaCatalog(env, name="esg")
        self.metadata_catalog = MetadataCatalog(env, name="pcmdi")
        self.mds = MdsService(env, name="esg")
        self.nws = NetworkWeatherService(env, self.network, mds=self.mds,
                                         rng=env.rng.stream("nws"),
                                         obs=self.obs)
        # One configuration object for the client and the main RM.
        config = config or GridFtpConfig(parallelism=4)
        self.gridftp = GridFtpClient(
            env, self.transport, self.registry,
            credential_chain=self.user.make_proxy(env.now),
            config=config, obs=self.obs)
        self.replica_manager = ReplicaManager(env, self.replica_catalog,
                                              self.gridftp)
        # Shared across every tenant RM so admission control is global.
        self.scheduler = (TransferScheduler(env, scheduler, obs=self.obs)
                          if scheduler is not None else None)
        self.request_manager = RequestManager(
            env, self.replica_catalog, self.mds, self.gridftp,
            self.registry, self.client_host, self.client_fs,
            nws=self.nws, config=config,
            resilience=resilience, obs=self.obs,
            scheduler=self.scheduler, tenant="client")

        # -- the user's analysis tool
        from repro.cdat.client import CdatClient
        from repro.rm.rpc import CorbaChannel
        self.cdat = CdatClient(env, self.metadata_catalog,
                               self.request_manager, self.client_fs,
                               rpc=CorbaChannel(env))
        # -- the ESG-II lightweight client (server-side processing only)
        from repro.cdat.portal import PortalClient
        self.portal = PortalClient(env, self.metadata_catalog,
                                   self.replica_catalog, self.gridftp,
                                   self.client_host, self.registry,
                                   mds=self.mds)

        # -- content + monitoring
        if materialize and file_size_override is not None:
            raise ValueError("materialize and file_size_override conflict")
        if sdbf_chunks is not None and not materialize:
            raise ValueError("sdbf_chunks requires materialize=True")
        self.materialize = materialize
        self.sdbf_chunks = sdbf_chunks
        self.file_size_override = file_size_override
        self._populate(years)
        for site in self.sites.values():
            self.nws.monitor(site.host.node, self.client_host.node)

    # -- archive population ---------------------------------------------------
    def _populate(self, years: int) -> None:
        """Register the synthetic archive in both catalogs and place
        replicas: every dataset fully at LBNL (tape where enabled), with
        partial disk replicas spread over the other sites."""
        runs = [ClimateModelRun(model="NCAR_CSM", run="run1",
                                grid=self.grid),
                ClimateModelRun(model="PCM", run="B06.22", grid=self.grid)]
        disk_sites = [s for n, s in self.sites.items()
                      if n != "lbnl-pdsf"]
        pdsf = self.sites["lbnl-pdsf"]
        self.datasets = {}
        for run_idx, run in enumerate(runs):
            files = monthly_files(run, years,
                                  size_override=self.file_size_override)
            if self.materialize:
                # Real SDBF bytes; sizes become the encoded lengths. Each
                # year is synthesized once and cut into all its files.
                for year, group in groupby(files, lambda f: f["year"]):
                    year_ds = run.generate_year(int(year))
                    for f in group:
                        blob = encode(slice_months(year_ds,
                                                   *f["month_range"]),
                                      chunks=self.sdbf_chunks)
                        f["content"] = blob
                        f["size"] = float(len(blob))
                    del year_ds
            self.datasets[run.dataset_id] = files
            self.metadata_catalog.register_dataset(
                run.dataset_id, run.model, run.run,
                description=f"{run.model} simulation {run.run}",
                variables=_VARIABLE_RECORDS)
            self.metadata_catalog.register_files(run.dataset_id, files)
            self.replica_catalog.create_collection(
                run.dataset_id, description=f"{run.model} {run.run}")
            names = [str(f["logical_name"]) for f in files]
            # Complete copy at LBNL-PDSF (tape-resident when enabled).
            for i, f in enumerate(files):
                content = f.get("content")
                if pdsf.hrm is not None:
                    from repro.storage.filesystem import FileObject
                    pdsf.hrm.mss.archive(
                        FileObject(str(f["logical_name"]),
                                   float(f["size"]), content=content),
                        tape=f"T{run_idx}{i // 12}",
                        position=(i % 12) / 12.0)
                else:
                    pdsf.fs.create(str(f["logical_name"]),
                                   float(f["size"]), content=content)
            self.replica_catalog.register_location(
                run.dataset_id, "lbnl-pdsf", "gsiftp", pdsf.hostname,
                2811, "/hpss/esg", files=names)
            for f in files:
                # Publish-time digest of the pristine copy: the anchor
                # every delivered copy is verified against.
                self.replica_catalog.register_logical_file(
                    run.dataset_id, str(f["logical_name"]),
                    float(f["size"]),
                    attributes={"digest": content_digest(
                        str(f["logical_name"]), float(f["size"]),
                        f.get("content"))})
            # Partial disk replicas: file i also lives at two disk sites.
            placements: Dict[str, List[str]] = {s.name: []
                                                for s in disk_sites}
            for i, f in enumerate(files):
                for k in range(2):
                    site = disk_sites[(i + k * 3) % len(disk_sites)]
                    site.fs.create(str(f["logical_name"]),
                                   float(f["size"]),
                                   content=f.get("content"))
                    placements[site.name].append(str(f["logical_name"]))
            for site in disk_sites:
                if placements[site.name]:
                    self.replica_catalog.register_location(
                        run.dataset_id, site.name, "gsiftp",
                        site.hostname, 2811, "/data/esg",
                        files=placements[site.name])

    # -- additional user sites ----------------------------------------------------
    def _attach_host(self, name: str, spec: HostSpec, downlink: float,
                     latency: float) -> Host:
        """A user-side host behind its own router ``r-<name>``, wired to
        the backbone by the duplex link ``wan-<name>``."""
        host = Host(self.topology, name, site=name, spec=spec)
        host.uplink(f"r-{name}")
        self.topology.duplex_link(f"r-{name}", "backbone", downlink,
                                  latency, name=f"wan-{name}")
        return host

    def add_client(self, name: str, downlink: float = mbps(100),
                   latency: float = 0.010,
                   resilience: Optional["ResiliencePolicy"] = None,
                   config: Optional[GridFtpConfig] = None):
        """Attach another user desktop with its own request manager.

        The abstract's scaling concern — "access to, and analysis of,
        these datasets by potentially thousands of users" — is exercised
        by attaching many clients: they share the catalogs, MDS, the
        servers, and (when configured) the transfer scheduler, but each
        has its own host, filesystem, GridFTP client, and RM. Returns
        the new :class:`RequestManager`.
        """
        from repro.gridftp.client import GridFtpClient
        from repro.rm.manager import RequestManager
        spec = HostSpec(nic_rate=downlink, bus_rate=None,
                        cpu=CpuModel(coalesce=4),
                        disk=DiskArray(DiskSpec(rate=20 * 2**20),
                                       count=1))
        host = self._attach_host(name, spec, downlink, latency)
        fs = FileSystem(self.env, f"{name}-fs")
        cfg = config or self.gridftp.config
        client = GridFtpClient(
            self.env, self.transport, self.registry,
            credential_chain=self.user.make_proxy(self.env.now),
            config=cfg, client_name=name, obs=self.obs)
        rm = RequestManager(
            self.env, self.replica_catalog, self.mds, client,
            self.registry, host, fs, nws=self.nws, config=cfg, obs=self.obs,
            resilience=resilience, scheduler=self.scheduler,
            tenant=name)
        return rm

    def add_fleet(self, n_users: int, users_per_pop: int = 32,
                  config: Optional[GridFtpConfig] = None):
        """Attach ``n_users`` user desktops grouped behind shared
        points of presence — the fleet-construction fast path.

        Where :meth:`add_client` builds a host, WAN link, proxy
        credential, and GridFTP client *per user*, a fleet shares all
        of that per PoP (``users_per_pop`` users each): one proxy
        delegation for the whole fleet, one PoP host and uplink
        (:data:`FLEET_DOWNLINK`, :data:`FLEET_LATENCY`), and one GridFTP
        client (so its channel cache pools warm data
        channels across the PoP's users). Each user still gets a
        private filesystem and request manager. Because a PoP's users
        share the host node, their transfers from one server share the
        *entire* network path — exactly the shape the fluid network's
        ``aggregation_threshold`` collapses into one aggregate class.

        Returns the per-user :class:`RequestManager` list, in user
        order.
        """
        if n_users < 1:
            raise ValueError("n_users must be >= 1")
        if users_per_pop < 1:
            raise ValueError("users_per_pop must be >= 1")
        cfg = config or fleet_config()
        proxy = self.user.make_proxy(self.env.now)
        spec = HostSpec(nic_rate=FLEET_DOWNLINK, bus_rate=None,
                        cpu=CpuModel(coalesce=8),
                        disk=DiskArray(DiskSpec(rate=80 * 2**20),
                                       count=4))
        rms = []
        n_pops = (n_users + users_per_pop - 1) // users_per_pop
        for p in range(n_pops):
            pop = f"pop{p}"
            host = self._attach_host(pop, spec, FLEET_DOWNLINK,
                                     FLEET_LATENCY)
            client = GridFtpClient(
                self.env, self.transport, self.registry,
                credential_chain=proxy, config=cfg,
                client_name=pop, obs=self.obs)
            for u in range(p * users_per_pop,
                           min((p + 1) * users_per_pop, n_users)):
                fs = FileSystem(self.env, f"pop-user{u}-fs")
                rm = RequestManager(
                    self.env, self.replica_catalog, self.mds, client,
                    self.registry, host, fs, nws=self.nws,
                    config=cfg, obs=self.obs,
                    scheduler=self.scheduler, tenant=pop)
                rms.append(rm)
        return rms

    # -- windowed gauge recording ------------------------------------------------
    def start_timeseries(self, interval: float = 5.0):
        """Attach and start a :class:`TimeSeriesRecorder` over the
        testbed's live gauges (idempotent; returns the recorder).

        Standard probe families — the resource join keys the
        critical-path attribution in :mod:`repro.obs.critical_path`
        expects:

        - ``link.wan-<site>.util`` — WAN link utilization in [0, 1]
          (both directions pooled against live capacity);
        - ``tape.<library>.busy`` / ``tape.<library>.queue`` — drives
          in service (normalized) and jobs waiting;
        - ``cache.<name>.occupancy`` — staging DiskCache fill fraction;
        - ``sched.<host>.depth`` / ``sched.<host>.active`` — admission
          queue depth and in-flight grants per server (with a shared
          scheduler);
        - ``server.<host>.conns`` — open GridFTP control connections.
        """
        from repro.obs.timeseries import TimeSeriesRecorder
        if self.obs.timeseries is not None:
            return self.obs.timeseries
        ts = TimeSeriesRecorder(self.env, interval=interval)

        wan = sorted({link.name.rsplit(":", 1)[0]
                      for link in self.topology.links.values()
                      if link.name.startswith("wan-")})

        def _link_util():
            load = self.network.link_load()
            out = {}
            for base in wan:
                used = cap = 0.0
                for suffix in (":fwd", ":rev"):
                    link = self.topology.links.get(base + suffix)
                    if link is None:
                        continue
                    cap += link.capacity
                    used += load.get(link.name, 0.0)
                out[f"link.{base}.util"] = used / cap if cap > 0 else 0.0
            return out

        ts.add_multi_probe(_link_util)
        for site in self.sites.values():
            if site.hrm is None:
                continue
            lib = site.hrm.mss.tape
            cache = site.hrm.mss.cache
            ts.add_probe(
                f"tape.{lib.name}.busy",
                lambda lib=lib: (lib.busy_drive_count / len(lib.drives)))
            ts.add_probe(f"tape.{lib.name}.queue",
                         lambda lib=lib: float(lib.queue_length))
            ts.add_probe(f"cache.{cache.name}.occupancy",
                         lambda cache=cache: cache.occupancy)
        if self.scheduler is not None:
            def _sched():
                out = {}
                for hostname in self.registry:
                    out[f"sched.{hostname}.depth"] = \
                        float(self.scheduler.queue_depth(hostname))
                    out[f"sched.{hostname}.active"] = \
                        float(self.scheduler.active_count(hostname))
                return out
            ts.add_multi_probe(_sched)

        def _conns():
            return {f"server.{hostname}.conns":
                    float(server.active_connections)
                    for hostname, server in self.registry.items()}

        ts.add_multi_probe(_conns)
        ts.start()
        self.obs.timeseries = ts
        self.timeseries = ts
        return ts

    # -- ESG-II: DODS-protocol access to the same archive -----------------------
    def enable_dods(self):
        """Stand up DODS servers over every site's filesystem.

        §9: ESG-II planned "access via DODS protocols and mechanisms";
        the same files become reachable by URL over plain HTTP with
        server-side constraint evaluation. Returns (servers, client).
        """
        from repro.baselines.dods import DodsClient, DodsServer
        servers = {}
        for site in self.sites.values():
            hostname = f"dods.{site.name}.gov"
            self.dns.register(hostname, site.host.node)
            servers[hostname] = DodsServer(self.env, site.host, site.fs,
                                           hostname)
        client = DodsClient(self.env, self.transport, servers)
        return servers, client

    # -- fault injection ---------------------------------------------------------
    def fault_injector(self, crashables: Optional[Dict] = None):
        """A :class:`~repro.net.faults.FaultInjector` wired to everything.

        Knows the testbed's links, DNS, GridFTP servers (by hostname),
        the "catalog" and "mds" directories, and every HRM (by name) —
        so any fault kind a :class:`~repro.net.faults.FaultSchedule` can
        express is injectable against this testbed. ``crashables``
        optionally maps label → an object with ``crash()``/``restart()``
        for "rm" faults (e.g. a replication campaign engine).
        """
        from repro.net.faults import FaultInjector
        if self.federation is not None:
            # "catalog" takes every shard down at once; "catalog:<site>"
            # targets one shard, degrading queries to partial answers.
            directories = {"mds": self.mds.directory,
                           "catalog": self.federation}
            for sname, shard in self.federation.sites.items():
                directories[f"catalog:{sname}"] = shard.directory
        else:
            directories = {"mds": self.mds.directory,
                           "catalog": self.replica_catalog.directory}
        hrms = {site.hrm.name: site.hrm
                for site in self.sites.values() if site.hrm is not None}
        return FaultInjector(self.env, self.network, self.dns,
                             servers=dict(self.registry),
                             directories=directories, hrms=hrms,
                             crashables=crashables,
                             obs=self.obs)

    # -- conveniences -----------------------------------------------------------
    def warm_nws(self, until: float = 120.0) -> None:
        """Run the clock so NWS accumulates a few probe rounds."""
        self.env.run(until=self.env.now + until)

    def dataset_ids(self) -> List[str]:
        """The archive's dataset identifiers."""
        return sorted(self.datasets)

    def run_process(self, gen):
        """Drive a generator process to completion; return its value."""
        p = self.env.process(gen)
        self.env.run(until=p)
        return p.value

    def __repr__(self) -> str:
        return (f"EsgTestbed({len(self.sites)} sites, "
                f"{len(self.registry)} GridFTP servers, "
                f"{len(self.datasets)} datasets)")
