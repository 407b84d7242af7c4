"""The suite's four workloads.

Each workload is batch work at a stated input size, built from public
``repro`` entry points only. A workload object goes through three
steps, each timed separately by the child process that runs it:

- ``build()`` is set-up: testbed or catalog construction and NWS
  warm-up, up to the first timed operation;
- ``run()`` is the timed phase; it returns an :class:`Outcome` with the
  operations attempted, the ones that failed a correctness check, and
  the simulated outputs that feed ``sim_digest``;
- ``counters()`` reads the counters the program already exposes, after
  the run, for the per-layer table.

The seed generates the inputs: which files users pull, where faults
land, which requests analysts issue, which entries are looked up. One
seed always builds the same inputs. The simulator's own random seed is
fixed per workload (``SEED``, the legacy bench's seed), so the program
receives only generated inputs, and work per run is set by the input
size rather than by the seed.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

from repro.campaign import CampaignJournal, ReplicationCampaign, plan_campaign
from repro.data.digest import marks_of
from repro.gridftp.protocol import GridFtpConfig
from repro.net import FaultSchedule, mbps
from repro.replica.federation import FederatedReplicaCatalog
from repro.rm.request import FileState
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config
from repro.sim import Environment

MiB = 2**20


@dataclass
class Outcome:
    """What one timed run produced."""

    attempted: int
    failed: int
    # Simulated outputs: the sim_digest input. Lists are sorted.
    outputs: Dict[str, object]
    # Host-time numbers the run measured itself (phase rates, per-lookup
    # latency); empty for workloads without separable operations.
    host: Dict[str, float] = field(default_factory=dict)


class _TestbedWorkload:
    """Shared counter plumbing for workloads built on an EsgTestbed."""

    tb: EsgTestbed
    campaign = None

    def counters(self) -> Dict[str, float]:
        tb = self.tb
        return read_counters(
            env=tb.env, network=tb.network,
            servers=list(tb.registry.values()),
            mss=[s.hrm.mss for s in tb.sites.values() if s.hrm is not None],
            scheduler=tb.scheduler,
            directories=[tb.metadata_catalog.directory, tb.mds.directory,
                         tb.replica_catalog.directory],
            campaign=self.campaign, logger=tb.logger, tracer=tb.obs.tracer,
            sensors=list(tb.nws.sensors.values()))


# -- fleet_wave ------------------------------------------------------------

class FleetWave(_TestbedWorkload):
    """Every user of a PoP-grouped fleet pulls one 8 MiB file at once."""

    name = "fleet_wave"
    SEED = 31
    FILE_SIZE = 8 * MiB
    USERS_PER_POP = 64
    CHOICES = 4          # each user picks one of the first 4 tas files

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.users = 150 if quick else 1200

    def build(self) -> None:
        self.tb = EsgTestbed(seed=self.SEED, with_tape=False,
                             file_size_override=self.FILE_SIZE,
                             aggregation_threshold=2, log_capacity=4096)
        self.tb.warm_nws(90.0)
        self.rms = self.tb.add_fleet(self.users,
                                     users_per_pop=self.USERS_PER_POP,
                                     config=fleet_config())
        ds = self.tb.dataset_ids()[0]
        names = self.tb.metadata_catalog.resolve(ds, "tas")[:self.CHOICES]
        rng = random.Random(self.seed)
        self.requests = [(ds, rng.choice(names)) for _ in self.rms]

    def run(self) -> Outcome:
        env = self.tb.env
        tickets = [rm.submit([req]) for rm, req in zip(self.rms, self.requests)]
        env.run(until=env.all_of([t.done for t in tickets]))
        failed = sum(1 for t in tickets
                     if t.failed_files or t.bytes_done != self.FILE_SIZE)
        makespans = sorted(max(f.finished_at for f in t.files) - t.submitted_at
                           for t in tickets)
        return Outcome(attempted=len(tickets), failed=failed, outputs={
            "makespans": makespans,
            "bytes_moved": sum(t.bytes_done for t in tickets),
            "end_time": env.now,
        })


# -- campaign_faulted ------------------------------------------------------

class CampaignFaulted(_TestbedWorkload):
    """A verified replication campaign under corruption and a crash,
    beside an interactive tenant."""

    name = "campaign_faulted"
    SEED = 11
    FILE_SIZE = 1 * MiB
    FILES_PER_YEAR = 24              # 2 datasets x 12 monthly files
    MIRROR_DOWNLINK = mbps(622)
    INTERACTIVE_PERIOD = 3.0

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.years = 4 if quick else 25          # 96 or 600 files

    def build(self) -> None:
        # aging_rounds matches the legacy campaign bench: with hundreds of
        # bulk flows per server the default collapses into FIFO and the
        # interactive tenant waits behind the whole flood.
        tb = self.tb = EsgTestbed(
            seed=self.SEED, years=self.years, with_tape=False,
            file_size_override=self.FILE_SIZE,
            scheduler=SchedulerConfig(per_server_cap=4, max_queue_depth=2048,
                                      aging_rounds=64))
        tb.warm_nws(60.0)
        self.manifest, replicas = plan_campaign(tb.replica_catalog)
        self.rm = tb.add_client(
            "mirror", downlink=self.MIRROR_DOWNLINK, latency=0.012,
            config=GridFtpConfig(parallelism=2, verify_checksum=True))
        self.campaign = ReplicationCampaign(
            tb.env, self.rm, self.manifest, replicas, max_inflight=6,
            batch_size=32, max_file_attempts=8, obs=tb.obs)
        m_est = self.manifest.total_bytes * 8 / self.MIRROR_DOWNLINK
        window = max(1.0, 0.02 * m_est)
        sched = FaultSchedule()
        for frac in (0.15, 0.50, 0.65):
            sched.corrupt_transfer("wan-mirror:rev", frac * m_est, window)
        # At-rest corruption on one replica of every 200th file, from a
        # seeded offset; another clean replica always remains.
        rng = random.Random(self.seed)
        entries = self.manifest.entries
        offset = rng.randrange(min(200, len(entries)))
        for i, entry in enumerate(entries):
            if i % 200 == offset:
                locs = replicas[(entry.collection, entry.logical_file)]
                if len(locs) >= 2:
                    sched.corrupt_replica(locs[0].hostname,
                                          entry.logical_file, 1.0, 1.0)
        sched.rm_crash("campaign", 0.30 * m_est, max(5.0, 0.05 * m_est))
        tb.fault_injector(crashables={"campaign": self.campaign}).install(sched)
        ds = tb.dataset_ids()[0]
        # In catalog order, not seeded: the simulation is chaotic in this
        # order, and shuffling it moved the run's host work by up to 9 %.
        self.interactive_names = [str(f["logical_name"])
                                  for f in tb.datasets[ds]][:12]

    def _interactive(self, results: List):
        tb, camp = self.tb, self.campaign
        ds = tb.dataset_ids()[0]
        names = self.interactive_names
        i = 0
        while not camp.done.triggered:
            t0 = tb.env.now
            ticket = tb.request_manager.submit([(ds, names[i % len(names)])])
            yield ticket.done
            ok = all(fr.state is FileState.DONE for fr in ticket.files)
            results.append((ok, tb.env.now - t0))
            i += 1
            yield tb.env.timeout(self.INTERACTIVE_PERIOD)

    def run(self) -> Outcome:
        tb, camp, manifest = self.tb, self.campaign, self.manifest
        interactive: List = []
        tb.env.process(self._interactive(interactive))
        camp.start()
        proc = tb.env.process(camp.wait())
        tb.env.run(until=proc)
        report = proc.value
        unverified = report["files"] - report["states"].get("verified", 0)
        undetected = sum(
            1 for e in manifest
            if self.rm.dest_fs.exists(e.logical_file)
            and marks_of(self.rm.dest_fs.stat(e.logical_file)))
        journal_ok = _journal_replays_idempotently(camp.journal)
        interactive_failed = sum(1 for ok, _ in interactive if not ok)
        failed = (unverified + undetected + interactive_failed
                  + report["verified_retransfers"] + (0 if journal_ok else 1))
        return Outcome(
            attempted=report["files"] + len(interactive), failed=failed,
            outputs={
                "makespan": report["makespan"],
                "bytes_delivered": report["bytes_delivered"],
                "bytes_retransferred": report["bytes_retransferred"],
                "corruptions_caught": report["corruptions_caught"],
                "crashes": report["crashes"],
                "resumes": report["resumes"],
                "journal_records": report["journal_records"],
                "interactive_latencies": sorted(lat for _, lat in interactive),
            })


def _journal_replays_idempotently(journal: CampaignJournal) -> bool:
    once = {f: (e.state, e.delivered_bytes) for f, e in journal.replay().items()}
    twice = {f: (e.state, e.delivered_bytes)
             for f, e in journal.replay(journal.records + journal.records).items()}
    round_trip = CampaignJournal.parse(journal.serialize())
    return once == twice and round_trip.states() == journal.states()


# -- portal_subset ---------------------------------------------------------

class PortalSubset(_TestbedWorkload):
    """Closed-loop analysts pulling server-side subsets of a chunked
    archive; the second dataset is tape-only behind the HRM."""

    name = "portal_subset"
    SEED = 6
    CHUNKS = {"time": 1, "lat": 8, "lon": 16}
    YEARS = 10
    ANALYSTS = 8
    VARIABLES = ("tas", "pr", "clt")
    # Equal bands aligned to the chunk grid of the default 32 x 64 grid,
    # so every subset decodes one chunk per month whatever the seed.
    LAT_BANDS = ((-90.0, -45.0), (-45.0, 0.0), (0.0, 45.0), (45.0, 90.0))
    LON_BANDS = ((0.0, 90.0), (90.0, 180.0), (180.0, 270.0), (270.0, 360.0))

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        # Distinct requests; each is issued twice, so repeats are what
        # the derived-product cache can answer.
        self.pool = 8 if quick else 40

    def build(self) -> None:
        tb = self.tb = EsgTestbed(seed=self.SEED, years=self.YEARS,
                                  materialize=True, with_tape=True,
                                  sdbf_chunks=self.CHUNKS,
                                  eret_range_staging=True)
        # Tape-only second dataset: drop its disk replicas so every
        # request for it goes through the HRM at LBNL-PDSF.
        tape_ds = tb.dataset_ids()[1]
        for site in tb.sites.values():
            if site.name == "lbnl-pdsf":
                continue
            tb.replica_catalog.delete_location(tape_ds, site.name)
            for f in tb.datasets[tape_ds]:
                name = str(f["logical_name"])
                if site.fs.exists(name):
                    site.fs.delete(name)
        tb.warm_nws(90.0)
        # Half the pool on each dataset and a third on each variable; the
        # seed picks years and bands and the order requests are issued.
        rng = random.Random(self.seed)
        datasets = tb.dataset_ids()
        lo, _hi = tb.metadata_catalog.time_extent(datasets[0])
        pool = [(datasets[i % 2], self.VARIABLES[i % 3],
                 lo + rng.randrange(self.YEARS), rng.choice(self.LAT_BANDS),
                 rng.choice(self.LON_BANDS)) for i in range(self.pool)]
        requests = pool + pool
        rng.shuffle(requests)
        self.plans = [requests[a::self.ANALYSTS]
                      for a in range(self.ANALYSTS)]
        self._lats = tb.grid.lats
        self._lons = tb.grid.lons

    def _expected_shape(self, lat, lon):
        nlat = int(((self._lats >= lat[0]) & (self._lats <= lat[1])).sum())
        nlon = int(((self._lons >= lon[0]) & (self._lons <= lon[1])).sum())
        return (12, nlat, nlon)

    def _analyst(self, plan, results: List):
        portal = self.tb.portal
        for ds, var, year, lat, lon in plan:
            try:
                series = yield from portal.open_series(ds)
                resp = yield from series.fetch(var, operation="subset",
                                               years=(year, year), lat=lat,
                                               lon=lon)
            except Exception as exc:  # counted as a failed request
                results.append((False, repr(exc)))
                continue
            shape = tuple(resp.dataset[var].data.shape)
            ok = shape == self._expected_shape(lat, lon)
            results.append((ok, resp))

    def run(self) -> Outcome:
        tb = self.tb
        served_before = sum(s.bytes_served for s in tb.registry.values())
        results: List = []
        procs = [tb.env.process(self._analyst(plan, results))
                 for plan in self.plans]
        tb.env.run(until=tb.env.all_of(procs))
        responses = [r for ok, r in results if ok]
        attempted = sum(len(plan) for plan in self.plans)
        failed = attempted - len(responses)
        shipped = sum(r.bytes_shipped for r in responses)
        served = sum(s.bytes_served for s in tb.registry.values()) - served_before
        if failed == 0 and shipped != served:
            failed = 1      # product bytes received != bytes servers sent
        return Outcome(attempted=attempted, failed=failed, outputs={
            "latencies": sorted(r.seconds for r in responses),
            "bytes_shipped": shipped,
            "server_decoded_bytes": sum(r.server_decoded_bytes
                                        for r in responses),
            "cache_hits": sum(r.cache_hits for r in responses),
            "files": sum(r.files for r in responses),
            "end_time": tb.env.now,
        })


# -- catalog_fanout --------------------------------------------------------

class CatalogFanout:
    """Publish to a sharded replica catalog, then a lookup stream with
    interleaved writes. No fluid network and no GridFTP."""

    name = "catalog_fanout"
    SEED = 17
    SITES = 4
    REPLICATION = 2
    FILES_PER_COLLECTION = 1000
    LOCATIONS = 3
    WRITE_EVERY = 10
    # Host clock for the phase rates and per-lookup latencies; the child
    # replaces it with one that leaves out the speed sampler's time.
    clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.collections = 100 if quick else 1000      # 10^5 or 10^6 files
        self.lookups = 300 if quick else 2500

    @staticmethod
    def _holds(location: int, index: int) -> bool:
        """The generator's placement: site0 holds every file; site1 and
        site2 hold alternating halves plus the first ``location`` files."""
        return location == 0 or index < location or (index - location) % 2 == 0

    def build(self) -> None:
        """Builds the catalog, every publish list, and the op stream with
        the answer each lookup must get, so the timed phase only calls
        the catalog. Only the publish lists and the op stream are kept,
        and the run consumes the publish lists as it goes, so at peak the
        suite's own inputs are the op stream alone."""
        self.env = Environment(seed=self.SEED)
        self.fed = FederatedReplicaCatalog(
            self.env, [f"cat{i}" for i in range(self.SITES)],
            replication=self.REPLICATION, sync_interval=30.0)
        n = self.FILES_PER_COLLECTION
        files = {}
        self.publish = deque()
        for c in range(self.collections):
            coll = f"pcmdi.scale.c{c:04d}"
            names = files[coll] = [f"{coll}.y{f // 12:03d}.m{f % 12:02d}.nc"
                                   for f in range(n)]
            self.publish.append((coll, [
                [f for i, f in enumerate(names) if self._holds(loc, i)]
                for loc in range(self.LOCATIONS)]))
        rng = random.Random(self.seed)
        colls = list(files)
        added = set()
        # ("lookup", collection, file, expected sites) or
        # ("write", collection, file, site)
        self.ops = []
        for k in range(self.lookups):
            coll, i = rng.choice(colls), rng.randrange(n)
            name = files[coll][i]
            want = [f"site{loc}" for loc in range(self.LOCATIONS)
                    if self._holds(loc, i) or (coll, name, loc) in added]
            self.ops.append(("lookup", coll, name, want))
            if k % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                coll, i = rng.choice(colls), rng.randrange(n)
                loc = 1 + rng.randrange(self.LOCATIONS - 1)
                added.add((coll, files[coll][i], loc))
                self.ops.append(("write", coll, files[coll][i],
                                 f"site{loc}"))

    def _publish(self) -> None:
        fed = self.fed
        while self.publish:
            coll, held = self.publish.popleft()
            fed.create_collection(coll, description="scale")
            for loc, names in enumerate(held):
                fed.register_location(coll, f"site{loc}", "gsiftp",
                                      f"gridftp{loc}.example.org", 2811,
                                      "/archive", names)
        fed.sync_now()

    def _client(self, results: Dict):
        fed = self.fed
        latencies = results["latency_s"]
        clock = self.clock
        for kind, coll, name, arg in self.ops:
            if kind == "write":
                fed.add_file_to_location(coll, arg, name)
                continue
            t0 = clock()
            got, meta = yield from fed.find_replicas_meta(coll, name)
            latencies.append(clock() - t0)
            if [loc.name for loc in got] != arg or meta.partial:
                results["failed"] += 1
            results["answers"] += len(got)

    def run(self) -> Outcome:
        t0 = self.clock()
        self._publish()
        publish_s = self.clock() - t0
        results = {"failed": 0, "answers": 0, "latency_s": []}
        t1 = self.clock()
        proc = self.env.process(self._client(results))
        self.env.run(until=proc)
        lookup_s = self.clock() - t1
        files = self.collections * self.FILES_PER_COLLECTION
        return Outcome(
            attempted=len(self.ops), failed=results["failed"],
            outputs={
                "answers": results["answers"],
                "replicated_ops": self.fed.replicated_ops,
                "partial_queries": self.fed.partial_queries,
                "end_time": self.env.now,
            },
            host={"publish_per_s": files / publish_s,
                  "lookups_per_s": self.lookups / lookup_s,
                  "lookup_p50_us": _quantile(results["latency_s"], 0.50) * 1e6,
                  "lookup_p99_us": _quantile(results["latency_s"], 0.99) * 1e6})

    def counters(self) -> Dict[str, float]:
        return read_counters(
            env=self.env, directories=[s.directory
                                       for s in self.fed.sites.values()],
            federation=self.fed)


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


WORKLOADS = {cls.name: cls for cls in (FleetWave, CampaignFaulted,
                                       PortalSubset, CatalogFanout)}


# -- counters --------------------------------------------------------------

def read_counters(env, network=None, servers=(), mss=(), scheduler=None,
                  directories=(), federation=None, campaign=None,
                  logger=None, tracer=None, sensors=()) -> Dict[str, float]:
    """Per-layer counters read after a run; absent layers read 0."""
    kernel = env.kernel_stats
    out = {
        "sim.events_dispatched": kernel["events_dispatched"],
        "sim.events_cancelled": kernel["events_cancelled"],
        "sim.queue_resident_end": env.queue_depth() - env.pending_count,
    }
    net = network
    out["net.flushes"] = net.flushes if net else 0
    out["net.reallocations"] = net.reallocations if net else 0
    out["net.flows_recomputed"] = net.flows_recomputed if net else 0
    out["net.recompute_per_flush"] = (net.flows_recomputed / net.flushes
                                      if net and net.flushes else 0.0)
    out["net.aggregate_joins"] = net.aggregate_joins if net else 0
    out["gridftp.transfers_served"] = sum(s.transfers_served for s in servers)
    out["gridftp.eret_decoded_mib"] = sum(s.eret_decoded_bytes
                                          for s in servers) / MiB
    caches = [s.derived_cache for s in servers if s.derived_cache is not None]
    lookups = sum(c.hits + c.misses for c in caches)
    out["gridftp.derived_hit_ratio"] = (sum(c.hits for c in caches) / lookups
                                        if lookups else 0.0)
    out["storage.tape_mounts"] = sum(m.tape.mounts_total for m in mss)
    out["storage.stages"] = sum(m.stage_count for m in mss)
    out["storage.range_staged"] = sum(s.eret_range_staged for s in servers)
    out["rm.sched_granted"] = scheduler.granted if scheduler else 0
    out["rm.sched_rejected"] = scheduler.rejected if scheduler else 0
    if campaign is not None:
        delivered = campaign.bytes_delivered
        moved = delivered + campaign.bytes_retransferred
        out["campaign.journal_records"] = len(campaign.journal)
        out["campaign.corruptions_caught"] = campaign.corruptions_caught
        out["campaign.useful_byte_ratio"] = delivered / moved if moved else 0.0
    else:
        out["campaign.journal_records"] = 0
        out["campaign.corruptions_caught"] = 0
        out["campaign.useful_byte_ratio"] = 0.0
    ops = sum(d.operations for d in directories)
    scanned = sum(d.entries_scanned for d in directories)
    out["ldap.operations"] = ops
    out["ldap.entries_scanned"] = scanned
    out["ldap.scanned_per_op"] = scanned / ops if ops else 0.0
    out["replica.replicated_ops"] = federation.replicated_ops if federation else 0
    out["obs.spans_end"] = len(tracer.spans) if tracer else 0
    out["netlogger.emitted"] = logger.emitted if logger else 0
    out["netlogger.dropped"] = logger.dropped if logger else 0
    out["nws.probes_sent"] = sum(s.probes_sent for s in sensors)
    return out
