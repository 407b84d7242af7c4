"""A finished transfer is freed by reference counting alone.

A ``done`` event that fired with its own owner closed an owner → event
→ value → owner cycle, which only the cyclic collector could free; at
fleet scale that made GC a large share of wall time. The scheduled and
faulted paths closed three more kinds of cycle, one rule in the kernel
each:

- a condition that kept listening on a child that lost (a grant's
  ``any_of([slot, abort])``): conditions now let go of their losers;
- a timer raced against an event with ``any_of``: every timed wait now
  goes through ``Environment.wait_for``;
- a failure whose traceback pinned the frames that held the event
  storing it (an engine crash's ``FlowError``/``GridFtpError``): a
  process that catches a thrown-in failure drops its traceback.

Under ``gc.DEBUG_SAVEALL`` the collector keeps everything it would have
freed in ``gc.garbage``, so a finished run must leave none of these
objects there. This counts objects; it times nothing.

``Environment.run`` pauses the cyclic collector while it dispatches,
which is sound only while a running workload makes no cyclic garbage
at all. So the server-side subset portal, the federated catalog's
lookup stream and the chaos runs must leave nothing for the collector
while their testbed is still alive. A stall abort that fired or was
disarmed used to keep its kernel entry, whose callback is the abort
itself: chaos seed 2 left that cycle, with the aborted flows, their
``done`` events and failures hanging off it.

The Figure 8 run is left out on purpose: its 27 small cycles come from
numpy's lazy ``numpy.ma`` import (closures of ``ast.literal_eval`` and
``inspect``), made once per process. There are 27 at both a 1 h and a
4 h horizon, so they do not grow with the run.
"""

import gc
import itertools
import random
from collections import Counter

import pytest

from benchmarks.bench_chaos_survival import run_chaos
from repro.campaign import ReplicationCampaign, plan_campaign
from repro.gridftp.protocol import GridFtpConfig
from repro.net import FaultSchedule, mbps
from repro.replica.federation import FederatedReplicaCatalog
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config
from repro.sim import Environment
from repro.sim.events import Condition

MiB = 2**20
PER_TRANSFER = ("Flow", "AggregateFlow", "_AggregateMember",
                "RequestTicket", "TransferHandle")


def _garbage_of(run):
    """Object kinds the cyclic collector finds after ``run()``."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage), \
            [o for o in gc.garbage if isinstance(o, Condition)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_finished_fleet_wave_leaves_no_cyclic_transfer_objects():
    tb = EsgTestbed(seed=31, with_tape=False, file_size_override=8 * MiB,
                    aggregation_threshold=2, log_capacity=4096)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(150, users_per_pop=64, config=fleet_config())
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:4]

    def run():
        tickets = [rm.submit([(ds, names[i % len(names)])])
                   for i, rm in enumerate(rms)]
        tb.env.run(until=tb.env.all_of([t.done for t in tickets]))
        assert not any(t.failed_files for t in tickets)

    kinds, _ = _garbage_of(run)
    assert {k: kinds[k] for k in PER_TRANSFER if kinds[k]} == {}


def test_scheduled_faulted_campaign_leaves_no_cyclic_garbage():
    """A verified campaign through the transfer scheduler, with
    in-flight and at-rest corruption and an engine crash that aborts
    transfers mid-flight (the suite's ``campaign_faulted``, reduced)."""
    downlink = mbps(622)
    tb = EsgTestbed(seed=11, years=2, with_tape=False,
                    file_size_override=1 * MiB,
                    scheduler=SchedulerConfig(per_server_cap=4,
                                              max_queue_depth=2048,
                                              aging_rounds=64))
    tb.warm_nws(60.0)
    manifest, replicas = plan_campaign(tb.replica_catalog)
    rm = tb.add_client("mirror", downlink=downlink, latency=0.012,
                       config=GridFtpConfig(parallelism=2,
                                            verify_checksum=True))
    campaign = ReplicationCampaign(tb.env, rm, manifest, replicas,
                                   max_inflight=6, batch_size=32,
                                   max_file_attempts=8, obs=tb.obs)
    m_est = manifest.total_bytes * 8 / downlink
    sched = FaultSchedule()
    for frac in (0.15, 0.50):
        sched.corrupt_transfer("wan-mirror:rev", frac * m_est,
                               max(1.0, 0.02 * m_est))
    entry = random.Random(11).choice(manifest.entries)
    locs = replicas[(entry.collection, entry.logical_file)]
    sched.corrupt_replica(locs[0].hostname, entry.logical_file, 1.0, 1.0)
    sched.rm_crash("campaign", 0.30 * m_est, 5.0)
    tb.fault_injector(crashables={"campaign": campaign}).install(sched)

    def run():
        campaign.start()
        proc = tb.env.process(campaign.wait())
        tb.env.run(until=proc)
        report = proc.value
        assert report["crashes"] == 1
        assert report["states"].get("verified", 0) == report["files"]

    kinds, conditions = _garbage_of(run)
    assert conditions == []
    assert {k: kinds[k] for k in ("TransferGrant", "frame", "traceback")
            if kinds[k]} == {}


def test_subset_portal_run_leaves_no_cyclic_garbage():
    """Closed-loop analysts fetching server-side subsets of a chunked
    archive, one dataset tape-only behind the HRM (the suite's
    ``portal_subset``, reduced)."""
    tb = EsgTestbed(seed=6, years=2, materialize=True, with_tape=True,
                    sdbf_chunks={"time": 1, "lat": 8, "lon": 16},
                    eret_range_staging=True)
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
    lo, _hi = tb.metadata_catalog.time_extent(tb.dataset_ids()[0])
    requests = [(ds, var, lo + i % 2, lat) for i, (ds, var, lat) in enumerate(
        itertools.product(tb.dataset_ids(), ("tas", "pr"),
                          ((-90.0, -45.0), (0.0, 45.0))))]
    shapes = []

    def analyst(plan):
        for ds, var, year, lat in plan + plan:  # repeats hit the cache
            series = yield from tb.portal.open_series(ds)
            resp = yield from series.fetch(var, operation="subset",
                                           years=(year, year), lat=lat,
                                           lon=(0.0, 90.0))
            shapes.append(resp.dataset[var].data.shape[0])

    def run():
        procs = [tb.env.process(analyst(requests[a::2])) for a in range(2)]
        tb.env.run(until=tb.env.all_of(procs))
        assert shapes == [12] * 2 * len(requests)

    kinds, _ = _garbage_of(run)
    assert kinds == Counter()


def test_federated_lookup_stream_leaves_no_cyclic_garbage():
    """Lookups fanned out to a sharded replica catalog, one write per
    ten (the suite's ``catalog_fanout``, reduced)."""
    env = Environment(seed=17)
    fed = FederatedReplicaCatalog(env, [f"cat{i}" for i in range(4)],
                                  replication=2, sync_interval=30.0)
    rng = random.Random(17)
    colls = [f"pcmdi.scale.c{c:04d}" for c in range(8)]
    names = {c: [f"{c}.y{f // 12:03d}.m{f % 12:02d}.nc" for f in range(48)]
             for c in colls}
    for c in colls:
        fed.create_collection(c, description="scale")
        for loc in range(3):
            fed.register_location(c, f"site{loc}", "gsiftp",
                                  f"gridftp{loc}.example.org", 2811,
                                  "/archive", names[c][loc::2])
    fed.sync_now()
    answers = []

    def client():
        for k in range(120):
            coll = rng.choice(colls)
            got = yield from fed.find_replicas(coll,
                                               rng.choice(names[coll]))
            answers.append(len(got))
            if k % 10 == 9:
                coll = rng.choice(colls)
                fed.add_file_to_location(coll, f"site{1 + k % 2}",
                                         rng.choice(names[coll]))

    def run():
        env.run(until=env.process(client()))
        assert len(answers) == 120 and all(answers)

    kinds, _ = _garbage_of(run)
    assert kinds == Counter()


@pytest.mark.parametrize("seed", range(5))
def test_chaos_run_leaves_no_cyclic_garbage(seed):
    """Randomized link, server, catalog, MDS and HRM faults against a
    hardened request (``benchmarks/bench_chaos_survival.py``)."""
    kept = []
    kinds, _ = _garbage_of(lambda: kept.append(run_chaos(seed)))
    assert kinds == Counter()
