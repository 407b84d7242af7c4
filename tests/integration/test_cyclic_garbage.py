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
"""

import gc
import random
from collections import Counter

from repro.campaign import ReplicationCampaign, plan_campaign
from repro.gridftp.protocol import GridFtpConfig
from repro.net import FaultSchedule, mbps
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config
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
