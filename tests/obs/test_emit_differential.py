"""Bound children and one-step records against the keyword emit path.

Twin same-seed testbeds run the same scenario, one on the product's
:class:`~repro.obs.Observability` (children cached per label set, each
record built once in :meth:`~repro.netlogger.log.NetLogger.event`) and
one on :class:`tests.obs.reference_emit.ReferenceObservability` (every
emit re-enters the registry by name and keyword labels; records are
built from a repacked dict). Both must leave identical ULM records,
registries (sample timestamps included), Prometheus text, spans and
emitted/dropped counts. The small label budget drives the per-ticket
series into the overflow fold on both sides.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.campaign import ReplicationCampaign, plan_campaign
from repro.gridftp.protocol import GridFtpConfig
from repro.net import FaultSchedule, mbps
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config
from tests.obs.reference_emit import ReferenceObservability, reference_emit

MiB = 2**20


def _observed(tb):
    obs = tb.obs
    return {
        "records": list(obs.logger.records),
        "json": obs.metrics.to_json(),
        "prometheus": obs.metrics.render_prometheus(),
        "spans": obs.tracer.spans,
        "emitted": obs.logger.emitted,
        "dropped": obs.logger.dropped,
    }


def _fleet(reference: bool, max_labelsets):
    with reference_emit() if reference else nullcontext():
        tb = EsgTestbed(seed=31, with_tape=False,
                        file_size_override=8 * MiB,
                        aggregation_threshold=2, log_capacity=1024)
    assert isinstance(tb.obs, ReferenceObservability) == reference
    tb.obs.metrics.max_labelsets = max_labelsets
    tb.warm_nws(90.0)
    rms = tb.add_fleet(150, users_per_pop=64, config=fleet_config())
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:4]
    rng = random.Random(31)
    tickets = [rm.submit([(ds, rng.choice(names))]) for rm in rms]
    tb.env.run(until=tb.env.all_of([t.done for t in tickets]))
    assert all(not t.failed_files for t in tickets)
    return tb


def _campaign(reference: bool, max_labelsets):
    with reference_emit() if reference else nullcontext():
        tb = EsgTestbed(seed=11, years=2, with_tape=False,
                        file_size_override=MiB,
                        scheduler=SchedulerConfig(per_server_cap=4,
                                                  max_queue_depth=2048))
    tb.obs.metrics.max_labelsets = max_labelsets
    tb.warm_nws(60.0)
    manifest, replicas = plan_campaign(tb.replica_catalog)
    rm = tb.add_client("mirror", downlink=mbps(622), latency=0.012,
                       config=GridFtpConfig(parallelism=2,
                                            verify_checksum=True))
    camp = ReplicationCampaign(tb.env, rm, manifest, replicas,
                               max_inflight=6, batch_size=16,
                               max_file_attempts=8, obs=tb.obs)
    m_est = manifest.total_bytes * 8 / mbps(622)
    sched = FaultSchedule()
    sched.corrupt_transfer("wan-mirror:rev", 0.2 * m_est,
                           max(1.0, 0.05 * m_est))
    first = manifest.entries[0]
    locs = replicas[(first.collection, first.logical_file)]
    sched.corrupt_replica(locs[0].hostname, first.logical_file, 1.0, 1.0)
    sched.rm_crash("campaign", 0.3 * m_est, 5.0)
    tb.fault_injector(crashables={"campaign": camp}).install(sched)
    camp.start()
    proc = tb.env.process(camp.wait())
    tb.env.run(until=proc)
    report = proc.value
    assert report["states"].get("verified", 0) == report["files"]
    return tb, report


@pytest.mark.parametrize("max_labelsets", [1024, 3])
def test_fleet_matches_keyword_path(max_labelsets):
    fast = _observed(_fleet(False, max_labelsets))
    ref = _observed(_fleet(True, max_labelsets))
    assert fast["records"], "the fleet logged nothing"
    assert fast["dropped"] > 0, "the ring never wrapped"
    for key in ref:
        assert fast[key] == ref[key], key


@pytest.mark.parametrize("max_labelsets", [1024, 3])
def test_campaign_matches_keyword_path(max_labelsets):
    fast_tb, fast_report = _campaign(False, max_labelsets)
    ref_tb, ref_report = _campaign(True, max_labelsets)
    assert fast_report == ref_report
    fast, ref = _observed(fast_tb), _observed(ref_tb)
    for key in ref:
        assert fast[key] == ref[key], key
    dropped = fast_tb.obs.metrics.get("obs.labelsets_dropped_total")
    assert (dropped is not None) == (max_labelsets == 3)
    verified = fast_tb.obs.metrics.get("rm.verifies_total")
    assert verified.value(outcome="ok") > 0

