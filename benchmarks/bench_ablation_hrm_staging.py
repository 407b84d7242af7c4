"""Ablation A7 — HRM staging: shared reads and transfer overlap.

§4: the HRM "stages files from the MSS to its local disk cache. After
this action is complete, the RM uses GridFTP to move the file." The
bench measures (a) what tape staging costs relative to the WAN hop,
(b) the cache paying off on re-reads, and (c) request deduplication
when many clients want the same cold file.
"""

from repro.scenarios import EsgTestbed

from benchmarks.conftest import record, run_once

SIZE = 200 * 2**20


def test_a7_hrm_staging_behaviour(benchmark, show):
    def run():
        tb = EsgTestbed(seed=29, file_size_override=SIZE)
        tb.warm_nws(90.0)
        ds = tb.dataset_ids()[0]
        name = tb.metadata_catalog.resolve(ds, "tas")[0]
        # Leave only the tape replica.
        for loc in tb.replica_catalog.locations(ds):
            if loc.name != "lbnl-pdsf" and name in loc.files:
                tb.replica_catalog.remove_file_from_location(
                    ds, loc.name, name)
        pdsf = tb.sites["lbnl-pdsf"]
        # Cold fetch: tape + WAN.
        t0 = tb.env.now
        ticket = tb.request_manager.submit([(ds, name)])
        tb.env.run(until=ticket.done)
        cold = tb.env.now - t0
        stage_time = float(
            tb.logger.select("hrm.stage.done")[0].fields["seconds"])
        # Warm fetch: cache hit, WAN only.
        t0 = tb.env.now
        ticket2 = tb.request_manager.submit([(ds, name)])
        tb.env.run(until=ticket2.done)
        warm = tb.env.now - t0
        # Dedup: three concurrent requests for one cold file.
        name2 = tb.metadata_catalog.resolve(ds, "tas")[1]
        for loc in tb.replica_catalog.locations(ds):
            if loc.name != "lbnl-pdsf" and name2 in loc.files:
                tb.replica_catalog.remove_file_from_location(
                    ds, loc.name, name2)
        stages_before = pdsf.hrm.mss.stage_count
        tickets = [tb.request_manager.submit([(ds, name2)])
                   for _ in range(3)]
        for t in tickets:
            tb.env.run(until=t.done)
        stages_for_concurrent = pdsf.hrm.mss.stage_count - stages_before
        return cold, warm, stage_time, stages_for_concurrent

    cold, warm, stage_time, dedup_stages = run_once(benchmark, run)
    show()
    show(f"=== A7: HRM staging ({SIZE // 2**20} MiB file on tape) ===")
    show(f"  cold fetch (tape stage + WAN): {cold:7.1f} s "
         f"(staging alone: {stage_time:.1f} s)")
    show(f"  warm fetch (cache hit + WAN) : {warm:7.1f} s")
    show(f"  3 concurrent cold requests   : {dedup_stages} tape read(s)")
    record(benchmark, cold_s=round(cold, 1), warm_s=round(warm, 1),
           stage_s=round(stage_time, 1), dedup_stages=dedup_stages)

    # Staging dominates the cold fetch; the cache removes it entirely.
    assert stage_time > 10.0
    assert cold > warm + stage_time * 0.8
    # One tape read serves all concurrent requesters.
    assert dedup_stages == 1
