"""Lifeline reconstruction — unit cases plus the seeded chaos run."""

import pytest

from repro.net import FaultSchedule
from repro.netlogger import (LogRecord, extract_fault_windows,
                             failure_breakdown, reconstruct_lifelines,
                             stage_breakdown, ttfb_values)
from repro.scenarios.esg import EsgTestbed


def rec(t, event, **fields):
    return LogRecord(t, "client", "rm", event,
                     {k: str(v) for k, v in fields.items()})


# ---------------------------------------------------------------------------
# Unit: hand-built event logs
# ---------------------------------------------------------------------------

def test_happy_path_stages_telescope():
    records = [
        rec(0.0, "rm.request", file="f1", ticket=1),
        rec(1.0, "rm.select", file="f1", ticket=1, host="anl"),
        rec(2.0, "gridftp.connect", file="f1", ticket=1, host="anl"),
        rec(3.0, "gridftp.first_byte", file="f1", host="anl"),
        rec(10.0, "rm.transfer.done", file="f1", ticket=1),
    ]
    life = reconstruct_lifelines(records)[0]
    assert life.outcome == "done"
    assert life.complete
    assert life.ticket == "1"
    assert life.requested_at == 0.0
    assert life.finished_at == 10.0
    assert life.ttfb == pytest.approx(1.0)
    totals = life.stage_totals()
    assert totals == {"select": 1.0, "connect": 1.0,
                      "first_byte": 1.0, "stream": 7.0}
    assert sum(totals.values()) == pytest.approx(life.duration)


def test_tape_staging_interleaves_first_byte():
    records = [
        rec(0.0, "rm.request", file="f2"),
        rec(1.0, "rm.select", file="f2"),
        rec(2.0, "gridftp.connect", file="f2"),
        rec(2.5, "hrm.stage.request", file="f2"),
        rec(60.0, "hrm.stage.done", file="f2"),
        rec(61.0, "gridftp.first_byte", file="f2"),
        rec(70.0, "rm.transfer.done", file="f2"),
    ]
    life = reconstruct_lifelines(records)[0]
    totals = life.stage_totals()
    assert totals["stage"] == pytest.approx(57.5)
    # first_byte accrues both before staging and after it finishes
    assert totals["first_byte"] == pytest.approx(0.5 + 1.0)
    assert sum(totals.values()) == pytest.approx(life.duration)
    assert life.complete


def test_retry_backoff_and_failure_attribution():
    records = [
        rec(0.0, "rm.request", file="f3"),
        rec(1.0, "rm.select", file="f3"),
        rec(2.0, "rm.retry", file="f3", attempt=1),
        rec(8.0, "rm.select", file="f3"),
        rec(20.0, "rm.failure", file="f3", cls="host_down",
            reason="connect failed (425)"),
    ]
    life = reconstruct_lifelines(records)[0]
    assert life.outcome == "failed"
    assert life.complete  # failures are terminal, hence complete
    assert life.failure_class == "host_down"
    assert life.error == "connect failed (425)"
    totals = life.stage_totals()
    assert totals["backoff"] == pytest.approx(6.0)
    assert sum(totals.values()) == pytest.approx(life.duration)
    assert failure_breakdown([life]) == {"host_down": 1}


def test_unterminated_lifeline_is_incomplete():
    records = [
        rec(0.0, "rm.request", file="f4"),
        rec(1.0, "rm.select", file="f4"),
    ]
    life = reconstruct_lifelines(records)[0]
    assert life.outcome is None
    assert not life.complete
    assert life.duration is None
    # the open tail stage closes at zero length
    assert life.stages[-1].duration == 0.0


def test_records_without_file_field_are_ignored():
    records = [rec(0.0, "nws.forecast", src="a", dst="b"),
               rec(1.0, "rm.request", file="f5")]
    assert [life.file for life in reconstruct_lifelines(records)] == ["f5"]


def test_fault_window_extraction_pairs_and_unmatched():
    records = [
        rec(5.0, "fault.begin", kind="degrade", target="wan",
            description="storm"),
        rec(9.0, "fault.end", kind="degrade", target="wan"),
        rec(12.0, "fault.begin", kind="server", target="anl"),
    ]
    windows = extract_fault_windows(records)
    assert len(windows) == 2
    assert (windows[0].kind, windows[0].start, windows[0].end) == \
        ("degrade", 5.0, 9.0)
    assert windows[0].description == "storm"
    assert windows[1].end == float("inf")
    assert windows[0].overlaps(0.0, 6.0)
    assert not windows[0].overlaps(9.0, 20.0)


def test_overlapping_fault_windows_on_one_target_pair_by_id():
    """Two outages overlapping on one link must stay two windows: the
    injector stamps a fault id on begin/end and extraction pairs on it,
    not on (kind, target)."""
    tb = EsgTestbed(seed=3)
    t0 = tb.env.now
    tb.fault_injector().install(FaultSchedule()
                                .link_outage("wan-anl:fwd", 10.0, 20.0)
                                .link_outage("wan-anl:fwd", 15.0, 5.0))
    tb.env.run(until=t0 + 40.0)
    windows = extract_fault_windows(tb.logger.records)
    assert [(w.start - t0, w.end - t0) for w in windows] == \
        [(pytest.approx(10.0), pytest.approx(30.0)),
         (pytest.approx(15.0), pytest.approx(20.0))]
    assert [(s.started_at - t0, s.ended_at - t0)
            for s in tb.obs.tracer.spans if s.trace_id == "faults"] == \
        [(w.start - t0, w.end - t0) for w in windows]


def test_faults_attach_only_to_overlapping_lifelines():
    records = [
        rec(0.0, "rm.request", file="early"),
        rec(10.0, "rm.transfer.done", file="early"),
        rec(15.0, "rm.request", file="late"),
        rec(25.0, "rm.transfer.done", file="late"),
        rec(5.0, "fault.begin", kind="degrade", target="wan"),
        rec(9.0, "fault.end", kind="degrade", target="wan"),
        rec(20.0, "fault.begin", kind="server", target="anl"),
        rec(23.0, "fault.end", kind="server", target="anl"),
    ]
    lifelines = {life.file: life for life in reconstruct_lifelines(records)}
    assert [w.kind for w in lifelines["early"].faults] == ["degrade"]
    assert [w.kind for w in lifelines["late"].faults] == ["server"]


def test_stage_breakdown_aggregates():
    records = [
        rec(0.0, "rm.request", file="a"),
        rec(2.0, "rm.select", file="a"),
        rec(3.0, "gridftp.connect", file="a"),
        rec(4.0, "gridftp.first_byte", file="a"),
        rec(5.0, "rm.transfer.done", file="a"),
        rec(0.0, "rm.request", file="b"),
        rec(4.0, "rm.select", file="b"),
        rec(5.0, "gridftp.connect", file="b"),
        rec(6.0, "gridftp.first_byte", file="b"),
        rec(9.0, "rm.transfer.done", file="b"),
    ]
    lives = reconstruct_lifelines(records)
    stats = stage_breakdown(lives)
    assert stats["select"].count == 2
    assert stats["select"].mean == pytest.approx(3.0)
    assert stats["select"].max == pytest.approx(4.0)
    assert ttfb_values(lives) == [pytest.approx(1.0), pytest.approx(1.0)]


# ---------------------------------------------------------------------------
# Integration: seeded chaos schedule over the full testbed
# ---------------------------------------------------------------------------

def test_chaos_schedule_attributes_each_fault_to_one_lifeline():
    """Sequential transfers with one injected fault each: every fault
    window must land in exactly one file's lifeline."""
    tb = EsgTestbed(seed=11, file_size_override=50 * 2**20)
    tb.warm_nws(90.0)
    injector = tb.fault_injector()
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:3]
    for i, name in enumerate(names):
        injector.install(FaultSchedule().degrade(
            "wan-client:rev", start=1.0, duration=2.0, fraction=0.5,
            description=f"chaos-{i}"))
        ticket = tb.request_manager.submit([(ds, name)])
        tb.env.run(until=ticket.done)
        tb.env.run(until=tb.env.now + 5.0)  # gap between lifelines

    lifelines = {life.file: life for life in reconstruct_lifelines(tb.logger.records)}
    assert set(names) <= set(lifelines)
    windows = extract_fault_windows(tb.logger.records)
    chaos = [w for w in windows if w.description.startswith("chaos-")]
    assert len(chaos) == len(names)
    for window in chaos:
        owners = [life.file for life in lifelines.values()
                  if window in life.faults]
        assert len(owners) == 1, (window, owners)
    # every transfer still completed, stages telescoping as usual
    for name in names:
        life = lifelines[name]
        assert life.outcome == "done"
        assert life.complete
        assert sum(life.stage_totals().values()) == \
            pytest.approx(life.duration)


def test_reconstruction_report_unit_partitions_and_reasons():
    from repro.netlogger import reconstruction_report
    records = [
        rec(0.0, "rm.request", file="done"),
        rec(1.0, "rm.select", file="done"),
        rec(2.0, "gridftp.connect", file="done"),
        rec(3.0, "gridftp.first_byte", file="done"),
        rec(4.0, "rm.transfer.done", file="done"),
        rec(5.0, "rm.request", file="open"),
        rec(6.0, "rm.transfer.done", file="headless"),
    ]
    report = reconstruction_report(reconstruct_lifelines(records),
                                   dropped=7)
    assert report.total == 3
    assert report.complete == 1
    assert report.complete_fraction == pytest.approx(1 / 3)
    assert report.reasons() == {"no-request-event": 1,
                                "no-terminal-event": 1}
    text = report.render()
    assert "3 total, 1 complete (33%)" in text
    assert "7 log records dropped" in text
    assert "no-request-event: 1" in text


def test_ring_buffer_eviction_surfaces_as_incomplete_lifelines():
    """A tiny ULM ring buffer evicts early milestones; the
    reconstruction report must account for every lost lifeline and
    surface the eviction count instead of silently shrinking."""
    from repro.netlogger import reconstruction_report
    tb = EsgTestbed(seed=7, file_size_override=20 * 2**20,
                    log_capacity=60)
    tb.warm_nws(90.0)
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:6]
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    tb.env.run(until=ticket.done)

    assert tb.logger.dropped > 0, "capacity too large to evict anything"
    lifelines = reconstruct_lifelines(tb.logger.records)
    report = reconstruction_report(lifelines, dropped=tb.logger.dropped)
    assert report.dropped == tb.logger.dropped
    assert report.total == len(lifelines)
    # eviction cost at least one early file its request milestone
    assert report.incomplete_count > 0
    assert "no-request-event" in report.reasons()
    assert report.complete + report.incomplete_count == report.total
    assert report.complete_fraction < 1.0


# ---------------------------------------------------------------------------
# One lifeline per (ticket, file)
# ---------------------------------------------------------------------------

def two_tickets_one_file():
    """Tickets 1 and 2 each move file "shared", at t=0 and t=5, 10 s each."""
    records = []
    for ticket, t0 in (("1", 0.0), ("2", 5.0)):
        records += [
            rec(t0 + 0.0, "rm.request", file="shared", ticket=ticket),
            rec(t0 + 1.0, "rm.select", file="shared", ticket=ticket),
            rec(t0 + 2.0, "gridftp.connect", file="shared", ticket=ticket),
            rec(t0 + 4.0, "gridftp.first_byte", file="shared",
                ticket=ticket),
            rec(t0 + 10.0, "rm.transfer.done", file="shared",
                ticket=ticket),
        ]
    return sorted(records, key=lambda r: r.t)


def test_two_tickets_for_one_file_give_two_lifelines():
    first, second = reconstruct_lifelines(two_tickets_one_file())
    assert (first.ticket, second.ticket) == ("1", "2")
    for life, t0 in ((first, 0.0), (second, 5.0)):
        assert life.file == "shared"
        assert (life.requested_at, life.finished_at) == (t0, t0 + 10.0)
        assert life.complete
        assert sum(life.stage_totals().values()) == \
            pytest.approx(life.duration) == 10.0
        assert {r.fields["ticket"] for r in life.events} == {life.ticket}


def test_shared_stage_joins_every_open_lifeline_of_the_file():
    records = [
        rec(0.0, "rm.request", file="f", ticket=1),
        rec(1.0, "rm.request", file="f", ticket=2),
        rec(2.0, "gridftp.connect", file="f", ticket=1),
        rec(2.0, "gridftp.connect", file="f", ticket=2),
        rec(3.0, "hrm.stage.request", file="f"),
        rec(8.0, "hrm.stage.done", file="f"),
        rec(9.0, "rm.transfer.done", file="f", ticket=1),
        rec(9.5, "hrm.stage.request", file="f"),
        rec(12.0, "rm.transfer.done", file="f", ticket=2),
    ]
    first, second = reconstruct_lifelines(records)
    shared = records[4:6]
    assert [r for r in first.events if "ticket" not in r.fields] == shared
    # the later stage request finds ticket 1 terminal: it joins only 2
    assert [r for r in second.events if "ticket" not in r.fields] == \
        shared + [records[7]]
    assert first.stage_totals()["stage"] == pytest.approx(5.0)
    assert second.stage_totals()["stage"] == pytest.approx(5.0 + 2.5)


def test_forty_users_pulling_one_file_give_forty_lifelines():
    from repro.scenarios.esg import fleet_config
    tb = EsgTestbed(seed=31, with_tape=False, file_size_override=8 * 2**20)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(40, config=fleet_config())
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    tickets = [rm.submit([(ds, name)]) for rm in rms]
    tb.env.run(until=tb.env.all_of([t.done for t in tickets]))

    lifelines = reconstruct_lifelines(tb.logger.records)
    assert len(lifelines) == 40 == sum(
        1 for s in tb.obs.tracer.spans if s.name == "rm.file")
    assert {life.ticket for life in lifelines} == \
        {t.id_text for t in tickets}
    for life in lifelines:
        assert life.file == name and life.outcome == "done"
        assert [r.event for r in life.events].count(
            "gridftp.first_byte") == 1
