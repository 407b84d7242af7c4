"""Tests for the causal tracer: span trees rebuilt from ULM records."""

import pytest

from repro.netlogger import NetLogger
from repro.obs.trace import Tracer, render_trace, trace_ids
from repro.sim import Environment


class Log:
    """A NetLogger fed hand-made records at chosen simulated times."""

    def __init__(self, capacity=None):
        self.env = Environment()
        self.logger = NetLogger(self.env, capacity=capacity)
        self.tracer = Tracer(self.logger)

    def at(self, t, event, host=None, **fields):
        if t > self.env.now:
            self.env.run(until=t)
        self.logger.event(event, host=host, **fields)
        return self


def request(log, t, file, ticket=1):
    return log.at(t, "rm.request", ticket=ticket, file=file, collection="c")


def test_span_lifecycle_and_duration():
    log = request(Log(), 0.0, "f1")
    log.at(0.5, "rm.attempt", host="anl", ticket=1, file="f1")
    (span,) = [s for s in log.tracer.spans if s.name == "rm.file"]
    assert span.open
    assert span.duration is None
    assert span.status == "open"
    log.at(2.5, "rm.transfer.done", host="anl", ticket=1, file="f1",
           bytes=42)
    (span,) = [s for s in log.tracer.spans if s.name == "rm.file"]
    assert not span.open
    assert span.status == "done"
    assert span.duration == pytest.approx(2.5)
    (attempt,) = [s for s in log.tracer.spans if s.name == "rm.attempt"]
    assert attempt.status == "ok"
    assert attempt.duration == pytest.approx(2.0)
    assert attempt.fields == {"file": "f1", "host": "anl", "bytes": "42"}


def test_parent_links_and_trace_defaults():
    log = request(Log(), 0.0, "f1")
    log.at(1.0, "rm.attempt", host="anl", ticket=1, file="f1")
    log.at(2.0, "rm.attempt", host="isi", ticket=7, file="lost")
    log.at(3.0, "fault.begin", fault=1, kind="link", target="wan")
    ticket, file, attempt, orphan, fault = log.tracer.spans
    assert (ticket.name, ticket.trace_id, ticket.parent_id) == \
        ("rm.ticket", "ticket-1", None)
    assert ticket.fields == {"ticket": "1", "files": "1"}
    assert file.trace_id == "ticket-1"
    assert file.parent_id == ticket.span_id
    assert attempt.trace_id == "ticket-1"
    assert attempt.parent_id == file.span_id
    # an attempt whose rm.request left the log still lands on its
    # ticket's trace, rendered as a root
    assert orphan.trace_id == "ticket-7"
    assert render_trace(log.tracer.spans, "ticket-7").splitlines()[1] \
        .startswith("  - rm.attempt")
    assert (fault.name, fault.trace_id, fault.parent_id) == \
        ("fault.link", "faults", None)
    assert len({s.span_id for s in log.tracer.spans}) == 5


def test_unterminated_spans_stay_open():
    log = request(Log(), 0.0, "f1")
    request(log, 0.0, "f2")
    log.at(1.0, "rm.attempt", host="anl", ticket=1, file="f1")
    log.at(2.0, "rm.failure", ticket=1, file="f2", cls="lookup",
           reason="none")
    log.at(3.0, "fault.begin", fault=1, kind="server", target="anl")
    spans = {(s.name, s.fields.get("file")): s for s in log.tracer.spans}
    assert spans[("rm.file", "f2")].status == "failed"
    assert spans[("rm.file", "f2")].ended_at == 2.0
    for key in [("rm.ticket", None), ("rm.file", "f1"),
                ("rm.attempt", "f1"), ("fault.server", None)]:
        assert spans[key].open and spans[key].status == "open", key
    assert "+open] open" in render_trace(log.tracer.spans, "faults")


def test_attempt_failed_sets_error_status():
    log = request(Log(), 0.0, "f1")
    log.at(1.0, "rm.attempt", host="anl", ticket=1, file="f1")
    log.at(4.0, "rm.attempt.failed", host="anl", ticket=1, file="f1",
           error="connect")
    log.at(5.0, "rm.attempt", host="isi", ticket=1, file="f1")
    log.at(9.0, "rm.transfer.done", host="isi", ticket=1, file="f1",
           bytes=10)
    first, second = [s for s in log.tracer.spans if s.name == "rm.attempt"]
    assert (first.status, first.fields["error"]) == ("error", "connect")
    assert first.duration == pytest.approx(3.0)
    assert (second.status, second.fields["host"]) == ("ok", "isi")
    assert first.span_id != second.span_id
    (ticket,) = [s for s in log.tracer.spans if s.name == "rm.ticket"]
    assert ticket.status == "ok" and ticket.ended_at == 9.0


def test_fault_and_slo_spans_share_the_faults_trace():
    log = Log()
    log.at(10.0, "fault.begin", fault=1, kind="link", target="wan",
           description="outage")
    log.at(15.0, "fault.begin", fault=2, kind="link", target="wan")
    log.at(16.0, "slo.breach.begin", slo="ttfb", tenant="t",
           objective="p95_ttfb", burn_long="20.00", burn_short="20.00")
    log.at(20.0, "fault.end", fault=2, kind="link", target="wan")
    log.at(30.0, "fault.end", fault=1, kind="link", target="wan")
    log.at(31.0, "slo.breach.end", slo="ttfb", tenant="t", seconds="15.0",
           peak_burn="20.00")
    spans = [s for s in log.tracer.spans if s.trace_id == "faults"]
    assert [(s.name, s.started_at, s.ended_at) for s in spans] == [
        ("fault.link", 10.0, 30.0), ("fault.link", 15.0, 20.0),
        ("slo.breach", 16.0, 31.0)]
    assert spans[0].fields == {"target": "wan", "description": "outage"}
    assert spans[2].status == "recovered"
    assert spans[2].fields["peak_burn"] == "20.00"


def test_queries_and_trace_order():
    log = request(Log(), 0.0, "f1")
    log.at(1.0, "rm.attempt", host="anl", ticket=1, file="f1")
    log.at(2.0, "fault.begin", fault=1, kind="degrade", target="wan")
    tracer = log.tracer
    assert trace_ids(tracer.spans) == ["ticket-1", "faults"]
    assert [s.name for s in tracer.spans if s.trace_id == "ticket-1"] == [
        "rm.ticket", "rm.file", "rm.attempt"]
    assert [s.name for s in tracer.spans].count("rm.file") == 1
    assert len(tracer) == 4


def test_render_tree_indents_children():
    log = request(Log(), 0.0, "f1", ticket=9)
    log.at(1.0, "rm.transfer.done", ticket=9, file="f1", bytes=5)
    text = render_trace(log.tracer.spans, "ticket-9")
    lines = text.splitlines()
    assert lines[0] == "trace ticket-9"
    assert lines[1].startswith("  - rm.ticket")
    assert lines[2].startswith("    - rm.file")
    assert "file=f1" in lines[2]
    assert "+1.000s" in lines[2]


def test_spans_come_only_from_records_in_the_ring():
    log = Log(capacity=4)
    for i in range(10):
        request(log, float(i), f"f{i}", ticket=i)
    # four rm.request records survive: one ticket + one file span each
    assert len(log.tracer) == 8
    assert {s.fields["ticket"] for s in log.tracer.spans
            if s.name == "rm.ticket"} == \
        {"6", "7", "8", "9"}


def test_queries_on_an_unchanged_log_build_the_spans_once(monkeypatch):
    import repro.obs.trace as trace
    builds = []

    def counting(records):
        builds.append(len(records))
        return build(records)

    build = trace.build_spans
    monkeypatch.setattr(trace, "build_spans", counting)
    log = request(Log(), 0.0, "f1")
    log.at(0.5, "rm.attempt", host="anl", ticket=1, file="f1")
    tracer = log.tracer
    spans = tracer.spans
    assert tracer.spans == spans
    assert [s for s in tracer.spans if s.trace_id == "ticket-1"] == spans
    assert [s.name for s in tracer.spans if s.name == "rm.attempt"] == [
        "rm.attempt"]
    assert trace_ids(tracer.spans) == ["ticket-1"]
    assert "rm.attempt" in render_trace(tracer.spans, "ticket-1")
    assert len(tracer) == 3
    assert builds == [2]
    # A new record invalidates the spans; the caller's list is its own.
    spans.clear()
    log.at(2.5, "rm.transfer.done", host="anl", ticket=1, file="f1",
           bytes=42)
    assert len(tracer) == 3
    assert [s.status for s in tracer.spans if s.name == "rm.attempt"] == ["ok"]
    assert builds == [2, 3]
