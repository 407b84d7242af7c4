"""The one keyed reconstruction against the per-file grouping it replaced.

:func:`repro.netlogger.analysis.reconstruct_lifelines` keys lifelines by
``(ticket, file)`` and :func:`repro.obs.trace.build_spans` derives its
spans from them. The oracle in ``tests/netlogger/reference_lifelines.py``
grouped by ``file`` alone and walked the records a second time for the
spans. On a log with one ticket per file the two must agree exactly:
the same lifelines (events, stages, outcome, failure class, error,
request and finish times, faults) and the same spans (names, ids,
parents, times, statuses, fields, order).

The generated logs follow the request manager's record contract, as a
:class:`~repro.netlogger.log.NetLogger` holds them, in time order: each
file thread opens with ``rm.request`` at its ticket's submit instant,
stamps every ``rm.*`` and ``gridftp.connect`` record with its ticket, and
ends with at most one terminal record, later than that instant unless
the whole ticket is cancelled at submit. Storage records carry no
ticket and may come before the request or after the terminal event;
``gridftp.first_byte`` comes with or without one. Fault windows and SLO
breaches may stay open, and a ring may have dropped the oldest records.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlogger import LogRecord, reconstruct_lifelines
from repro.obs.trace import build_spans
from tests.netlogger import reference_lifelines as ref

DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5)


def _lifeline_view(life):
    return (life.file, life.ticket, life.events, life.stages, life.outcome,
            life.failure_class, life.error, life.requested_at,
            life.finished_at, life.faults)


def _span_view(span):
    return (span.name, span.trace_id, span.span_id, span.parent_id,
            span.started_at, span.ended_at, span.status, span.fields)


def assert_same_as_reference(records):
    records = list(records)
    expected = [_lifeline_view(life)
                for life in ref.reconstruct_lifelines(records).values()]
    assert [_lifeline_view(life)
            for life in reconstruct_lifelines(records)] == expected
    assert [_span_view(s) for s in build_spans(records)] == \
        [_span_view(s) for s in ref.build_spans(records)]


class _Thread:
    """The records of one emitter, in emit order, at rising times."""

    def __init__(self, rng: random.Random, t: float):
        self.rng = rng
        self.t = t
        self.records = []

    def emit(self, event, host="anl", delay=None, **fields):
        self.t += self.rng.choice(DELAYS) if delay is None else delay
        self.records.append(
            (self.t, host, event, {k: str(v) for k, v in fields.items()}))


def _staging(th, name):
    th.emit("hrm.stage.request", host="hrm", file=name)
    if th.rng.random() < 0.7:
        th.emit("tape.read.begin", host="tape", file=name)
    if th.rng.random() < 0.8:
        th.emit("hrm.stage.done", host="hrm", file=name)


def _file_thread(rng, ticket, name, submit, cancelled):
    th = _Thread(rng, submit)
    if rng.random() < 0.2:                      # prefetch before the request
        th.t = submit - 10.0
        _staging(th, name)
        th.t = submit
    rm = {"ticket": ticket, "file": name}
    th.emit("rm.request", delay=0.0, collection="c", **rm)
    if cancelled:
        th.emit("rm.cancelled", delay=0.0, **rm)
        return th
    terminal = None
    for round_no in range(1, rng.randint(1, 3) + 1):
        if round_no > 1:
            th.emit("rm.retry", round=round_no - 1, backoff="1.00", **rm)
        th.emit("rm.select", host=rng.choice(("anl", "isi")), **rm)
        th.emit("rm.attempt", host=rng.choice(("anl", "isi")), **rm)
        if rng.random() < 0.3:
            th.emit("rm.queue", **rm)
            if rng.random() < 0.2:
                th.emit("rm.attempt.failed", error="admission", **rm)
                continue
            th.emit("rm.granted", waited="0.5", **rm)
        th.emit("gridftp.connect", **rm)
        if rng.random() < 0.4:
            _staging(th, name)
        first = {"file": name}
        if rng.random() < 0.5:
            first["ticket"] = ticket
        th.emit("gridftp.first_byte", **first)
        if rng.random() < 0.3:
            th.emit("rm.verify", **rm)
        if rng.random() < 0.15:                 # the run ends mid-flight
            return th
        if rng.random() < 0.1:
            terminal = "rm.cancelled"
            break
        if rng.random() < 0.6:
            terminal = "rm.transfer.done"
            break
        th.emit("rm.attempt.failed", error="connect", **rm)
    else:
        terminal = "rm.failure"
    extra = {"rm.transfer.done": {"bytes": 1024},
             "rm.failure": {"cls": "host_down", "reason": "connect (425)"},
             "rm.cancelled": {}}[terminal]
    th.emit(terminal, delay=rng.choice(DELAYS[2:]), **rm, **extra)
    if rng.random() < 0.2:                      # staging outlives the file
        th.emit("hrm.stage.done", host="hrm", file=name)
    return th


def _faults(rng):
    th = _Thread(rng, rng.uniform(0.0, 10.0))
    for n in range(rng.randint(0, 3)):
        fields = {"kind": rng.choice(("link", "server")),
                  "target": rng.choice(("wan", "anl"))}
        if rng.random() < 0.7:
            fields["fault"] = n + 1
        th.emit("fault.begin", description=f"fault {n}", **fields)
        if rng.random() < 0.7:
            th.emit("fault.end", **fields)
    return th


def _breaches(rng):
    th = _Thread(rng, rng.uniform(0.0, 10.0))
    for _ in range(rng.randint(0, 3)):
        slo = rng.choice(("ttfb", "queue"))
        th.emit("slo.breach.begin", slo=slo, tenant="t",
                objective="p95_ttfb", burn_long="2.00", burn_short="3.00")
        if rng.random() < 0.7:
            th.emit("slo.breach.end", slo=slo, tenant="t", seconds="5.0",
                    peak_burn="3.00")
    return th


def random_log(rng: random.Random):
    """A time-ordered ULM log with one ticket per file."""
    threads = []
    n = 0
    for ticket in range(1, rng.randint(1, 4) + 1):
        submit = float(rng.choice((0, 0, 1, 3, 6)))
        cancelled = rng.random() < 0.1
        for _ in range(rng.randint(1, 3)):
            n += 1
            threads.append(_file_thread(rng, str(ticket), f"f{n}", submit,
                                        cancelled))
        noise = _Thread(rng, submit)
        noise.emit("rm.message", host="rm", ticket=ticket, text="hello")
        threads.append(noise)
    for _ in range(rng.randint(0, 2)):          # storage traffic, no RM
        n += 1
        th = _Thread(rng, rng.uniform(0.0, 10.0))
        _staging(th, f"f{n}")
        th.emit("gridftp.first_byte", file=f"f{n}")
        threads.append(th)
    threads += [_faults(rng), _breaches(rng)]
    queues = [list(th.records) for th in threads if th.records]
    log = []
    while queues:
        now = min(q[0][0] for q in queues)
        q = rng.choice([q for q in queues if q[0][0] == now])
        t, host, event, fields = q.pop(0)
        log.append(LogRecord(t, host, "repro", event, fields))
        queues = [q for q in queues if q]
    if rng.random() < 0.3:                      # a ring kept the newest
        log = log[rng.randint(0, len(log)):]
    return log


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_ticket_per_file_logs_match_the_reference(rng):
    assert_same_as_reference(random_log(rng))


@pytest.mark.parametrize("seed", range(5))
def test_chaos_runs_match_the_reference(seed):
    from benchmarks.bench_chaos_survival import run_chaos
    tb, _ticket, _sched, _inj = run_chaos(seed)
    assert_same_as_reference(tb.logger.records)


def test_trace_command_testbed_matches_the_reference():
    from repro.cli import _demo_fetch
    assert_same_as_reference(_demo_fetch(4).logger.records)
