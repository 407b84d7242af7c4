"""Per-file grouping and the raw-record span walk: the test-side oracle.

The analysis tier once walked the ULM log twice. ``reconstruct_lifelines``
below grouped every record by its ``file`` field alone, and
``build_spans`` walked the same records again with its own grouping by
``(ticket, file)``. Both are kept here verbatim, along with the stage
builder they used, so the differential test
(``tests/netlogger/test_lifeline_differential.py``) can require the one
keyed reconstruction in :mod:`repro.netlogger.analysis` to give the same
lifelines and spans on every log with one ticket per file.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.netlogger.analysis import (MILESTONE_STAGES, TERMINAL_EVENTS,
                                      LifeStage, Lifeline,
                                      extract_fault_windows)
from repro.netlogger.log import LogRecord
from repro.obs.trace import Span


def reconstruct_lifelines(records: Iterable[LogRecord],
                          attach_faults: bool = True
                          ) -> Dict[str, Lifeline]:
    """Group a ULM log into per-file lifelines with stage breakdowns.

    Any record carrying a ``file`` field joins that file's lifeline;
    records are processed in time order. With ``attach_faults`` (the
    default), fault windows overlapping a lifeline's active period are
    attached to it — the injected cause lands on the same timeline as
    its symptom.
    """
    ordered = sorted(records, key=lambda r: r.t)
    lifelines: Dict[str, Lifeline] = {}
    for rec in ordered:
        name = rec.fields.get("file")
        if name is None:
            continue
        life = lifelines.get(name)
        if life is None:
            life = lifelines[name] = Lifeline(file=name)
        life.events.append(rec)
        if life.ticket is None and "ticket" in rec.fields:
            life.ticket = rec.fields["ticket"]
    for life in lifelines.values():
        _build_stages(life)
    if attach_faults:
        for window in extract_fault_windows(ordered):
            for life in lifelines.values():
                t0 = life.requested_at
                t1 = (life.finished_at if life.finished_at is not None
                      else float("inf"))
                if t0 is not None and window.overlaps(t0, t1):
                    life.faults.append(window)
    return lifelines


def _build_stages(life: Lifeline) -> None:
    """Derive the stage list from a lifeline's milestone events."""
    current: Optional[Tuple[str, float]] = None
    for rec in life.events:
        if rec.event == "rm.request" and life.requested_at is None:
            life.requested_at = rec.t
        if rec.event in TERMINAL_EVENTS:
            if current is not None:
                life.stages.append(LifeStage(current[0], current[1],
                                             rec.t))
                current = None
            life.outcome = TERMINAL_EVENTS[rec.event]
            life.finished_at = rec.t
            if rec.event == "rm.failure":
                life.failure_class = rec.fields.get("cls")
                life.error = rec.fields.get("reason")
            continue
        stage_name = MILESTONE_STAGES.get(rec.event)
        if stage_name is None:
            continue
        if (rec.event == "hrm.stage.done" and current is not None
                and current[0] == "stream"):
            # Cut-through: bytes were already flowing when staging
            # finished — the client-visible phase does not regress to
            # "waiting for first byte".
            continue
        if current is not None:
            life.stages.append(LifeStage(current[0], current[1], rec.t))
        current = (stage_name, rec.t)
    if current is not None:
        # Run ended mid-flight: close the open stage at its own start so
        # durations stay well-defined (zero-length tail).
        life.stages.append(LifeStage(current[0], current[1], current[1]))


def build_spans(records: Iterable[LogRecord]) -> List[Span]:
    """Rebuild every span the records describe, in start order."""
    records = list(records)
    spans: List[Span] = []
    tickets: Dict[str, Tuple[Span, List[Span]]] = {}
    files: Dict[Tuple[str, str], Span] = {}
    attempts: Dict[Tuple[str, str], Span] = {}   # the open one per file
    tries: Dict[Tuple[str, str], int] = {}
    breaches: Dict[str, Span] = {}
    for rec in records:
        event, f = rec.event, rec.fields
        key = (f.get("ticket", "?"), f.get("file", "?"))
        trace = f"ticket-{key[0]}"
        file_id = f"{trace}/{key[1]}"
        if event == "rm.request":
            if key[0] not in tickets:
                ticket = Span("rm.ticket", trace, trace, None, rec.t,
                              fields={"ticket": key[0]})
                tickets[key[0]] = (ticket, [])
                spans.append(ticket)
            ticket, members = tickets[key[0]]
            span = files[key] = Span("rm.file", trace, file_id, trace, rec.t,
                                     fields={"ticket": key[0],
                                             "file": key[1]})
            members.append(span)
            ticket.fields["files"] = str(len(members))
            spans.append(span)
        elif event == "rm.attempt":
            tries[key] = tries.get(key, 0) + 1
            span = attempts[key] = Span(
                "rm.attempt", trace, f"{file_id}#{tries[key]}", file_id,
                rec.t, fields={"file": key[1], "host": rec.host})
            spans.append(span)
        elif event == "rm.attempt.failed" and key in attempts:
            attempts.pop(key)._close(rec.t, "error", error=f["error"])
        elif event == "rm.transfer.done" and key in attempts:
            attempts.pop(key)._close(rec.t, "ok", bytes=f["bytes"])
        elif event == "slo.breach.begin":
            span = breaches[f["slo"]] = Span(
                "slo.breach", "faults", f"slo-{f['slo']}@{rec.t}", None,
                rec.t, fields={k: f[k] for k in ("slo", "tenant",
                                                 "objective")})
            spans.append(span)
        elif event == "slo.breach.end" and f.get("slo") in breaches:
            breaches.pop(f["slo"])._close(rec.t, "recovered",
                                          peak_burn=f["peak_burn"])
        if event in TERMINAL_EVENTS and key in files:
            files.pop(key)._close(rec.t, TERMINAL_EVENTS[event])
            ticket, members = tickets[key[0]]
            if all(not m.open for m in members):
                ticket._close(rec.t, "ok")
    for n, window in enumerate(extract_fault_windows(records), 1):
        done = window.end != float("inf")
        spans.append(Span(f"fault.{window.kind}", "faults", f"fault-{n}",
                          None, window.start,
                          window.end if done else None,
                          "ok" if done else "open",
                          {"target": window.target,
                           "description": window.description}))
    spans.sort(key=lambda s: s.started_at)
    return spans
