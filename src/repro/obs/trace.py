"""Causal tracing: span trees rebuilt from the ULM event log.

A :class:`Span` is one timed operation (a ticket, a file's pipeline, a
replica attempt, a fault window, an SLO breach); spans form trees via
``parent_id`` and share a ``trace_id`` (``ticket-<id>`` per request
ticket, or the shared ``"faults"`` trace for injected incidents and SLO
breaches), so `repro trace` can show a CDAT request, its GridFTP
attempts, *and* the fault windows that explain the retries — on one
timeline.

The :class:`Tracer` records nothing: it is a read-only view that
rebuilds spans from the records a :class:`~repro.netlogger.log.NetLogger`
still holds. Every span is backed by a record in the log, so a bounded
(ring-buffer) log bounds the spans too; a span whose closing record has
not been logged yet is open. Where each span comes from:

- ``rm.ticket`` / ``rm.file`` — ``rm.request`` records grouped by
  (ticket, file); a file span ends at the file's
  :data:`~repro.netlogger.analysis.TERMINAL_EVENTS` record, the ticket
  span when its last file does;
- ``rm.attempt`` — opened by ``rm.attempt``, closed by the file's next
  ``rm.transfer.done`` (ok) or ``rm.attempt.failed`` (error);
- ``fault.<kind>`` — :func:`~repro.netlogger.analysis.extract_fault_windows`;
- ``slo.breach`` — ``slo.breach.begin`` / ``slo.breach.end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.netlogger.analysis import TERMINAL_EVENTS, extract_fault_windows
from repro.netlogger.log import LogRecord, NetLogger


@dataclass
class Span:
    """One timed, attributed operation within a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    started_at: float
    ended_at: Optional[float] = None
    status: str = "open"
    fields: Dict[str, str] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.ended_at is None

    @property
    def duration(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def _close(self, t: float, status: str, **fields: str) -> None:
        self.ended_at = t
        self.status = status
        self.fields.update(fields)

    def __repr__(self) -> str:
        dur = f"{self.duration:.3f}s" if self.duration is not None else "open"
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"{self.status}, {dur})")


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


class Tracer:
    """A read-only span view over one run's event log."""

    def __init__(self, logger: NetLogger):
        self.logger = logger

    @property
    def spans(self) -> List[Span]:
        """Every span the log's surviving records describe."""
        return build_spans(self.logger.records)

    # -- queries ----------------------------------------------------------
    def for_trace(self, trace_id: str) -> List[Span]:
        """Every span of one trace, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def find(self, name: str) -> List[Span]:
        """Every span with a given operation name."""
        return [s for s in self.spans if s.name == name]

    def traces(self) -> List[str]:
        """Distinct trace ids, in first-seen order."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.trace_id, None)
        return list(seen)

    # -- rendering --------------------------------------------------------
    def render_tree(self, trace_id: str) -> str:
        """An indented text rendering of one trace's span tree."""
        spans = self.for_trace(trace_id)
        children: Dict[Optional[str], List[Span]] = {}
        for s in spans:
            children.setdefault(s.parent_id, []).append(s)
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans
                 if s.parent_id is None or s.parent_id not in by_id]
        lines = [f"trace {trace_id}"]

        def walk(span: Span, depth: int) -> None:
            dur = (f"{span.duration:.3f}s" if span.duration is not None
                   else "open")
            extra = " ".join(f"{k}={v}" for k, v in
                             sorted(span.fields.items()))
            lines.append(f"{'  ' * depth}- {span.name} "
                         f"[{span.started_at:.3f}s +{dur}] "
                         f"{span.status}" + (f" {extra}" if extra else ""))
            for child in children.get(span.span_id, []):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 1)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer({len(self)} spans)"
