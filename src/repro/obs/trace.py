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
not been logged yet is open. Every span derives from the log's one
reconstruction, :func:`~repro.netlogger.analysis.reconstruct`, with a
lifeline per ``(ticket, file)``; nothing here walks the raw records:

- ``rm.file`` — a lifeline with an ``rm.request``, from its first
  request to its terminal event, with the lifeline's outcome as status;
- ``rm.ticket`` — the file spans of one ticket, ending when its last
  file does;
- ``rm.attempt`` — the lifeline's ``rm.attempt`` records, each closed by
  the next ``rm.transfer.done`` (ok) or ``rm.attempt.failed`` (error);
- ``fault.<kind>`` — the reconstruction's fault windows;
- ``slo.breach`` — its paired ``slo.breach.begin`` / ``slo.breach.end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.netlogger.analysis import reconstruct
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
    lifelines, faults, breaches = reconstruct(records)
    # Keyed (start, log position of the opening record): spans opened
    # together keep the log's order, a ticket just before its first file
    # and fault windows after the rest.
    keyed: List[Tuple[Tuple[float, float], Span]] = []
    tickets: Dict[str, List[Tuple[Tuple[float, float], Span]]] = {}
    for life in lifelines:
        ticket = life.ticket or "?"
        trace = f"ticket-{ticket}"
        file_id = f"{trace}/{life.file}"
        file_span = attempt = None
        tries = 0
        for pos, rec in zip(life.seq, life.events):
            if rec.event == "rm.request" and file_span is None:
                file_span = Span("rm.file", trace, file_id, trace, rec.t,
                                 fields={"ticket": ticket,
                                         "file": life.file})
                keyed.append(((rec.t, pos), file_span))
                tickets.setdefault(ticket, []).append(keyed[-1])
            elif rec.event == "rm.attempt":
                tries += 1
                attempt = Span("rm.attempt", trace, f"{file_id}#{tries}",
                               file_id, rec.t,
                               fields={"file": life.file, "host": rec.host})
                keyed.append(((rec.t, pos), attempt))
            elif rec.event == "rm.attempt.failed" and attempt is not None:
                attempt._close(rec.t, "error", error=rec.fields["error"])
                attempt = None
            elif rec.event == "rm.transfer.done" and attempt is not None:
                attempt._close(rec.t, "ok", bytes=rec.fields["bytes"])
                attempt = None
        if file_span is not None and life.outcome is not None:
            file_span._close(life.finished_at, life.outcome)
    for ticket, members in tickets.items():
        (t0, pos), _ = min(members, key=itemgetter(0))
        trace = f"ticket-{ticket}"
        span = Span("rm.ticket", trace, trace, None, t0,
                    fields={"ticket": ticket, "files": str(len(members))})
        if not any(m.open for _, m in members):
            span._close(max(m.ended_at for _, m in members), "ok")
        keyed.append(((t0, pos - 0.5), span))
    for n, window in enumerate(faults, 1):
        done = window.end != float("inf")
        keyed.append(((window.start, float("inf")), Span(
            f"fault.{window.kind}", "faults", f"fault-{n}", None,
            window.start, window.end if done else None,
            "ok" if done else "open",
            {"target": window.target, "description": window.description})))
    for pos, begin, end in breaches:
        f = begin.fields
        span = Span("slo.breach", "faults", f"slo-{f['slo']}@{begin.t}",
                    None, begin.t, fields={k: f[k] for k in
                                           ("slo", "tenant", "objective")})
        if end is not None:
            span._close(end.t, "recovered", peak_burn=end.fields["peak_burn"])
        keyed.append(((begin.t, pos), span))
    keyed.sort(key=itemgetter(0))
    return [span for _, span in keyed]


def trace_ids(spans: Iterable[Span]) -> List[str]:
    """Distinct trace ids, in first-seen order."""
    seen: Dict[str, None] = {}
    for s in spans:
        seen.setdefault(s.trace_id, None)
    return list(seen)


def render_trace(spans: Iterable[Span], trace_id: str) -> str:
    """An indented text rendering of one trace's span tree."""
    spans = [s for s in spans if s.trace_id == trace_id]
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


class Tracer:
    """A read-only span view over one run's event log.

    The spans are built once per state of the log: queries reuse them
    until the logger emits another record (or the tracer is pointed at
    another logger).
    """

    def __init__(self, logger: NetLogger):
        self.logger = logger
        self._built: Optional[Tuple[NetLogger, int, List[Span]]] = None

    @property
    def spans(self) -> List[Span]:
        """Every span the log's surviving records describe."""
        logger = self.logger
        built = self._built
        if (built is None or built[0] is not logger
                or built[1] != logger.emitted):
            built = self._built = (logger, logger.emitted,
                                   build_spans(logger.records))
        return list(built[2])

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer({len(self)} spans)"
