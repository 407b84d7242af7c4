"""Turning raw rate series and event logs into the paper's numbers.

Two halves:

- the **bandwidth half** (:func:`summarize`, :func:`bandwidth_timeline`)
  turns per-flow rate series into the Table 1 block and the Figure 8
  timeline;
- the **lifeline half** (:func:`reconstruct`,
  :func:`reconstruct_lifelines`, :func:`stage_breakdown`,
  :func:`ttfb_values`, :func:`failure_breakdown`) replays a ULM event
  log into *lifelines* — the NetLogger methodology: each request's path
  for one file through request → select → connect → first byte →
  done/failed, with per-stage latency, time-to-first-byte,
  failure-class attribution, and the fault windows that overlapped it.

A lifeline is keyed by ``(ticket, file)``: two tickets that move one
logical file get two lifelines. Records that name a file but no ticket
(``hrm.stage.*``, ``tape.read.begin``: one stage serves every requester
of a file) join every lifeline of that file that is not yet terminal,
else the most recently opened one; before any exists they are held for
the first. The same reconstruction extracts the fault windows and SLO
breaches, so the span trees of :mod:`repro.obs.trace` come from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.net.recorder import RateSeries, aggregate_series
from repro.net.units import to_gbps, to_mbps
from repro.netlogger.log import LogRecord


@dataclass(frozen=True)
class BandwidthSummary:
    """The Table 1 measurement block for one experiment.

    All rates in bytes/s; the ``*_mbps``/``*_gbps`` helpers convert for
    reporting.
    """

    peak_100ms: float
    peak_5s: float
    sustained: float
    sustained_window: float
    total_bytes: float
    duration: float

    @property
    def peak_100ms_gbps(self) -> float:
        return to_gbps(self.peak_100ms)

    @property
    def peak_5s_gbps(self) -> float:
        return to_gbps(self.peak_5s)

    @property
    def sustained_mbps(self) -> float:
        return to_mbps(self.sustained)

    @property
    def total_gbytes(self) -> float:
        """Total volume in decimal gigabytes (as the paper reports)."""
        return self.total_bytes / 1e9

    def rows(self) -> list:
        """(label, value) rows in the Table 1 layout."""
        if self.sustained_window >= 3600:
            window = f"{self.sustained_window / 3600:.0f} hour"
        else:
            window = f"{self.sustained_window / 60:.0f} minutes"
        return [
            ("Peak transfer rate over 0.1 seconds",
             f"{self.peak_100ms_gbps:.2f} Gbits/sec"),
            ("Peak transfer rate over 5 seconds",
             f"{self.peak_5s_gbps:.2f} Gbits/sec"),
            (f"Sustained transfer rate over {window}",
             f"{self.sustained_mbps:.1f} Mbits/sec"),
            ("Total data transferred",
             f"{self.total_gbytes:.1f} Gbytes"),
        ]


def bandwidth_timeline(series: Iterable[RateSeries],
                       bin_seconds: float = 60.0
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate per-flow series into a binned bandwidth timeline.

    Returns (bin_start_times, mean_rates) — the Figure 8 plot data.
    """
    agg = aggregate_series(series)
    return agg.sample(bin_seconds)


def summarize(series: Iterable[RateSeries],
              sustained_window: Optional[float] = None,
              t0: Optional[float] = None,
              t1: Optional[float] = None) -> BandwidthSummary:
    """Compute the Table 1 measurement block from per-flow series.

    ``sustained_window`` defaults to the full [t0, t1] span; pass 3600
    for the paper's one-hour sustained figure (the best one-hour window
    is used).
    """
    agg = aggregate_series(series)
    lo = agg.t_start if t0 is None else t0
    hi = agg.t_end if t1 is None else t1
    span = hi - lo
    if span <= 0:
        raise ValueError("empty measurement interval")
    window = sustained_window if sustained_window is not None else span
    sustained = (agg.peak_windowed(window) if window < span
                 else agg.bytes_between(lo, hi) / span)
    return BandwidthSummary(
        peak_100ms=agg.peak_windowed(0.1),
        peak_5s=agg.peak_windowed(5.0),
        sustained=sustained,
        sustained_window=window,
        total_bytes=agg.bytes_between(lo, hi),
        duration=span)


# ---------------------------------------------------------------------------
# Lifelines: per-(ticket, file) event timelines reconstructed from the log.
# ---------------------------------------------------------------------------

#: Milestone event → name of the pipeline stage that *begins* at it.
#: Stages run until the next milestone (or the terminal event), so the
#: per-stage durations of a lifeline telescope to exactly
#: ``finished_at - requested_at``.
MILESTONE_STAGES: Dict[str, str] = {
    "rm.request": "select",          # catalog lookup + forecast + rank
    "rm.select": "connect",          # control connection + auth
    "rm.queue": "queue",             # scheduler admission queue wait
    "rm.granted": "connect",         # admitted; connect resumes
    "gridftp.connect": "first_byte", # command setup, staging, data start
    "hrm.stage.request": "stage",    # tape → disk staging in progress
    "tape.read.begin": "read",       # drive streaming the cartridge
    "hrm.stage.done": "first_byte",  # staging over; waiting on data again
    "gridftp.first_byte": "stream",  # bytes flowing
    "rm.verify": "verify",           # checksum scan on arrival
    "rm.retry": "backoff",           # waiting out a retry round
}

#: Terminal event → lifeline outcome.
TERMINAL_EVENTS: Dict[str, str] = {
    "rm.transfer.done": "done",
    "rm.failure": "failed",
    "rm.cancelled": "cancelled",
}

#: The milestones a successful lifeline must have visited, in order.
COMPLETE_PATH = ("rm.request", "rm.select", "gridftp.connect",
                 "gridftp.first_byte")


@dataclass(frozen=True)
class LifeStage:
    """One contiguous pipeline stage within a lifeline."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class FaultWindow:
    """One injected fault's active window (from fault.begin/fault.end)."""

    kind: str
    target: str
    start: float
    end: float
    description: str = ""

    def overlaps(self, t0: float, t1: float) -> bool:
        return self.start < t1 and self.end > t0


@dataclass
class Lifeline:
    """Everything one ticket's request for one file went through."""

    file: str
    ticket: Optional[str] = None
    events: List[LogRecord] = field(default_factory=list)
    stages: List[LifeStage] = field(default_factory=list)
    outcome: Optional[str] = None          # done | failed | cancelled
    failure_class: Optional[str] = None    # FailureClass value on failure
    error: Optional[str] = None
    requested_at: Optional[float] = None
    finished_at: Optional[float] = None
    faults: List[FaultWindow] = field(default_factory=list)
    seq: List[int] = field(default_factory=list)  # events' log positions

    @property
    def duration(self) -> Optional[float]:
        if self.requested_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.requested_at

    @property
    def ttfb(self) -> Optional[float]:
        """Time from first GridFTP connect to the first byte arriving."""
        connect = self._first("gridftp.connect")
        first = self._first("gridftp.first_byte")
        if connect is None or first is None:
            return None
        return first - connect

    @property
    def complete(self) -> bool:
        """True when the lifeline is terminal and — for successes —
        visited every milestone of the canonical path in order."""
        if self.outcome is None:
            return False
        if self.outcome != "done":
            return True
        t = -float("inf")
        for name in COMPLETE_PATH:
            at = self._first(name, after=t)
            if at is None:
                return False
            t = at
        return True

    def stage_totals(self) -> Dict[str, float]:
        """Total seconds per stage name (repeats summed)."""
        totals: Dict[str, float] = {}
        for stage in self.stages:
            totals[stage.name] = totals.get(stage.name, 0.0) \
                + stage.duration
        return totals

    def _first(self, event: str,
               after: float = -float("inf")) -> Optional[float]:
        for rec in self.events:
            if rec.event == event and rec.t >= after:
                return rec.t
        return None

    def __repr__(self) -> str:
        dur = f"{self.duration:.3f}s" if self.duration is not None else "?"
        return (f"Lifeline({self.file!r}, {self.outcome or 'incomplete'}, "
                f"{len(self.stages)} stages, {dur})")


@dataclass(frozen=True)
class StageStats:
    """Aggregate latency statistics for one stage name."""

    name: str
    count: int
    total: float
    mean: float
    max: float


def extract_fault_windows(records: Iterable[LogRecord]
                          ) -> List[FaultWindow]:
    """Pair fault.begin / fault.end events into windows.

    Events pair on their ``fault`` id, so overlapping windows on one
    target stay distinct; records without one (older logs) pair on
    (kind, target). Windows come out in start order, ties in begin
    order. Unmatched begins (the run ended mid-fault) close at +inf so
    they still overlap everything after their onset.
    """
    open_faults: Dict[object, int] = {}   # pairing key -> window index
    windows: List[FaultWindow] = []
    for rec in records:
        if rec.event not in ("fault.begin", "fault.end"):
            continue
        f = rec.fields
        kind, target = f.get("kind", "?"), f.get("target", "?")
        key = f.get("fault") or (kind, target)
        if rec.event == "fault.begin":
            open_faults[key] = len(windows)
            windows.append(FaultWindow(kind, target, rec.t, float("inf"),
                                       f.get("description", "")))
        elif key in open_faults:
            i = open_faults.pop(key)
            windows[i] = replace(windows[i], end=rec.t)
    windows.sort(key=lambda w: w.start)
    return windows


def reconstruct(records: Iterable[LogRecord]
                ) -> Tuple[List[Lifeline], List[FaultWindow], List[list]]:
    """Group a ULM log in one time-ordered pass into its lifelines (keyed
    by ``(ticket, file)`` under the rule in the module docstring, each
    with the fault windows overlapping its active period attached), its
    fault windows, and its SLO breaches as ``[log position,
    slo.breach.begin, its slo.breach.end or None]`` in begin order."""
    ordered = sorted(records, key=lambda r: r.t)
    lifelines: List[Lifeline] = []
    keyed: Dict[Tuple[str, str], Lifeline] = {}
    by_file: Dict[str, List[Lifeline]] = {}    # in opening order
    breaches: List[list] = []
    open_breaches: Dict[str, list] = {}        # slo -> its open breach

    def opened(name: str, ticket: Optional[str]) -> Lifeline:
        life = Lifeline(file=name, ticket=ticket)
        lifelines.append(life)
        by_file[name].append(life)
        return life

    for pos, rec in enumerate(ordered):
        f = rec.fields
        if rec.event == "slo.breach.begin":
            breaches.append([pos, rec, None])
            open_breaches[f.get("slo")] = breaches[-1]
        elif rec.event == "slo.breach.end" and f.get("slo") in open_breaches:
            open_breaches.pop(f["slo"])[2] = rec
        name = f.get("file")
        if name is None:
            continue
        ticket = f.get("ticket")
        lives = by_file.setdefault(name, [])
        if ticket is None:
            joined = ([life for life in lives if life.outcome is None]
                      or lives[-1:] or [opened(name, None)])
        else:
            life = keyed.get((ticket, name))
            if life is None:
                if lives and lives[0].ticket is None:
                    life = lives[0]     # takes over the records held for it
                    life.ticket = ticket
                else:
                    life = opened(name, ticket)
                keyed[ticket, name] = life
            joined = [life]
        for life in joined:
            life.events.append(rec)
            life.seq.append(pos)
            if rec.event in TERMINAL_EVENTS:
                life.outcome = TERMINAL_EVENTS[rec.event]
    windows = extract_fault_windows(ordered)
    for life in lifelines:
        _build_stages(life)
        t0 = life.requested_at
        t1 = (life.finished_at if life.finished_at is not None
              else float("inf"))
        if t0 is not None:
            life.faults = [w for w in windows if w.overlaps(t0, t1)]
    return lifelines, windows, breaches


def reconstruct_lifelines(records: Iterable[LogRecord]) -> List[Lifeline]:
    """The log's lifelines, in the order of their first records."""
    return reconstruct(records)[0]


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


@dataclass
class ReconstructionReport:
    """How much of the ULM log survived into usable lifelines.

    A bounded ring buffer (``log_capacity``) drops the *oldest* records
    first, so long runs lose the early milestones of early files —
    their lifelines reconstruct without a request event or without a
    terminal. This report makes that loss explicit instead of letting
    incomplete lifelines silently vanish from downstream analysis.
    """

    total: int
    complete: int
    incomplete: List[Tuple[str, str]] = field(default_factory=list)
    dropped: int = 0                 # ring-buffer evictions (if known)

    @property
    def incomplete_count(self) -> int:
        return len(self.incomplete)

    @property
    def complete_fraction(self) -> float:
        return self.complete / self.total if self.total else 1.0

    def reasons(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _file, reason in self.incomplete:
            out[reason] = out.get(reason, 0) + 1
        return dict(sorted(out.items()))

    def render(self) -> str:
        lines = [f"lifelines: {self.total} total, {self.complete} "
                 f"complete ({self.complete_fraction:.0%}), "
                 f"{self.incomplete_count} incomplete; "
                 f"{self.dropped} log records dropped"]
        for reason, n in self.reasons().items():
            lines.append(f"  {reason}: {n}")
        return "\n".join(lines)


def reconstruction_report(lifelines: Iterable[Lifeline],
                          dropped: int = 0) -> ReconstructionReport:
    """Partition lifelines into complete vs incomplete, with reasons.

    ``dropped`` is the source log's ring-buffer eviction count (pass
    ``logger.dropped``), reported alongside so a nonzero incomplete
    count can be traced to its cause.
    """
    lives = list(lifelines)
    report = ReconstructionReport(total=len(lives), complete=0,
                                  dropped=dropped)
    for life in lives:
        if life.requested_at is None:
            report.incomplete.append((life.file, "no-request-event"))
        elif life.outcome is None:
            report.incomplete.append((life.file, "no-terminal-event"))
        elif not life.complete:
            report.incomplete.append((life.file, "missing-milestones"))
        else:
            report.complete += 1
    return report


def stage_breakdown(lifelines: Iterable[Lifeline]
                    ) -> Dict[str, StageStats]:
    """Aggregate per-stage latency statistics across lifelines."""
    acc: Dict[str, List[float]] = {}
    for life in lifelines:
        for stage in life.stages:
            acc.setdefault(stage.name, []).append(stage.duration)
    return {name: StageStats(name=name, count=len(vals),
                             total=float(sum(vals)),
                             mean=float(sum(vals) / len(vals)),
                             max=float(max(vals)))
            for name, vals in sorted(acc.items())}


def ttfb_values(lifelines: Iterable[Lifeline]) -> List[float]:
    """Time-to-first-byte distribution across lifelines (where known)."""
    return [life.ttfb for life in lifelines if life.ttfb is not None]


def failure_breakdown(lifelines: Iterable[Lifeline]) -> Dict[str, int]:
    """Failed-lifeline counts per FailureClass value."""
    out: Dict[str, int] = {}
    for life in lifelines:
        if life.outcome == "failed":
            cls = life.failure_class or "?"
            out[cls] = out.get(cls, 0) + 1
    return dict(sorted(out.items()))
