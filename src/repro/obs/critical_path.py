"""Critical-path extraction and dominant-bottleneck attribution.

The paper's central question is *where* the end-to-end path loses time
— catalog lookup, tape mount, staging, WAN transfer. A reconstructed
:class:`~repro.netlogger.analysis.Lifeline` already carries contiguous
milestone stages; this module turns them into an answer:

- :func:`extract_critical_path` clips a lifeline's stages to the
  request's own window ``[requested_at, finished_at]`` (speculative
  prefetch that ran *before* the request is, by definition, not on its
  critical path) and relabels them with blame categories;
- :func:`attribute_bottleneck` aggregates many critical paths into a
  dominant-bottleneck report — per-stage self-time totals, per-file
  dominant-stage counts — and **names the saturated resource** by
  joining the dominant stage against a
  :class:`~repro.obs.timeseries.TimeSeriesRecorder`: the busiest series
  of the stage's resource family (tape drives for mount/stage blame,
  WAN links for transfer blame, scheduler queues for queue blame, ...)
  over the same simulated window.

Because stages telescope (each begins where the previous ended), the
blame self-times of one file sum to exactly its end-to-end latency —
the accounting identity the chaos-run test suite pins to 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.netlogger.analysis import Lifeline
from repro.obs.timeseries import TimeSeriesRecorder

#: Lifeline stage name → blame category. Finer-grained than the raw
#: stages where the time series can tell resources apart: "stage" time
#: before the drive streams is mount/seek/queue blame ("mount"); once
#: ``tape.read.begin`` fires it is streaming blame ("stage").
BLAME_STAGES: Dict[str, str] = {
    "select": "catalog",        # replica lookup + forecast + rank
    "queue": "queue",           # scheduler admission wait
    "connect": "connect",       # control connection + auth
    "stage": "mount",           # drive wait + cartridge mount + seek
    "read": "stage",            # tape streaming into the disk cache
    "first_byte": "first_byte", # command setup, waiting on data start
    "stream": "transfer",       # bytes on the WAN
    "verify": "verify",         # checksum scan on arrival
    "backoff": "retry",         # waiting out a retry round
}

#: Blame category → time-series name prefixes of the resource family
#: that could explain it (the join key for naming the saturated
#: resource). Empty tuple = no physical resource to blame (retry time
#: is a symptom, not a resource).
STAGE_RESOURCES: Dict[str, Tuple[str, ...]] = {
    "catalog": ("catalog.",),
    "queue": ("sched.",),
    "connect": ("server.", "sched."),
    "mount": ("tape.",),
    "stage": ("tape.",),
    "first_byte": ("link.", "tape."),
    "transfer": ("link.",),
    "verify": (),
    "retry": (),
}


@dataclass(frozen=True)
class BlameStage:
    """One clipped, blame-labelled span of a critical path."""

    blame: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """One file's end-to-end path, decomposed into blame self-times."""

    file: str
    ticket: Optional[str]
    outcome: str
    start: float
    end: float
    stages: List[BlameStage] = field(default_factory=list)

    def self_times(self) -> Dict[str, float]:
        """Seconds of end-to-end latency attributed to each blame."""
        out: Dict[str, float] = {}
        for stage in self.stages:
            out[stage.blame] = out.get(stage.blame, 0.0) + stage.duration
        return out

    def dominant(self) -> Optional[Tuple[str, float]]:
        """The blame category this file spent the most time in."""
        times = self.self_times()
        if not times:
            return None
        blame = max(sorted(times), key=lambda b: times[b])
        return blame, times[blame]

    def telescopes(self, tol: float = 1e-6) -> bool:
        """Do the stage durations sum to the end-to-end latency?

        False means the log lost milestones for this file (ring-buffer
        eviction) and its blame decomposition is untrustworthy.
        """
        covered = sum(stage.duration for stage in self.stages)
        return abs(covered - (self.end - self.start)) <= tol

    def __repr__(self) -> str:
        dom = self.dominant()
        label = f"{dom[0]}={dom[1]:.2f}s" if dom else "empty"
        return (f"CriticalPath({self.file!r}, {self.outcome}, "
                f"{self.end - self.start:.2f}s, dominant {label})")


def extract_critical_path(life: Lifeline) -> Optional[CriticalPath]:
    """A lifeline's stages, clipped to its request window and blamed.

    Returns ``None`` for lifelines that never became terminal or whose
    request event was lost — use
    :func:`~repro.netlogger.analysis.reconstruction_report` to account
    for those instead of silently skipping them.
    """
    if (life.requested_at is None or life.finished_at is None
            or life.outcome is None):
        return None
    t0, t1 = life.requested_at, life.finished_at
    path = CriticalPath(file=life.file, ticket=life.ticket,
                        outcome=life.outcome, start=t0, end=t1)
    for stage in life.stages:
        start = max(stage.start, t0)
        end = min(stage.end, t1)
        if end <= start:
            continue   # pre-request prefetch / post-terminal tails
        blame = BLAME_STAGES.get(stage.name, stage.name)
        path.stages.append(BlameStage(blame, start, end))
    return path


def extract_critical_paths(lifelines: Iterable[Lifeline]
                           ) -> List[CriticalPath]:
    """Critical paths for every terminal lifeline (others skipped —
    run a reconstruction report to count them)."""
    out = []
    for life in lifelines:
        path = extract_critical_path(life)
        if path is not None:
            out.append(path)
    return out


@dataclass(frozen=True)
class ResourceFinding:
    """The saturated resource a dominant stage was joined to."""

    series: str            # time-series name (e.g. "tape.hpss-pdsf.busy")
    mean: float            # mean utilization over the analysis window
    peak: float
    busy_fraction: float   # fraction of windows at >= the threshold


@dataclass
class BottleneckReport:
    """Aggregated dominant-bottleneck attribution for a set of files."""

    files: int
    window: Tuple[float, float]
    blame_totals: Dict[str, float] = field(default_factory=dict)
    dominant_counts: Dict[str, int] = field(default_factory=dict)
    dominant_stage: Optional[str] = None
    resource: Optional[ResourceFinding] = None
    per_ticket: Dict[str, Dict[str, float]] = field(default_factory=dict)


def attribute_bottleneck(
        source: Iterable[Union[Lifeline, CriticalPath]],
        timeseries: Optional[TimeSeriesRecorder] = None,
        busy_threshold: float = 0.9) -> BottleneckReport:
    """Fold critical paths into a dominant-bottleneck report.

    ``source`` accepts lifelines (extracted on the fly) or pre-built
    critical paths. With a ``timeseries`` recorder, the dominant blame
    category is joined against its resource family
    (:data:`STAGE_RESOURCES`) and the busiest matching series over the
    report's window is named as the saturated resource.
    """
    paths: List[CriticalPath] = []
    for item in source:
        if isinstance(item, Lifeline):
            path = extract_critical_path(item)
            if path is not None:
                paths.append(path)
        else:
            paths.append(item)
    if not paths:
        return BottleneckReport(files=0, window=(0.0, 0.0))
    t0 = min(p.start for p in paths)
    t1 = max(p.end for p in paths)
    report = BottleneckReport(files=len(paths), window=(t0, t1))
    for path in paths:
        for blame, secs in path.self_times().items():
            report.blame_totals[blame] = \
                report.blame_totals.get(blame, 0.0) + secs
        dom = path.dominant()
        if dom is not None:
            report.dominant_counts[dom[0]] = \
                report.dominant_counts.get(dom[0], 0) + 1
        if path.ticket is not None:
            per = report.per_ticket.setdefault(str(path.ticket), {})
            for blame, secs in path.self_times().items():
                per[blame] = per.get(blame, 0.0) + secs
    if report.blame_totals:
        report.dominant_stage = max(
            sorted(report.blame_totals),
            key=lambda b: report.blame_totals[b])
    if timeseries is not None and report.dominant_stage is not None:
        report.resource = _join_resource(
            report.dominant_stage, timeseries, t0, t1, busy_threshold)
    return report


def _join_resource(blame: str, ts: TimeSeriesRecorder, t0: float,
                   t1: float, busy_threshold: float
                   ) -> Optional[ResourceFinding]:
    """The busiest series of the blame's resource family over the
    window — the named answer to "which resource was saturated"."""
    prefixes = STAGE_RESOURCES.get(blame, ())
    best: Optional[ResourceFinding] = None
    for name in ts.names():
        if not any(name.startswith(p) for p in prefixes):
            continue
        mean = ts.mean(name, t0, t1)
        if mean is None:
            continue
        finding = ResourceFinding(
            series=name, mean=mean,
            peak=ts.peak(name, t0, t1) or 0.0,
            busy_fraction=ts.busy_fraction(name, t0, t1,
                                           busy_threshold) or 0.0)
        if best is None or finding.mean > best.mean:
            best = finding
    return best
