"""Declarative per-tenant SLOs with multi-window burn-rate alerting.

The ESG follow-on made federation-wide monitoring a first-class
service; this module is the *enforcement* half of that: a tenant
declares objectives (p95 TTFB, a goodput floor, a queue-wait bound, an
integrity-detection latency bound) and the engine evaluates them over
sliding windows of the live metrics registry.

Cumulative histograms cannot answer windowed questions directly, so the
engine keeps periodic **bucket-row snapshots** per objective and diffs
them: the delta of two cumulative rows is the distribution of exactly
the observations that landed between the snapshots, and the
interpolated quantile/over-threshold helpers in :mod:`repro.obs.metrics`
turn that delta into a windowed p95 or an error rate.

Alerting follows the SRE multi-window multi-burn-rate recipe: an
objective *pages* only when both the long window (sustained damage) and
the short window (still happening right now) burn error budget faster
than the configured rate. Breach begin/end are emitted as ULM events,
which the tracer shows as ``slo.breach`` spans on the shared
``"faults"`` trace, so an SLO breach lands on the same timeline as the
injected faults that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import Observability
from repro.obs.metrics import (
    Histogram,
    count_over_threshold,
    quantile_from_counts,
)

#: objective keyword → (metric name, evaluation kind). Latency
#: objectives read a tenant-labelled histogram; throughput objectives
#: read a tenant-labelled byte counter.
OBJECTIVES: Dict[str, Tuple[str, str]] = {
    "p95_ttfb": ("rm.tenant_ttfb_seconds", "latency"),
    "queue_wait_p95": ("rm.queue_seconds", "latency"),
    "integrity_latency": ("rm.tenant_verify_seconds", "latency"),
    "goodput_floor": ("rm.tenant_bytes_total", "throughput"),
}


@dataclass(frozen=True)
class SloSpec:
    """One tenant's declared objective.

    Attributes
    ----------
    name:
        Alert/report identifier (unique per engine).
    objective:
        One of :data:`OBJECTIVES`.
    threshold:
        Seconds for latency objectives (the bound a request should stay
        under); bytes/second for ``goodput_floor`` (the floor).
    tenant:
        Metric label selector; empty string matches the unlabelled
        series.
    error_budget:
        Allowed fraction of requests over the threshold (latency
        objectives only) — p95 bounds use the default 0.05.
    long_window / short_window:
        Sliding windows in simulated seconds (sustained vs current).
    burn_threshold:
        Error-budget burn rate at/above which a window counts as
        burning; both windows must burn to open an alert.
    """

    name: str
    objective: str
    threshold: float
    tenant: str = ""
    error_budget: float = 0.05
    long_window: float = 300.0
    short_window: float = 60.0
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r} "
                             f"(have: {sorted(OBJECTIVES)})")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not (0.0 < self.error_budget < 1.0):
            raise ValueError("error_budget must be in (0, 1)")
        if self.short_window <= 0 or self.long_window < self.short_window:
            raise ValueError("need 0 < short_window <= long_window")

    @property
    def labels(self) -> Dict[str, str]:
        return {"tenant": self.tenant} if self.tenant else {}


@dataclass(frozen=True)
class SloEvaluation:
    """One spec's state at one evaluation instant."""

    t: float
    spec: str
    value_long: Optional[float]    # windowed p95 (latency) / goodput
    value_short: Optional[float]
    burn_long: float
    burn_short: float
    breaching: bool


@dataclass
class SloAlert:
    """One open/closed breach episode."""

    spec: str
    tenant: str
    opened_at: float
    closed_at: Optional[float] = None
    peak_burn: float = 0.0

    @property
    def open(self) -> bool:
        return self.closed_at is None


class SloEngine:
    """Periodic evaluator for a set of :class:`SloSpec` objectives.

    Call :meth:`add` for each spec, then :meth:`start`; or call
    :meth:`evaluate` manually at instants of your choosing (tests).
    """

    def __init__(self, env, obs: Observability,
                 eval_interval: float = 15.0):
        if eval_interval <= 0:
            raise ValueError("eval_interval must be positive")
        self.env = env
        self.obs = obs
        self.eval_interval = float(eval_interval)
        self.specs: List[SloSpec] = []
        # per spec: [(t, state)] snapshots; state is a bucket row copy
        # (latency) or a counter value (throughput).
        self._snaps: Dict[str, List[Tuple[float, object]]] = {}
        # window baseline before any snapshot exists: engine creation
        self._started_at: float = float(env.now)
        # newest evaluation per spec name
        self._latest: Dict[str, SloEvaluation] = {}
        self.alerts: List[SloAlert] = []
        self._open: Dict[str, SloAlert] = {}
        self.started = False

    def add(self, spec: SloSpec) -> SloSpec:
        if any(s.name == spec.name for s in self.specs):
            raise ValueError(f"duplicate SLO name {spec.name!r}")
        self.specs.append(spec)
        return spec

    def start(self) -> None:
        """Launch the periodic evaluation process (idempotent)."""
        if self.started:
            return
        self.started = True
        self.env.process(self._run())

    def _run(self):
        while True:
            yield self.env.timeout(self.eval_interval)
            self.evaluate()

    # -- evaluation -------------------------------------------------------
    def _observe_state(self, spec: SloSpec):
        """Read the spec's metric right now (None = no data yet)."""
        metric_name, kind = OBJECTIVES[spec.objective]
        metric = (self.obs.metrics.get(metric_name)
                  if self.obs.metrics is not None else None)
        if metric is None:
            return None
        if kind == "latency":
            if not isinstance(metric, Histogram):
                return None
            return metric.bucket_row(**spec.labels)
        return metric.value(**spec.labels)

    def _window_state(self, spec: SloSpec, window: float):
        """The newest snapshot at least ``window`` old (the baseline the
        current state is diffed against), plus the span it covers."""
        now = self.env.now
        snaps = self._snaps.get(spec.name, [])
        baseline = None
        baseline_t = self._started_at
        for t, state in snaps:
            if t <= now - window + 1e-9:
                baseline, baseline_t = state, t
            else:
                break
        return baseline, max(now - baseline_t, 1e-9)

    def _burn(self, spec: SloSpec, window: float
              ) -> Tuple[Optional[float], float]:
        """(windowed value, burn rate) for one window of one spec."""
        metric_name, kind = OBJECTIVES[spec.objective]
        current = self._observe_state(spec)
        baseline, span = self._window_state(spec, window)
        if kind == "latency":
            metric = self.obs.metrics.get(metric_name)
            if current is None or metric is None:
                return None, 0.0
            row = list(current)
            if baseline is not None:
                row = [c - b for c, b in zip(row, baseline)]
            n = sum(row)
            if n <= 0:
                return None, 0.0   # no traffic in window: nothing burns
            over = count_over_threshold(metric.bounds, row,
                                        spec.threshold)
            p95 = quantile_from_counts(metric.bounds, row, 0.95)
            return p95, (over / n) / spec.error_budget
        # throughput: goodput over the window vs the declared floor.
        if current is None:
            return None, 0.0
        delta = float(current) - (float(baseline) if baseline is not None
                                  else 0.0)
        goodput = delta / span
        if delta <= 0:
            return 0.0, 0.0        # no data, not a breach (SRE practice)
        return goodput, spec.threshold / max(goodput, 1e-9)

    def evaluate(self) -> List[SloEvaluation]:
        """Evaluate every spec once at the current instant."""
        now = self.env.now
        out: List[SloEvaluation] = []
        for spec in self.specs:
            value_long, burn_long = self._burn(spec, spec.long_window)
            value_short, burn_short = self._burn(spec, spec.short_window)
            breaching = (burn_long >= spec.burn_threshold
                         and burn_short >= spec.burn_threshold)
            ev = SloEvaluation(now, spec.name, value_long, value_short,
                              burn_long, burn_short, breaching)
            out.append(ev)
            self._latest[spec.name] = ev
            self._transition(spec, ev)
            # snapshot *after* evaluating, so windows never see their
            # own snapshot as a zero-delta baseline.
            state = self._observe_state(spec)
            if state is not None:
                snaps = self._snaps.setdefault(spec.name, [])
                snaps.append((now, list(state)
                              if isinstance(state, list) else state))
                # retain one snapshot older than the long window
                horizon = now - spec.long_window
                while len(snaps) > 1 and snaps[1][0] <= horizon:
                    snaps.pop(0)
        return out

    def _transition(self, spec: SloSpec, ev: SloEvaluation) -> None:
        """Open/close alerts and emit their ULM begin/end events."""
        alert = self._open.get(spec.name)
        if ev.breaching:
            if alert is None:
                alert = self._open[spec.name] = SloAlert(spec.name,
                                                         spec.tenant, ev.t)
                self.alerts.append(alert)
                self.obs.event("slo.breach.begin", prog="slo",
                               slo=spec.name, tenant=spec.tenant,
                               objective=spec.objective,
                               burn_long=f"{ev.burn_long:.2f}",
                               burn_short=f"{ev.burn_short:.2f}")
                self.obs.count("slo.breaches_total", slo=spec.name)
            alert.peak_burn = max(alert.peak_burn, ev.burn_long,
                                  ev.burn_short)
        elif alert is not None:
            del self._open[spec.name]
            alert.closed_at = ev.t
            self.obs.event("slo.breach.end", prog="slo", slo=spec.name,
                           tenant=spec.tenant,
                           seconds=f"{ev.t - alert.opened_at:.1f}",
                           peak_burn=f"{alert.peak_burn:.2f}")
        self.obs.gauge("slo.burn_rate", ev.burn_long, slo=spec.name,
                       window="long")
        self.obs.gauge("slo.burn_rate", ev.burn_short, slo=spec.name,
                       window="short")

    # -- reporting --------------------------------------------------------
    def summary(self) -> List[dict]:
        """Last evaluation + alert history per spec (CLI table rows)."""
        rows = []
        for spec in self.specs:
            last = self._latest.get(spec.name)
            episodes = [a for a in self.alerts if a.spec == spec.name]
            rows.append({
                "slo": spec.name,
                "tenant": spec.tenant or "-",
                "objective": spec.objective,
                "threshold": spec.threshold,
                "value": last.value_long if last is not None else None,
                "burn_long": last.burn_long if last is not None else 0.0,
                "burn_short": (last.burn_short if last is not None
                               else 0.0),
                "breaching": (last.breaching if last is not None
                              else False),
                "alerts": len(episodes),
                "open": sum(1 for a in episodes if a.open),
            })
        return rows

    def __repr__(self) -> str:
        return (f"SloEngine({len(self.specs)} specs, "
                f"{len(self.alerts)} alerts)")
