"""Exact rate-series recording and analysis.

Flow rates in the fluid model are piecewise constant, so instead of
sampling bandwidth on a fixed grid we record the breakpoints exactly and
answer questions analytically:

- total bytes over an interval (integral of the step function),
- average rate over an interval,
- **peak rate over any sliding window** — e.g. the paper's "1.55 Gb/s over
  0.1 s" / "1.03 Gb/s over 5 s" numbers — computed exactly: the windowed
  mean of a step function is piecewise linear in the window position, so
  its maximum is attained where either window edge touches a breakpoint.

All computation is vectorized with numpy on the breakpoint arrays.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


class RateSeries:
    """An immutable step function ``rate(t)`` defined on [t0, t1].

    Parameters
    ----------
    times:
        Breakpoint times, strictly increasing; ``times[i]`` is where
        ``rates[i]`` starts to apply.
    rates:
        Rate (bytes/s) on each segment ``[times[i], times[i+1])``.
    t_end:
        End of the domain (the last segment runs to here). Construction
        validates and builds the arrays; a series from
        :meth:`RateRecorder.close` builds them on its first query.
    """

    def __init__(self, times: Sequence[float], rates: Sequence[float],
                 t_end: float):
        t = np.asarray(times, dtype=float)
        r = np.asarray(rates, dtype=float)
        if t.ndim != 1 or t.shape != r.shape:
            raise ValueError("times and rates must be 1-D and equal length")
        if t.size == 0:
            raise ValueError("empty series")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if t_end < t[-1]:
            raise ValueError("t_end precedes the last breakpoint")
        if np.any(r < 0):
            raise ValueError("negative rates")
        self.t_end = float(t_end)
        self._build(t, r)

    @classmethod
    def _deferred(cls, times: list, rates: list, t_end: float) -> "RateSeries":
        """Series over breakpoints a recorder validated as it took them."""
        series = cls.__new__(cls)
        series.t_end = float(t_end)
        series._pending = (times, rates)
        return series

    def _build(self, t: np.ndarray, r: np.ndarray) -> None:
        self.times = t
        self.rates = r
        # Cumulative bytes at each breakpoint plus at t_end: piecewise
        # linear; np.interp evaluates it anywhere.
        seg = np.diff(np.append(t, self.t_end))
        self._cum_t = np.append(t, self.t_end)
        self._cum_b = np.concatenate(([0.0], np.cumsum(seg * r)))

    def __getattr__(self, name: str):
        # Reached only for unset attributes: a deferred series' arrays.
        pending = self.__dict__.pop("_pending", None)
        if pending is None:
            raise AttributeError(name)
        self._build(*(np.asarray(v, dtype=float) for v in pending))
        return getattr(self, name)

    # -- basic queries ---------------------------------------------------
    @property
    def t_start(self) -> float:
        """Start of the domain."""
        return float(self.times[0])

    @property
    def total_bytes(self) -> float:
        """Integral of the rate over the whole domain."""
        return float(self._cum_b[-1])

    def cumulative_bytes(self, t) -> np.ndarray:
        """Bytes delivered from t_start up to time(s) ``t`` (clipped)."""
        return np.interp(t, self._cum_t, self._cum_b)

    def bytes_between(self, t0: float, t1: float) -> float:
        """Bytes delivered in [t0, t1]."""
        if t1 < t0:
            raise ValueError("t1 < t0")
        b = self.cumulative_bytes([t0, t1])
        return float(b[1] - b[0])

    def average(self, t0: Optional[float] = None,
                t1: Optional[float] = None) -> float:
        """Mean rate (bytes/s) over [t0, t1] (defaults to the full domain)."""
        t0 = self.t_start if t0 is None else t0
        t1 = self.t_end if t1 is None else t1
        if t1 <= t0:
            raise ValueError("empty interval")
        return self.bytes_between(t0, t1) / (t1 - t0)

    def rate_at(self, t) -> np.ndarray:
        """Instantaneous rate at time(s) ``t`` (0 outside the domain)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = np.where(idx >= 0, self.rates[np.clip(idx, 0, None)], 0.0)
        out = np.where((t < self.t_start) | (t >= self.t_end), 0.0, out)
        return out

    # -- windowed peak -----------------------------------------------------
    def peak_windowed(self, window: float) -> float:
        """Exact maximum of ``bytes(t, t+window)/window`` over the domain.

        If the domain is shorter than ``window`` the whole-domain average
        is returned.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        span = self.t_end - self.t_start
        if span <= window:
            return self.total_bytes / window if span > 0 else 0.0
        # Candidate left edges: every breakpoint, plus positions putting
        # the *right* edge on a breakpoint; clip into the valid range.
        candidates = np.concatenate((self.times, self._cum_t - window,
                                     [self.t_end - window]))
        candidates = np.clip(candidates, self.t_start, self.t_end - window)
        candidates = np.unique(candidates)
        left = self.cumulative_bytes(candidates)
        right = self.cumulative_bytes(candidates + window)
        return float(np.max(right - left) / window)

    def peak_instantaneous(self) -> float:
        """Largest segment rate."""
        return float(np.max(self.rates))

    # -- resampling (for report output) -------------------------------------
    def sample(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Average rate on consecutive bins of width ``dt``.

        Returns (bin_start_times, mean_rates); used to print the Figure 8
        style bandwidth timeline.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        edges = np.arange(self.t_start, self.t_end + dt, dt)
        if edges[-1] < self.t_end:
            edges = np.append(edges, self.t_end)
        cum = self.cumulative_bytes(edges)
        widths = np.diff(edges)
        rates = np.diff(cum) / np.where(widths > 0, widths, 1.0)
        return edges[:-1], rates

    def __repr__(self) -> str:
        return (f"RateSeries({self.times.size} segments, "
                f"[{self.t_start:.3f}, {self.t_end:.3f}]s, "
                f"{self.total_bytes / 2**30:.3f} GiB)")


class RateRecorder:
    """Mutable accumulator of ``(t, rate)`` breakpoints for one flow.

    The fluid allocator calls :meth:`record` whenever the flow's rate
    changes; :meth:`close` freezes the series.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._rates: List[float] = []
        self._closed_at: Optional[float] = None

    def record(self, t: float, rate: float) -> None:
        """Note that the rate becomes ``rate`` at time ``t``."""
        if self._closed_at is not None:
            raise RuntimeError(f"recorder {self.name!r} already closed")
        if rate < 0:
            raise ValueError("negative rate")
        if self._times:
            last = self._times[-1]
            if t < last - 1e-12:
                raise ValueError(f"time went backwards: {t} < {last}")
            if t <= last + 1e-12:
                # Same instant: overwrite (several reallocations can land
                # on one event time).
                self._rates[-1] = rate
                return
            if rate == self._rates[-1]:
                return  # no change; keep the series minimal
        self._times.append(float(t))
        self._rates.append(float(rate))

    def close(self, t_end: float) -> RateSeries:
        """Freeze and return the series, ending at ``t_end``; it takes
        over the recorder's lists and builds its arrays on first query."""
        if self._closed_at is not None:
            raise RuntimeError(f"recorder {self.name!r} already closed")
        if not self._times:
            raise RuntimeError(f"recorder {self.name!r} has no samples")
        self._closed_at = t_end
        return RateSeries._deferred(self._times, self._rates,
                                    max(t_end, self._times[-1]))

    @property
    def is_empty(self) -> bool:
        """True if nothing was recorded yet."""
        return not self._times


def aggregate_series(series: Iterable[RateSeries]) -> RateSeries:
    """Sum several rate series into one (aggregate bandwidth).

    The result's domain spans min(t_start) .. max(t_end); each input
    contributes 0 outside its own domain.
    """
    series = list(series)
    if not series:
        raise ValueError("no series to aggregate")
    t_end = max(s.t_end for s in series)
    # Each series' own end is a breakpoint too: its contribution drops to 0.
    all_times = np.unique(np.concatenate(
        [s.times for s in series] + [np.array([s.t_end]) for s in series]))
    all_times = all_times[all_times < t_end]
    total = np.zeros_like(all_times)
    for s in series:
        total += s.rate_at(all_times)
    return RateSeries(all_times, total, t_end)
