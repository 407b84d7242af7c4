"""Time-series forecasters and the adaptive meta-forecaster.

NWS runs a family of cheap predictors over each measurement series and,
for every query, answers with the predictor whose past one-step-ahead
error is currently lowest — robust across workloads without tuning
(Wolski, HPDC'97). All forecasters are O(1)-per-update.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional


class Forecaster:
    """Base: feed measurements with :meth:`update`, read :meth:`predict`."""

    name = "base"

    def update(self, value: float) -> None:
        raise NotImplementedError

    def predict(self) -> Optional[float]:
        """Next-value forecast, or None before any data."""
        raise NotImplementedError


class LastValueForecaster(Forecaster):
    """Predicts the most recent measurement."""

    name = "last"

    def __init__(self):
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = value

    def predict(self) -> Optional[float]:
        return self._last


class RunningMeanForecaster(Forecaster):
    """Predicts the mean of the entire history."""

    name = "mean"

    def __init__(self):
        self._sum = 0.0
        self._n = 0

    def update(self, value: float) -> None:
        self._sum += value
        self._n += 1

    def predict(self) -> Optional[float]:
        return self._sum / self._n if self._n else None


class SlidingMeanForecaster(Forecaster):
    """Predicts the mean of the last ``window`` measurements."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.name = f"sliding{window}"
        self._buf: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> Optional[float]:
        return sum(self._buf) / len(self._buf) if self._buf else None


class MedianForecaster(Forecaster):
    """Predicts the median of the last ``window`` measurements."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.name = f"median{window}"
        self._buf: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> Optional[float]:
        if not self._buf:
            return None
        vals = sorted(self._buf)
        n = len(vals)
        mid = n // 2
        return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


class ExpSmoothingForecaster(Forecaster):
    """Exponentially weighted moving average."""

    def __init__(self, alpha: float = 0.3):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        self.name = f"exp{alpha:g}"
        self.alpha = alpha
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = value
        else:
            self._state = self.alpha * value + (1 - self.alpha) * self._state

    def predict(self) -> Optional[float]:
        return self._state


def default_suite() -> List[Forecaster]:
    """The standard NWS-style predictor family."""
    return [LastValueForecaster(), RunningMeanForecaster(),
            SlidingMeanForecaster(5), SlidingMeanForecaster(20),
            MedianForecaster(11), ExpSmoothingForecaster(0.3)]


class AdaptiveForecaster(Forecaster):
    """Tracks each sub-forecaster's squared error; answers with the best.

    Before any measurement arrives :meth:`predict` returns None; with one
    measurement every sub-forecaster agrees anyway. The best one is
    chosen once per measurement, the only time the errors change.
    """

    name = "adaptive"

    def __init__(self):
        self.forecasters = default_suite()
        self._errors = [0.0] * len(self.forecasters)
        self._best: Optional[Forecaster] = None

    def update(self, value: float) -> None:
        # Score everyone's standing prediction against the new truth...
        for i, f in enumerate(self.forecasters):
            pred = f.predict()
            if pred is not None:
                self._errors[i] += (pred - value) ** 2
        # ...then let them see it.
        for f in self.forecasters:
            f.update(value)
        errors = self._errors
        self._best = self.forecasters[
            min(range(len(errors)), key=errors.__getitem__)]

    def predict(self) -> Optional[float]:
        best = self._best
        return None if best is None else best.predict()

    @property
    def best_name(self) -> Optional[str]:
        """Which sub-forecaster currently answers."""
        best = self._best
        return None if best is None else best.name
