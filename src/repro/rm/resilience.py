"""Fault-tolerance primitives for the request manager pipeline.

The paper's Figure 8 run survived a SCinet power failure, DNS problems,
and backbone faults because GridFTP restart markers and the §7
reliability plug-in recovered the *data plane*. This module supplies the
matching control-plane machinery the EU DataGrid experience report calls
out as what separates a demo from a production data grid:

- :class:`RetryPolicy` — capped exponential backoff between whole-file
  retry rounds, with jitter drawn from a named simulation RNG stream so
  chaos runs stay reproducible per seed;
- :class:`CircuitBreaker` / :class:`BreakerBoard` — per-host endpoint
  blacklisting shared across a ticket's file threads, so one dead server
  is not re-probed by every file of a multi-file request;
- :class:`FailureClass` — the failure-classification taxonomy recorded
  on tickets and emitted as NetLogger events;
- :class:`ResiliencePolicy` — the bundle of knobs (retry, breaker,
  default deadlines) a :class:`~repro.rm.manager.RequestManager` threads
  through its pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs import Observability


class FailureClass(enum.Enum):
    """Why a file request failed (stage of the pipeline that gave up)."""

    LOOKUP = "lookup"        # replica catalog / MDS query failed
    CONNECT = "connect"      # control connection could not be established
    TRANSFER = "transfer"    # data movement aborted or stalled out
    STAGING = "staging"      # HRM / tape staging failed
    DEADLINE = "deadline"    # per-file or per-ticket deadline exceeded
    INTEGRITY = "integrity"  # delivered digest mismatched the catalog
    STALE = "stale"          # catalog entry outlived the replica (verify-on-open)


@dataclass
class RetryPolicy:
    """Capped exponential backoff between retry rounds.

    Attributes
    ----------
    max_rounds:
        Total passes over the candidate list (1 = no retry, today's
        single best-first sweep).
    base_delay:
        Backoff before the second round, seconds.
    multiplier:
        Growth factor per additional round.
    max_delay:
        Backoff ceiling, seconds.
    jitter:
        Fractional random spread: the delay is scaled by a factor
        uniform in ``[1 - jitter, 1 + jitter]``. Draws come from the RNG
        the caller passes (a named sim stream), keeping runs
        deterministic per seed.
    """

    max_rounds: int = 2
    base_delay: float = 5.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff before retry ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        d = min(self.base_delay * self.multiplier ** (attempt - 1),
                self.max_delay)
        if rng is not None and self.jitter > 0 and d > 0:
            d *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return d


class BreakerState(enum.Enum):
    """Circuit breaker lifecycle."""

    CLOSED = "closed"          # normal operation
    OPEN = "open"              # endpoint blacklisted, attempts skipped
    HALF_OPEN = "half-open"    # one probe allowed after the cooldown


class CircuitBreaker:
    """Endpoint blacklisting for one host.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` returns False so callers skip the host without
    paying a connect timeout. After ``reset_timeout`` seconds one probe
    is let through (half-open); its outcome re-closes or re-opens the
    circuit.
    """

    def __init__(self, host: str, failure_threshold: int = 3,
                 reset_timeout: float = 120.0, obs=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.host = host
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.obs = obs or Observability()
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0          # times the circuit opened
        self.skips = 0          # attempts shed while open

    def allow(self, now: float) -> bool:
        """True if an attempt against the host may proceed at ``now``."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.reset_timeout:
                self.state = BreakerState.HALF_OPEN
                self.obs.event("rm.breaker.half_open",
                               prog="request-manager", host=self.host)
                return True
            self._record_skip()
            return False
        # HALF_OPEN: one probe is already in flight; shed the rest.
        self._record_skip()
        return False

    def _record_skip(self) -> None:
        self.skips += 1
        self.obs.count("rm.breaker_skips_total", host=self.host)

    def record_failure(self, now: float) -> None:
        """Feed one failed attempt; may open the circuit."""
        self.failures += 1
        if (self.state is BreakerState.HALF_OPEN
                or self.failures >= self.failure_threshold):
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.trips += 1
            self.failures = 0
            self.obs.event("rm.breaker.open", prog="request-manager",
                           host=self.host, trips=self.trips)
            self.obs.count("rm.breaker_trips_total", host=self.host)

    def record_success(self) -> None:
        """A successful attempt closes the circuit and clears history."""
        was_open = self.state is not BreakerState.CLOSED
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = None
        if was_open:
            self.obs.event("rm.breaker.close", prog="request-manager",
                           host=self.host)

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.host!r}, {self.state.value}, "
                f"trips={self.trips})")


class BreakerBoard:
    """Per-ticket registry of per-host breakers.

    All file threads of one :class:`~repro.rm.request.RequestTicket`
    share the board, so the first thread to find a host dead spares the
    others the probe.
    """

    def __init__(self, failure_threshold: int = 3,
                 reset_timeout: float = 120.0, obs=None):
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.obs = obs or Observability()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def for_host(self, host: str) -> CircuitBreaker:
        """The (shared) breaker guarding ``host``."""
        breaker = self._breakers.get(host)
        if breaker is None:
            breaker = CircuitBreaker(host, self.failure_threshold,
                                     self.reset_timeout, obs=self.obs)
            self._breakers[host] = breaker
        return breaker

    def snapshot(self) -> Dict[str, str]:
        """host → breaker state (for monitors and logs)."""
        return {h: b.state.value for h, b in sorted(self._breakers.items())}

    @property
    def total_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())

    @property
    def total_skips(self) -> int:
        return sum(b.skips for b in self._breakers.values())

    def __repr__(self) -> str:
        return f"BreakerBoard({self.snapshot()})"


@dataclass
class ResiliencePolicy:
    """The RM's fault-tolerance configuration.

    Attributes
    ----------
    retry:
        Whole-file retry rounds with backoff (see :class:`RetryPolicy`).
    breaker_failure_threshold, breaker_reset_timeout:
        Parameters for each ticket's :class:`BreakerBoard`.
    file_deadline:
        Default per-file budget, seconds from the file thread start;
        None disables.
    ticket_deadline:
        Default whole-ticket budget, seconds from submit; None disables.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 120.0
    file_deadline: Optional[float] = None
    ticket_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_reset_timeout <= 0:
            raise ValueError("breaker_reset_timeout must be positive")
        for name in ("file_deadline", "ticket_deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")

    def board(self, obs=None) -> BreakerBoard:
        """A fresh per-ticket breaker board (optionally instrumented)."""
        return BreakerBoard(self.breaker_failure_threshold,
                            self.breaker_reset_timeout, obs=obs)
