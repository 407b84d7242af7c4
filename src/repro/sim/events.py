"""Events for the simulation kernel.

An :class:`Event` moves through three states:

- *pending* — created, not yet triggered;
- *triggered* — given a value (or an exception) and scheduled on the
  environment's queue;
- *processed* — popped from the queue; its callbacks have run.

Processes wait on events by ``yield``-ing them; the kernel registers the
process as a callback. Yielding an already-processed event resumes the
process immediately (at the current simulated time).

``Event.callbacks`` holds nothing (``None``), one callable, or a list
once a second callable is added: most events have at most one waiter,
so most hold no list. Kernel waiters (:class:`Condition`, the process,
the ``wait_for`` event) are callables themselves, so waiting on an
event registers the waiter object, not a bound method made per yield.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment


class EventPriority(enum.IntEnum):
    """Tie-break ordering for events scheduled at the same time.

    Lower values run first. URGENT is used for kernel-internal bookkeeping
    (e.g. interrupt delivery) that must precede ordinary events.
    """

    URGENT = 0
    NORMAL = 1
    LOW = 2


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party supplies ``cause``, available as
    ``exc.cause`` in the interrupted process.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A single occurrence that processes may wait on.

    Parameters
    ----------
    env:
        The environment this event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_triggered",
                 "_processed", "_defused", "_cancelled",
                 # Time and priority, written by Environment.schedule
                 # (the heap entry carries the schedule sequence):
                 # dispatch reads the time, and dispatch-order tests
                 # trace both.
                 "_t", "_prio")

    def __init__(self, env: "Environment"):
        self.env = env
        # None, one callable, or a list of two or more (see module doc).
        self.callbacks: Any = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value and scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed."""
        if not self._triggered:
            raise RuntimeError("event value not yet available")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exc

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = EventPriority.NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exc: BaseException, priority: int = EventPriority.NORMAL) -> "Event":
        """Trigger the event with an exception.

        Waiters see the exception re-raised at their ``yield``. If nobody
        ever waits, the environment raises it at processing time unless the
        event was :meth:`defused`.
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the outcome of another (for chaining)."""
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise it."""
        self._defused = True

    # -- callback plumbing ------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        Callbacks run in the order they were added. If the event has
        already been processed the callback is scheduled to run
        immediately (same simulated time, normal priority).
        """
        if self._processed:
            self.env.schedule_callback(fn, self)
            return
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = fn
        elif type(cbs) is list:
            cbs.append(fn)
        else:
            self.callbacks = [cbs, fn]

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Unsubscribe the first callback equal to ``fn`` if still
        registered (no-op otherwise)."""
        cbs = self.callbacks
        if cbs is None:
            return
        if type(cbs) is list:
            try:
                cbs.remove(fn)
            except ValueError:
                pass
        elif cbs is fn or cbs == fn:
            self.callbacks = None

    def _process(self) -> None:
        """Kernel hook: run callbacks exactly once.

        A failed event with no callback and no :meth:`defuse` re-raises
        its exception here.
        """
        self._processed = True
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            if type(cbs) is not list:
                cbs(self)
                return
            if cbs:
                for fn in cbs:
                    fn(self)
                return
        if self._exc is not None and not self._defused:
            raise self._exc

    def __repr__(self) -> str:
        state = ("processed" if self._processed
                 else "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env.schedule(self, delay=delay)


class Condition(Event):
    """Waits on several events; fires when ``evaluate`` says so.

    The value of a condition is a dict mapping each *fired* child event to
    its value (failed children propagate their exception instead).

    Once it fires, by success or by a child's failure, the condition lets
    go of its losers: it leaves the callbacks of every child not yet
    processed, so a child that outlives it holds no reference back to it,
    and defuses that child, so a later failure with no waiter left is
    swallowed, as it was while the condition still listened. A loser's
    other waiters still receive its outcome.
    """

    __slots__ = ("events", "_evaluate", "_fired_count")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 evaluate: Callable[[int, int], bool]):
        super().__init__(env)
        self.events = tuple(events)
        self._evaluate = evaluate
        self._fired_count = 0
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("all events must share one environment")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self)

    def __call__(self, ev: Event) -> None:
        """Callback of each child event."""
        if self._triggered:
            return
        if ev._exc is not None:
            ev.defuse()
            self.fail(ev._exc)
        else:
            self._fired_count += 1
            if not self._evaluate(self._fired_count, len(self.events)):
                return
            # Only children whose callbacks have run (Timeouts are *born*
            # triggered, so `triggered` would wrongly include unfired ones).
            self.succeed({e: e._value for e in self.events if e._processed})
        if self._fired_count < len(self.events):
            for loser in self.events:
                if not loser._processed:
                    loser.remove_callback(self)
                    loser.defuse()


def _all_fired(fired: int, total: int) -> bool:
    return fired == total


def _any_fired(fired: int, total: int) -> bool:
    return fired >= 1


class AllOf(Condition):
    """Fires when *all* child events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, _all_fired)


class AnyOf(Condition):
    """Fires when *any* child event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, _any_fired)
