"""The simulation environment: clock + event queue + scheduler.

Events dispatch in (time, priority, schedule sequence) order from a
slotted calendar queue: events are binned into fixed-width time buckets
held in a dict, with a small heap of populated bucket indices. The
current bucket is filtered of cancelled entries and sorted *once*, then
consumed by a position pointer (batched same-instant dispatch);
arrivals landing in the already-open bucket (typically zero-delay
wakeups) go to a small overflow heap that is merged at the head by
exact key comparison. Scheduling into a future bucket allocates no
per-event tuple — the sort key lives in ``Event.__slots__`` — and
cancellation is O(1): the entry is marked and skipped when it reaches
the head, with an amortized sweep bounding how many dead entries stay
resident (see :meth:`Environment.cancel`).
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.events import AllOf, AnyOf, Event, EventPriority, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

_SORT_KEY = attrgetter("_t", "_prio", "_seq")

#: Calendar-bucket width (simulated seconds). Wide enough that
#: bursty same-instant traffic lands in one bucket (one sort, pointer
#: consumption), narrow enough that a bucket rarely mixes events from
#: far-apart instants.
DEFAULT_BUCKET_WIDTH = 0.25


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. running a finished simulation)."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at a target event."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class _Call(Event):
    """Internal: runs ``fn(*args)`` when dispatched. Born triggered and
    never waited on, so it holds no callback list."""

    __slots__ = ("_fn", "_args")

    def __init__(self, env: "Environment", fn: Callable, args: tuple):
        self.env = env
        self.callbacks = self._value = self._exc = None
        self._triggered = True
        self._processed = self._defused = self._cancelled = False
        self._fn = fn
        self._args = args

    def _process(self) -> None:
        self._processed = True
        self._fn(*self._args)


class _WaitFor(Event):
    """Internal: fires with ``event``'s outcome, or with None once
    ``timeout`` elapses (see :meth:`Environment.wait_for`).

    The wait is its own callback on both sides and tells them apart by
    identity with its timer. Whichever side wins detaches from the
    other and drops its reference to it: a finished wait leaves no
    reference cycle for the garbage collector, and a cancelled timer
    still queued holds nothing.
    """

    __slots__ = ("_event", "_timer")

    def __init__(self, env: "Environment", event: Event, timeout: float):
        super().__init__(env)
        self._event: Optional[Event] = event
        self._timer: Optional[Timeout] = Timeout(env, timeout)
        event.add_callback(self)
        self._timer.add_callback(self)

    def __call__(self, ev: Event) -> None:
        if ev is self._timer:
            event, self._event = self._event, None
            event.remove_callback(self)
            if event._exc is not None:
                # Failed this instant but not yet processed: it is
                # processed before the waiter resumes, with no callback
                # left, so defuse it here; the waiter reads the failure
                # itself.
                event.defuse()
            self.succeed(None)
            return
        if self._triggered:
            # An already-processed event is re-delivered a moment later;
            # a zero timeout can win that race.
            return
        timer, self._timer = self._timer, None
        self.env.cancel(timer)
        timer.remove_callback(self)
        if ev._exc is not None:
            ev.defuse()
            self.fail(ev._exc)
        else:
            self.succeed(ev._value)


class Environment:
    """Discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    seed:
        Seed for the environment's named random streams (``env.rng``).

    Example
    -------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    5
    """

    def __init__(self, initial_time: float = 0.0, seed: int = 0):
        self._now = float(initial_time)
        self._seq = 0
        # Cancelled entries still resident in the queue structures.
        self._n_cancelled = 0
        # Live (scheduled, not yet dispatched or cancelled) events.
        self._n_live = 0
        # Lifetime kernel counters (see :attr:`kernel_stats`).
        self._n_scheduled = 0
        self._n_dispatched = 0
        self._n_cancel_calls = 0
        self._n_compactions = 0
        self._t0 = self._now
        self._inv_width = 1.0 / DEFAULT_BUCKET_WIDTH
        self._slots: dict = {}      # bucket index -> unsorted [Event]
        self._slot_heap: list = []  # populated bucket indices
        self._cur_slot = -1         # index of the bucket open in _ready
        self._ready: list = []      # current bucket, sorted, live prefix
        self._ready_pos = 0
        self._overflow: list = []   # (time, prio, seq, event) in cur slot
        self._head_in_overflow = False
        self.rng = RandomStreams(seed)
        self._active_process: Optional[Process] = None
        self._id_counters: dict = {}

    def next_id(self, kind: str) -> int:
        """Monotonic 1-based id for ``kind``, scoped to this environment.

        Replaces process-global ``itertools.count`` class counters:
        ids that end up in logs must be a function of the run, not of
        how many environments the process created before this one —
        otherwise same-seed replays diverge.
        """
        value = self._id_counters.get(kind, 0) + 1
        self._id_counters[kind] = value
        return value

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event firing when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event firing when at least one event in ``events`` has fired."""
        return AnyOf(self, events)

    def wait_for(self, event: Event, timeout: float) -> Event:
        """Event firing when ``event`` does, or ``timeout`` seconds from
        now with value None, whichever comes first: the kernel's one
        timed wait.

        The wait owns its timer. If ``event`` wins, the timer is
        cancelled and never dispatched; if the timer wins, the wait
        leaves ``event``'s callbacks. A failure of ``event`` is defused
        and propagated, as a :class:`Condition` does. Unlike a
        condition's loser, ``event`` is not defused when the timer wins
        (unless it already failed in that instant): a later failure is
        its caller's to read, and with no other waiter the caller must
        defuse it.
        """
        return _WaitFor(self, event, timeout)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = EventPriority.NORMAL,
                 at: Optional[float] = None) -> None:
        """Put a triggered event on the queue ``delay`` seconds from now,
        or at the absolute instant ``at`` when given."""
        self._seq += 1
        self._n_scheduled += 1
        self._n_live += 1
        t = self._now + delay if at is None else at
        event._t = t
        event._prio = int(priority)
        event._seq = self._seq
        slot = int((t - self._t0) * self._inv_width)
        if slot <= self._cur_slot:
            # Lands in (or before) the bucket already open for dispatch:
            # merge at the head through the overflow heap.
            heapq.heappush(self._overflow, (t, event._prio, self._seq, event))
            return
        bucket = self._slots.get(slot)
        if bucket is None:
            self._slots[slot] = [event]
            heapq.heappush(self._slot_heap, slot)
        else:
            bucket.append(event)

    def call_later(self, delay: float, fn: Callable[[], None],
                   priority: int = EventPriority.NORMAL) -> None:
        """Run ``fn()`` ``delay`` seconds from now: one queue entry,
        ordered like any event scheduled here with ``priority``, and no
        process (callback state machines such as the TCP window driver)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.schedule(_Call(self, fn, ()), delay, priority)

    def call_at(self, t: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at the absolute instant ``t`` (not before now),
        ordered like a NORMAL event scheduled here; returns the queue
        entry, which :meth:`cancel` revokes. An instant computed by
        repeated additions (a poll grid) is hit exactly, where
        ``now + (t - now)`` may round off it."""
        if t < self._now:
            raise ValueError(f"instant {t!r} is in the past")
        entry = _Call(self, fn, ())
        self.schedule(entry, at=t)
        return entry

    def schedule_callback(self, fn: Callable[[Event], None], event: Event) -> None:
        """Schedule ``fn(event)`` to run now, like :meth:`call_later`."""
        self.schedule(_Call(self, fn, (event,)))

    def cancel(self, event: Event) -> None:
        """Remove a scheduled event; its callbacks will never run.

        Cancellation is O(1): the entry is marked and skipped when it
        reaches the queue head. To bound memory (not correctness), the
        queue is swept of dead entries (:meth:`_compact`) only once
        cancelled entries outnumber live ones 2:1 past a 64-entry
        watermark — each sweep removes at least two thirds of the
        residents, so a mass cancellation of n events triggers at most
        O(log n) sweeps.
        """
        if event._processed or event._cancelled:
            return
        event._cancelled = True
        self._n_cancel_calls += 1
        if not event._triggered:
            return  # never scheduled; nothing resident in the queue
        self._n_cancelled += 1
        self._n_live -= 1
        if self._n_cancelled > 64 and self._n_cancelled > 2 * self._n_live:
            self._compact()
            self._n_cancelled = 0
            self._n_compactions += 1

    def _compact(self) -> None:
        """Sweep cancelled entries out of the calendar structures.

        No heapify over events is ever needed: buckets are unsorted
        lists and the slot-index heap is left untouched — a bucket
        emptied here leaves a stale index behind, skipped at advance.
        """
        self._ready = [e for e in self._ready[self._ready_pos:]
                       if not e._cancelled]
        self._ready_pos = 0
        self._overflow = [entry for entry in self._overflow
                          if not entry[3]._cancelled]
        heapq.heapify(self._overflow)
        for slot in list(self._slots):
            bucket = [e for e in self._slots[slot] if not e._cancelled]
            if bucket:
                self._slots[slot] = bucket
            else:
                del self._slots[slot]

    # -- queue head ---------------------------------------------------------
    def _settle_head(self) -> Optional[Event]:
        """Return the next live event without consuming it, or None.

        Discards cancelled entries on the way and advances to the next
        populated bucket when the current one is drained.
        """
        while True:
            ready = self._ready
            pos = self._ready_pos
            n = len(ready)
            while pos < n and ready[pos]._cancelled:
                pos += 1
                self._n_cancelled -= 1
            self._ready_pos = pos
            ov = self._overflow
            while ov and ov[0][3]._cancelled:
                heapq.heappop(ov)
                self._n_cancelled -= 1
            if pos < n:
                ev = ready[pos]
                if ov and ov[0][:3] < (ev._t, ev._prio, ev._seq):
                    self._head_in_overflow = True
                    return ov[0][3]
                self._head_in_overflow = False
                return ev
            if ov:
                self._head_in_overflow = True
                return ov[0][3]
            if not self._slot_heap:
                return None
            slot = heapq.heappop(self._slot_heap)
            bucket = self._slots.pop(slot, None)
            if bucket is None:
                continue  # stale index left behind by a compaction sweep
            live = [e for e in bucket if not e._cancelled]
            self._n_cancelled -= len(bucket) - len(live)
            live.sort(key=_SORT_KEY)
            self._ready = live
            self._ready_pos = 0
            self._cur_slot = slot

    def _consume_head(self) -> None:
        if self._head_in_overflow:
            heapq.heappop(self._overflow)
        else:
            self._ready_pos += 1

    def _dispatch(self, event: Event) -> None:
        self._consume_head()
        t = event._t
        if t > self._now:
            self._now = t
        elif t < self._now - 1e-12:
            raise SimulationError(f"time went backwards: {t} < {self._now}")
        self._n_dispatched += 1
        self._n_live -= 1
        event._process()

    # -- introspection -------------------------------------------------------
    @property
    def kernel_stats(self) -> dict:
        """Lifetime kernel counters for the stats surface.

        ``queue_compactions`` counts the sweeps :meth:`cancel` runs to
        drop cancelled entries from the queue; it stays 0 on a run that
        never cancels more than 64 events.
        """
        return {
            "events_scheduled": self._n_scheduled,
            "events_dispatched": self._n_dispatched,
            "events_cancelled": self._n_cancel_calls,
            "queue_compactions": self._n_compactions,
        }

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._n_live

    def queue_depth(self) -> int:
        """Entries physically resident in the queue (live + cancelled).

        O(#populated buckets); for tests asserting that cancelled timers
        cannot pile up over long runs.
        """
        return (len(self._ready) - self._ready_pos
                + len(self._overflow)
                + sum(len(b) for b in self._slots.values()))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        event = self._settle_head()
        return event._t if event is not None else float("inf")

    # -- execution -----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event."""
        event = self._settle_head()
        if event is None:
            raise SimulationError("no more events")
        self._dispatch(event)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue drains;
            a number — run until the clock reaches that time;
            an :class:`Event` — run until that event is processed, and
            return its value.
        """
        if until is None:
            while True:
                event = self._settle_head()
                if event is None:
                    return None
                self._dispatch(event)
        if isinstance(until, Event):
            target = until

            def _stop(ev: Event) -> None:
                raise StopSimulation(ev._value if ev._exc is None else ev._exc)

            target.add_callback(_stop)
            try:
                while True:
                    event = self._settle_head()
                    if event is None:
                        break
                    self._dispatch(event)
            except StopSimulation as stop:
                if target._exc is not None:
                    raise target._exc
                return stop.value
            raise SimulationError(
                "event queue drained before the target event fired")
        # numeric horizon
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon}: clock already at {self._now}")
        while True:
            event = self._settle_head()
            if event is None or event._t > horizon:
                break
            self._dispatch(event)
        self._now = horizon
        return None
