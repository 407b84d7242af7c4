"""Multi-tenant transfer scheduling: admission control + fair queueing.

The ESG-I prototype's request manager spawns one worker per file with no
admission control, so a large portal workload stampedes every GridFTP
server at once. The ESG follow-on had to serve thousands of portal
users from the same request-manager architecture, and continental-scale
replication campaigns get their sustained throughput from *disciplined
scheduling* of concurrent transfers, not unbounded fan-out. This module
is that discipline:

- **Admission control** — per-server concurrency caps with *bounded*
  wait queues. A full queue rejects immediately
  (:class:`QueueFull`) instead of queueing silently, so backpressure is
  visible to the caller (the RM treats it like any other transient
  candidate failure and backs off).
- **Fair queueing** — a deficit-round-robin (DRR) variant across flows
  (one flow per ticket/user): each flow's deficit grows by
  :data:`QUANTUM` bytes per scheduling visit and a flow's head request
  is granted once the deficit covers its size. Small interactive requests therefore
  overtake bulk replication without starving it.
- **Priority classes** — each request carries an integer priority
  (lower = more interactive; the RM passes the ticket's file count, so
  one-file interactive tickets outrank bulk replication). DRR runs
  within the best eligible class only.
- **Priority aging** — a head-of-queue request bypassed while it was
  *eligible* (its server had room) ages by one per bypass; once its age
  reaches ``aging_rounds`` it is granted ahead of both priority and
  DRR order (oldest first). This yields a hard starvation bound,
  checked by the property suite: a granted request's bypass count never
  exceeds ``aging_rounds + (older waiters at enqueue time)``.
- **Stream budgeting** — instead of every transfer claiming the full
  configured TCP parallelism, a per-server ``stream_budget`` is split
  across the transfers admitted to that server at grant time.

Everything is deterministic for a fixed seed: flows are kept in
insertion-ordered dicts/lists, ties break on a global admission
sequence number, and no ``hash()``/set iteration is involved. With
``audit=True`` the scheduler records every transition so tests can
replay and verify the invariants at every simulated instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import Counter, Family, Gauge, Histogram, Observability
from repro.sim.core import Environment
from repro.sim.events import Event

# Per-request metric families (obs.children).
_REJECTED = Family(Counter, "rm.sched.rejected_total", "server")
_ENQUEUED = Family(Counter, "rm.sched.enqueued_total", "server")
_TICKET_BYTES = Family(Counter, "rm.sched.ticket_bytes_total", "ticket")
_WAIT_SECONDS = Family(Histogram, "rm.sched.wait_seconds", "server")
_GRANTED = Family(Counter, "rm.sched.granted_total", "server")
_WITHDRAWN = Family(Counter, "rm.sched.withdrawn_total", "server")
_QUEUE_DEPTH = Family(Gauge, "rm.sched.queue_depth", "server")
_ACTIVE = Family(Gauge, "rm.sched.active", "server")

# DRR deficit added per scheduling visit, in bytes. Requests no larger
# than the quantum are admitted on their flow's first visit; bulk
# requests wait for their deficit to accumulate.
QUANTUM = 8 * 2**20


class QueueFull(Exception):
    """Admission rejected: the server's wait queue is at capacity.

    Carries the server and observed depth so callers can log a useful
    backpressure signal before retrying elsewhere / later.
    """

    def __init__(self, server: str, depth: int):
        super().__init__(f"{server}: admission queue full ({depth} waiting)")
        self.server = server
        self.depth = depth


@dataclass
class SchedulerConfig:
    """Tuning knobs for :class:`TransferScheduler`.

    Attributes
    ----------
    per_server_cap:
        Concurrent admitted transfers per GridFTP server.
    max_queue_depth:
        Waiting requests a server will hold before admission is
        rejected with :class:`QueueFull` (bounded queues, not silent
        buildup).
    aging_rounds:
        Eligible bypasses a head-of-flow request tolerates before it is
        force-granted ahead of DRR order (the starvation bound).
    stream_budget:
        Total parallel TCP streams to split across a server's admitted
        transfers. ``None`` leaves each transfer's requested
        parallelism untouched.
    """

    per_server_cap: int = 4
    max_queue_depth: int = 128
    aging_rounds: int = 4
    stream_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.per_server_cap < 1:
            raise ValueError("per_server_cap must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.aging_rounds < 0:
            raise ValueError("aging_rounds must be >= 0")
        if self.stream_budget is not None and self.stream_budget < 1:
            raise ValueError("stream_budget must be >= 1 when set")


class TransferGrant:
    """An admitted transfer's hold on scheduler capacity.

    Returned by :meth:`TransferScheduler.acquire`; must be passed back
    to :meth:`TransferScheduler.release` exactly once.
    """

    __slots__ = ("server", "flow", "size", "streams", "seq", "priority",
                 "enqueued_at", "granted_at", "bypasses", "backlog",
                 "released")

    def __init__(self, slot: "_Slot", streams: int, granted_at: float):
        self.server = slot.server
        self.flow = slot.flow
        self.size = slot.size
        self.streams = streams
        self.priority = slot.priority
        self.seq = slot.seq
        self.enqueued_at = slot.enqueued_at
        self.granted_at = granted_at
        self.bypasses = slot.age
        self.backlog = slot.backlog
        self.released = False

    @property
    def waited(self) -> float:
        """Seconds spent queued before admission."""
        return self.granted_at - self.enqueued_at

    def __repr__(self) -> str:
        return (f"TransferGrant(#{self.seq} {self.flow}@{self.server}, "
                f"{self.streams} streams, waited {self.waited:.2f}s)")


class _Slot:
    """One waiting admission request."""

    __slots__ = ("seq", "flow", "server", "size", "streams", "priority",
                 "event", "enqueued_at", "age", "backlog")

    def __init__(self, seq: int, flow: str, server: str, size: float,
                 streams: int, priority: int, event: Event,
                 enqueued_at: float, backlog: int):
        self.seq = seq
        self.flow = flow
        self.server = server
        self.size = size
        self.streams = streams
        self.priority = priority
        self.event = event
        self.enqueued_at = enqueued_at
        self.age = 0            # eligible bypasses suffered at head
        self.backlog = backlog  # older waiters on this server at enqueue


class _Flow:
    """Per-ticket FIFO of waiting slots plus its DRR deficit."""

    __slots__ = ("key", "deficit", "slots")

    def __init__(self, key: str):
        self.key = key
        self.deficit = 0.0
        self.slots: List[_Slot] = []


class _ServerState:
    """Admission bookkeeping for one GridFTP server."""

    __slots__ = ("name", "flows", "order", "rr", "active")

    def __init__(self, name: str):
        self.name = name
        self.flows: Dict[str, _Flow] = {}
        self.order: List[str] = []   # flow keys, first-arrival order
        self.rr = 0                  # DRR pointer into ``order``
        self.active = 0

    @property
    def waiting(self) -> int:
        return sum(len(f.slots) for f in self.flows.values())


class TransferScheduler:
    """Shared admission-control + fair-queueing layer for transfers.

    Sits between :class:`~repro.rm.manager.RequestManager` workers and
    the GridFTP session layer: workers ``acquire`` a slot before
    connecting and ``release`` it when the attempt ends. One scheduler
    instance is shared by every RM in a testbed — that is what makes it
    multi-tenant.

    Parameters
    ----------
    env:
        Simulation environment.
    config:
        :class:`SchedulerConfig`; defaults apply when omitted.
    obs:
        :class:`~repro.obs.Observability` bundle (unwired when omitted).
        Emits
        ``rm.sched.queue_depth`` / ``rm.sched.active`` gauges,
        ``rm.sched.wait_seconds`` histograms, and per-ticket
        ``rm.sched.ticket_bytes_total`` goodput counters.
    audit:
        Record every transition in :attr:`audit_log` as
        ``(time, op, server, flow, seq, active, waiting)`` tuples — the
        property suite's ground truth.
    """

    def __init__(self, env: Environment,
                 config: Optional[SchedulerConfig] = None,
                 obs=None, audit: bool = False):
        self.env = env
        self.config = config or SchedulerConfig()
        self.obs = obs or Observability()
        self._servers: Dict[str, _ServerState] = {}
        self._seq = 0
        # instrumentation
        self.admitted = 0       # acquire() calls that were queued/granted
        self.rejected = 0       # acquire() calls bounced with QueueFull
        self.granted = 0
        self.withdrawn = 0      # slots abandoned while queued (aborts)
        self.ticket_bytes: Dict[str, float] = {}
        self.total_bytes = 0.0
        self.audit_log: Optional[List[Tuple]] = [] if audit else None

    # -- public API -------------------------------------------------------
    def acquire(self, server: str, flow: str, size: float,
                streams: int = 1, priority: int = 0,
                abort: Optional[Event] = None):
        """Simulation process: wait for an admission slot on ``server``.

        Parameters
        ----------
        server:
            Server key (GridFTP hostname).
        flow:
            Fair-queueing flow key — the ticket (or user) this request
            belongs to.
        size:
            Bytes the transfer intends to move (drives DRR accounting;
            0 is fine for unknown sizes and schedules first).
        streams:
            Parallel TCP streams the caller would like; the grant's
            ``streams`` is this value, clipped by the stream budget.
        priority:
            Scheduling class, lower = more urgent (interactive). DRR
            runs among the best eligible class; aging still rescues
            bypassed lower classes (the starvation bound is priority-
            independent).
        abort:
            Optional event; if it fires while queued the request is
            withdrawn and ``None`` is returned instead of a grant.

        Raises
        ------
        QueueFull
            When the server's wait queue is at ``max_queue_depth``.
        """
        ss = self._servers.get(server)
        if ss is None:
            ss = self._servers[server] = _ServerState(server)
        if ss.waiting >= self.config.max_queue_depth:
            self.rejected += 1
            self.obs.children[_REJECTED, server].inc()
            self._audit("reject", ss, flow, -1)
            raise QueueFull(server, ss.waiting)
        self._seq += 1
        slot = _Slot(self._seq, flow, server, max(0.0, size),
                     max(1, streams), priority, Event(self.env),
                     self.env.now, backlog=ss.waiting)
        fl = ss.flows.get(flow)
        if fl is None:
            fl = ss.flows[flow] = _Flow(flow)
            ss.order.append(flow)
        fl.slots.append(slot)
        self.admitted += 1
        self.obs.children[_ENQUEUED, server].inc()
        self._gauges(ss)
        self._audit("enqueue", ss, flow, slot.seq)
        self._dispatch(ss)
        if abort is None:
            grant = yield slot.event
            return grant
        yield self.env.any_of([slot.event, abort])
        if slot.event.triggered:
            return slot.event.value
        self._withdraw(ss, slot)
        return None

    def release(self, grant: TransferGrant, bytes_done: float = 0.0) -> None:
        """Return a grant's capacity; feeds per-ticket goodput counters."""
        if grant.released:
            return
        grant.released = True
        ss = self._servers[grant.server]
        ss.active -= 1
        moved = max(0.0, bytes_done)
        self.ticket_bytes[grant.flow] = \
            self.ticket_bytes.get(grant.flow, 0.0) + moved
        self.total_bytes += moved
        if moved > 0:
            self.obs.children[_TICKET_BYTES, grant.flow].inc(moved)
        self._gauges(ss)
        self._audit("release", ss, grant.flow, grant.seq)
        # The freed capacity may unblock this server.
        self._dispatch(ss)

    def queue_depth(self, server: str) -> int:
        """Waiting requests for one server (0 for unknown servers)."""
        ss = self._servers.get(server)
        return ss.waiting if ss is not None else 0

    def active_count(self, server: str) -> int:
        """Admitted (in-flight) transfers on one server."""
        ss = self._servers.get(server)
        return ss.active if ss is not None else 0

    def flow_bytes(self, flows: Iterable[str]) -> float:
        """Total bytes the scheduler accounted to the given flow keys.

        Reconciliation cross-check: a campaign's delivered bytes must
        not exceed what its admission grants actually moved.
        """
        return sum(self.ticket_bytes.get(flow, 0.0) for flow in flows)

    def stats(self) -> Dict[str, object]:
        """Aggregate instrumentation snapshot."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "granted": self.granted,
            "withdrawn": self.withdrawn,
            "total_bytes": self.total_bytes,
            "ticket_bytes": dict(self.ticket_bytes),
            "waiting": {name: ss.waiting
                        for name, ss in self._servers.items() if ss.waiting},
            "active": {name: ss.active
                       for name, ss in self._servers.items() if ss.active},
        }

    # -- scheduling core --------------------------------------------------
    def _dispatch(self, ss: _ServerState) -> None:
        """Grant as many waiting slots as the caps allow right now."""
        while ss.order and ss.active < self.config.per_server_cap:
            picked, eligible = self._pick(ss)
            # Bypassed-but-eligible heads age; that is the starvation
            # clock the aged fast-path below consumes.
            for head in eligible:
                if head is not picked:
                    head.age += 1
            self._grant(ss, picked)

    def _pick(self, ss: _ServerState
              ) -> Tuple[Optional[_Slot], List[_Slot]]:
        """Choose the next head slot to admit.

        Returns ``(winner, eligible_heads)`` where ``eligible_heads``
        are the flow heads at this instant (the winner included).
        """
        eligible = [ss.flows[key].slots[0] for key in ss.order]
        # Aged fast-path: the oldest admitted-first among starved heads.
        aged = [h for h in eligible if h.age >= self.config.aging_rounds]
        if aged:
            return min(aged, key=lambda h: h.seq), eligible
        # DRR within the most urgent eligible class; less urgent heads
        # still age (they were bypassed while their caps had room).
        best = min(h.priority for h in eligible)
        contenders = [h for h in eligible if h.priority == best]
        # DRR: credit one quantum per visited flow, admit the first head
        # its deficit covers. Deficits persist across dispatches, so a
        # bulk head is admitted after ~size/quantum visits.
        blocked = {h.seq for h in contenders}
        max_size = max(h.size for h in contenders)
        cycles = int(max_size / QUANTUM) + 2
        for _ in range(cycles * len(ss.order)):
            key = ss.order[self.rr_index(ss)]
            fl = ss.flows[key]
            head = fl.slots[0]
            ss.rr += 1
            if head.seq not in blocked:
                continue  # out-of-class flows earn no deficit
            fl.deficit += QUANTUM
            if fl.deficit >= head.size:
                fl.deficit -= head.size
                return head, eligible
        # Unreachable: each full cycle adds a quantum to every eligible
        # flow's deficit.
        return None, []  # pragma: no cover - defensive

    @staticmethod
    def rr_index(ss: _ServerState) -> int:
        return ss.rr % len(ss.order)

    def _grant(self, ss: _ServerState, slot: _Slot) -> None:
        fl = ss.flows[slot.flow]
        fl.slots.remove(slot)
        if not fl.slots:
            self._drop_flow(ss, slot.flow)
        ss.active += 1
        streams = slot.streams
        budget = self.config.stream_budget
        if budget is not None:
            streams = max(1, min(streams, budget // ss.active))
        grant = TransferGrant(slot, streams, self.env.now)
        self.granted += 1
        children = self.obs.children
        children[_WAIT_SECONDS, ss.name].observe(grant.waited)
        children[_GRANTED, ss.name].inc()
        self._gauges(ss)
        self._audit("grant", ss, slot.flow, slot.seq)
        slot.event.succeed(grant)

    def _withdraw(self, ss: _ServerState, slot: _Slot) -> None:
        """Remove an aborted slot from its queue (deadline/cancel)."""
        fl = ss.flows.get(slot.flow)
        if fl is None or slot not in fl.slots:
            return
        fl.slots.remove(slot)
        if not fl.slots:
            self._drop_flow(ss, slot.flow)
        self.withdrawn += 1
        self.obs.children[_WITHDRAWN, ss.name].inc()
        self._gauges(ss)
        self._audit("withdraw", ss, slot.flow, slot.seq)
        # The head it may have been blocking changes nothing capacity-
        # wise, but a shorter queue can matter to callers polling depth.

    def _drop_flow(self, ss: _ServerState, key: str) -> None:
        idx = ss.order.index(key)
        ss.order.pop(idx)
        del ss.flows[key]
        # Keep the DRR pointer aimed at the same successor flow.
        if ss.order:
            pos = ss.rr % (len(ss.order) + 1)
            if idx < pos:
                pos -= 1
            ss.rr = pos % len(ss.order)
        else:
            ss.rr = 0

    # -- instrumentation --------------------------------------------------
    def _gauges(self, ss: _ServerState) -> None:
        children = self.obs.children
        children[_QUEUE_DEPTH, ss.name].set(ss.waiting)
        children[_ACTIVE, ss.name].set(ss.active)

    def _audit(self, op: str, ss: _ServerState, flow: str,
               seq: int) -> None:
        if self.audit_log is not None:
            self.audit_log.append((self.env.now, op, ss.name, flow, seq,
                                   ss.active, ss.waiting))
