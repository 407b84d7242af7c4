"""Fluid max-min fair bandwidth allocation over the topology.

Every active :class:`Flow` gets a rate from progressive filling: all
unfrozen flows' rates rise together until a link on their path saturates
(its users freeze at their fair share) or the flow hits its own cap
(TCP-window/CPU/disk ceiling, maintained by the caller). Rates therefore
change only when flows start, finish, are aborted, change caps, or when a
link's capacity changes.

The allocator is *incremental*: the cost of a change is proportional to
the disturbance, not the network.

- **Path groups** — the active flows that share one route list (the
  parallel streams of a transfer, or every flow of one cached route)
  form a :class:`_PathGroup`; each link indexes the groups crossing it
  (``Link._groups``), kept as flows start, aggregate and leave.
- **Component scoping** — groups partition into connected components
  (groups transitively sharing links, discovered by DFS over the
  ``Link._groups`` index, so a component of 13 streams on 2 routes is
  2 steps). Any flow start/finish/abort/cap change or link-capacity
  change recomputes rates only for the affected component, and each
  dirty component is filled on its own; disjoint transfers never pay
  for each other.
- **Fill over link classes** — set-up runs per group: links crossed by
  the same groups form a class, and only the class's least-capacity
  link can bind first. A frozen flow gives its share back to its
  group's classes, not to every link of its path, so per flow a fill
  costs one reset, one cap sort and one final rate/prediction pass.
- **No-op cap changes** — a cap change that cannot move a rate
  schedules nothing: the cap is unchanged, or the flow froze on a
  saturated link in its last fill and the new cap is still >= its rate
  (max-min then leaves every rate where it is). TCP window steps on
  link-bound streams are mostly of this kind.
- **Same-instant coalescing** — mutations at one simulation timestamp
  (32 slow-start streams stepping at an RTT boundary, a site fault
  touching several links) mark their components dirty and collapse into
  a single deferred recompute, run by a zero-delay low-priority event at
  the end of the instant. No bytes move while dt = 0, so the collapsed
  recompute is exact.
- **Event-queue hygiene** — predicted completions live in an internal
  heap (lazily invalidated by a per-flow version stamp, which retiring
  a flow bumps too); exactly one simulator timer is kept pending, and
  it is only rescheduled when the earliest completion instant actually
  changes. Cap churn therefore no longer piles superseded timers into
  the event queue.
- **Stall signals** — a watched flow is told when its rate reaches or
  leaves zero (:meth:`FluidNetwork.watch_rate`), so a stall watchdog
  needs no polling while bytes move.

**Flow aggregation** (``aggregation_threshold=k``): once ``k`` or more
eligible transfers share one exact path, new arrivals on that path
collapse into a single :class:`AggregateFlow` — one flow in the
allocator regardless of member count. Members are demultiplexed
statistically by generalized-processor-sharing virtual time: the
aggregate tracks a virtual clock ``V`` advancing at ``rate / W`` (``W``
= sum of member weights, each member's weight its rate cap), and member
``i``'s delivered bytes are ``w_i · (V − V_settled_i)`` — O(1) per
member, settled only when its weight changes. Member completion
instants fall out of a per-aggregate heap of ``V`` thresholds; the
aggregate's ``_remaining`` always reflects the *earliest* member
completion, so the ordinary completion timer machinery fires at member
boundaries. The aggregate occupies ``len(members)`` max-min shares in
progressive filling, so mixed exact/aggregate links still converge to
the exact allocation. Proportional-to-weight sharing is *exact*
max-min for homogeneous member caps and a statistical approximation
otherwise; the differential tests bound the deviation at small n.

This is the standard flow-level network model used when packet-level
detail is unnecessary; the TCP behaviour the paper's results depend on
(window limits, slow-start ramp, loss back-off) enters through per-flow
caps managed by :class:`repro.net.tcp.TcpStream`.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set

from repro.net.recorder import RateRecorder
from repro.net.topology import Link
from repro.sim.core import Environment
from repro.sim.events import Event, EventPriority

_EPS_BYTES = 1e-3
_EPS_RATE = 1e-9


class _PathGroup:
    """The active flows that share one route list (the parallel streams
    of one transfer, or the flows of one cached route): the unit the
    ``Link._groups`` index holds, the scope's DFS walks and the fill's
    link classes are built from. It holds its ``path``, so the list's
    ``id`` keys no other group while this one lives."""

    __slots__ = ("path", "flows")

    def __init__(self, path: List[Link]):
        self.path = path
        self.flows: Dict[int, "Flow"] = {}  # id -> flow, in start order


def _closure(comp: List[_PathGroup], seen: Set[Link],
             visited: Set[_PathGroup]) -> List[_PathGroup]:
    """Grow ``comp`` (unvisited groups) into its connected component by
    DFS over the ``Link._groups`` index, in place. Each link is scanned
    once and each group pushed once across every call sharing ``seen``
    and ``visited``."""
    visited.update(comp)
    stack = list(comp)
    while stack:
        for link in stack.pop().path:
            if link not in seen:
                seen.add(link)
                for g in link._groups:
                    if g not in visited:
                        visited.add(g)
                        comp.append(g)
                        stack.append(g)
    return comp


class FlowError(Exception):
    """A flow was aborted before completing. (It names no flow: the
    flow's own ``done`` event stores it, and a reference back would
    make a cycle.)"""


def _close_stall(flow) -> None:
    """``flow`` left the network: its stall watcher (if any) stops."""
    stall = flow._stall
    if stall is not None:
        flow._stall = None
        stall.close()


class _MemberStalls:
    """An aggregate's stall slot: passes its rate reaching or leaving
    zero on to its watched members. A member moves while its aggregate
    does and its weight is positive. Members that joined since the last
    fill wait in ``fresh`` for the next one, which settles them even if
    the aggregate's rate stays on its side of zero."""

    __slots__ = ("agg", "moving", "was", "fresh")

    def __init__(self, agg: "AggregateFlow"):
        self.agg = agg
        self.was = agg.rate > 0.0
        self.moving = self.was  # None while members are fresh
        self.fresh: List[_AggregateMember] = []

    def add(self, member: "_AggregateMember") -> None:
        """Settle ``member`` at the aggregate's next fill."""
        self.fresh.append(member)
        self.moving = None

    def settle(self, moving: bool, now: float) -> None:
        fresh, self.fresh = self.fresh, []
        if moving is self.was:
            members: Iterable[_AggregateMember] = fresh
        else:
            members = self.agg._members.values()
        self.moving = self.was = moving
        for member in members:
            stall = member._stall
            if stall is not None:
                on = moving and member.cap > 0.0
                if stall.moving is not on:
                    stall.settle(on, now)

    def close(self) -> None:
        """Nothing to stop: every member was retired first."""


class Flow:
    """One fluid data stream crossing a fixed path.

    Created via :meth:`FluidNetwork.transfer`; the ``done`` event fires
    with ``None`` when the last byte is delivered, or fails with
    :class:`FlowError` when aborted. Every waiter already holds the
    flow; firing with it would make a flow → event → flow cycle.
    """

    __slots__ = ("id", "name", "path", "size", "cap", "limit", "rate",
                 "done", "recorder", "started_at", "finished_at",
                 "_network", "_remaining", "_advanced_at", "_pred_version",
                 "_link_bound", "_stall", "_group")

    # Overridden by AggregateFlow; plain flows take one max-min share.
    _is_agg = False
    _nshares = 1

    def __init__(self, network: "FluidNetwork", name: str, path: List[Link],
                 size: float, cap: float, recorder: Optional[RateRecorder],
                 limit: float = math.inf):
        self.id = network.env.next_id("flow")
        self.name = name or f"flow-{self.id}"
        self.path = path
        self.size = float(size)
        # ``limit`` is a hard ceiling that every later set_cap() is
        # clamped to (e.g. a tape drive's readahead rate feeding a
        # cut-through transfer); ``cap`` is the live, mutable ceiling
        # (e.g. the TCP window).
        self.limit = float(limit)
        self.cap = min(float(cap), self.limit)
        self.rate = 0.0
        self.done: Event = Event(network.env)
        self.recorder = recorder
        self.started_at = network.env.now
        self.finished_at: Optional[float] = None
        self._network = network
        self._remaining = float(size)
        self._advanced_at = network.env.now
        self._pred_version = 0  # bumps when rate changes; stales heap entries
        # Set by the last fill: the flow froze on a saturated link, so a
        # cap that stays >= its rate cannot move any rate.
        self._link_bound = False
        # Told when the rate reaches or leaves zero (see watch_rate).
        self._stall = None
        self._group: Optional[_PathGroup] = None  # see _attach

    @property
    def remaining(self) -> float:
        """Bytes still to deliver, exact at the current instant."""
        if self.finished_at is None and self.rate > 0.0:
            dt = self._network.env.now - self._advanced_at
            if dt > 0.0:
                return max(self._remaining - self.rate * dt, 0.0)
        return self._remaining

    @property
    def transferred(self) -> float:
        """Bytes delivered so far."""
        return self.size - self.remaining

    @property
    def active(self) -> bool:
        """True while the flow is in the network."""
        return self.finished_at is None

    def progress(self) -> float:
        """Up-to-the-instant bytes delivered (forces a network flush)."""
        self._network._flush_now()
        return self.transferred

    def set_cap(self, cap: float) -> None:
        """Change this flow's rate ceiling (e.g. TCP window change)."""
        self._network.set_cap(self, cap)

    def abort(self, reason: str = "aborted") -> None:
        """Remove the flow; its ``done`` event fails with FlowError."""
        self._network.abort(self, reason)

    def __repr__(self) -> str:
        return (f"Flow({self.name!r}, {self.transferred:.0f}/{self.size:.0f}B"
                f" @ {self.rate * 8 / 1e6:.1f}Mb/s)")


class _AggregateMember:
    """One user stream multiplexed inside an :class:`AggregateFlow`.

    Duck-types the caller-facing surface of :class:`Flow` (``done``,
    ``progress``, ``set_cap``, ``abort``, byte accounting) so transfer
    code is oblivious to aggregation. Its weight in the aggregate's
    generalized-processor-sharing schedule is its rate cap; delivered
    bytes are recovered as ``weight · (V − V_settled)`` against the
    aggregate's virtual clock — nothing is stored per member per event.
    Like a flow's, its ``done`` fires with ``None``.
    """

    __slots__ = ("id", "name", "path", "size", "cap", "limit", "done",
                 "recorder", "started_at", "finished_at",
                 "_agg", "_served0", "_v0", "_pred_version", "_stall")

    _is_agg = False

    def __init__(self, agg: "AggregateFlow", name: str, size: float,
                 cap: float, limit: float = math.inf):
        env = agg._network.env
        self.id = env.next_id("flow")
        self.name = name or f"flow-{self.id}"
        self.path = agg.path
        self.size = float(size)
        self.limit = float(limit)
        self.cap = min(float(cap), self.limit)  # = GPS weight
        self.done: Event = Event(env)
        self.recorder = None
        self.started_at = env.now
        self.finished_at: Optional[float] = None
        self._agg = agg
        self._served0 = 0.0     # bytes delivered at the last settle
        self._v0 = agg._v       # aggregate virtual time at the last settle
        self._pred_version = 0
        self._stall = None

    def _served_at(self, v: float) -> float:
        return self._served0 + self.cap * (v - self._v0)

    @property
    def active(self) -> bool:
        """True while the member is in the aggregate."""
        return self.finished_at is None

    @property
    def remaining(self) -> float:
        """Bytes still to deliver, exact at the current instant."""
        if not self.active:
            return max(self.size - self._served0, 0.0)
        served = self._served_at(self._agg._v_live())
        return min(max(self.size - served, 0.0), self.size)

    @property
    def transferred(self) -> float:
        """Bytes delivered so far."""
        return self.size - self.remaining

    @property
    def rate(self) -> float:
        """This member's statistical share of the aggregate rate."""
        agg = self._agg
        if not self.active or agg._W <= 0.0:
            return 0.0
        return agg.rate * (self.cap / agg._W)

    def progress(self) -> float:
        """Up-to-the-instant bytes delivered (forces a network flush)."""
        self._agg._network._flush_now()
        return self.transferred

    def set_cap(self, cap: float) -> None:
        """Change this member's ceiling — and its share weight."""
        self._agg._network.member_set_cap(self, cap)

    def abort(self, reason: str = "aborted") -> None:
        """Leave the aggregate; ``done`` fails with FlowError."""
        self._agg._network.member_abort(self, reason)

    def __repr__(self) -> str:
        return (f"AggMember({self.name!r},"
                f" {self.transferred:.0f}/{self.size:.0f}B"
                f" of {self._agg.name})")


class AggregateFlow(Flow):
    """Many same-path member streams carried as one allocator flow.

    The allocator sees a single flow whose cap is the sum of member
    caps and which occupies ``len(members)`` max-min shares; members
    share its rate in proportion to their weights via GPS virtual time.
    ``_remaining`` is maintained as the byte distance to the *earliest*
    member completion, so the standard completion-prediction machinery
    fires a flush at every member boundary.
    """

    __slots__ = ("_members", "_mheap", "_W", "_v", "_key", "_nshares")

    _is_agg = True

    def __init__(self, network: "FluidNetwork", key: tuple):
        super().__init__(network, f"agg-{network.env.next_id('agg')}",
                         list(key), 0.0, 0.0, None)
        self._key = key
        self._members: Dict[int, _AggregateMember] = {}
        self._mheap: list = []  # (v_star, pred_version, member_id, member)
        self._W = 0.0           # sum of member weights (= caps)
        self._v = 0.0           # GPS virtual time
        self._nshares = 1

    def _v_live(self) -> float:
        """Virtual time extrapolated to the current instant."""
        v = self._v
        if self.rate > 0.0 and self._W > 0.0:
            dt = self._network.env.now - self._advanced_at
            if dt > 0.0:
                v += self.rate * dt / self._W
        return v

    def _head_entry(self) -> Optional[tuple]:
        """Earliest valid member-completion entry, discarding stale ones."""
        heap = self._mheap
        while heap:
            entry = heap[0]
            # _retire bumps the version, so this also drops retired members.
            if entry[1] != entry[3]._pred_version:
                heapq.heappop(heap)
                continue
            return entry
        return None

    def _push(self, member: _AggregateMember, v_star: float) -> None:
        """Predict ``member``'s completion at virtual time ``v_star``.

        Stale entries (an older version of a member's prediction, or a
        retired member's) only leave from the top, so cap churn on
        long-lived members would grow the heap without bound. Each
        member has at most one valid entry; dropping the rest once the
        heap passes twice the member count keeps it O(members) at O(1)
        amortized per push, as :meth:`FluidNetwork._reschedule_timer`
        does for the completion heap. Entries order by (v_star, version,
        member id), so re-heapifying never changes the pop order.
        """
        heap = self._mheap
        if len(heap) > 2 * len(self._members) + 8:
            heap[:] = [e for e in heap if e[1] == e[3]._pred_version]
            heapq.heapify(heap)
        heapq.heappush(heap, (v_star, member._pred_version, member.id,
                              member))

    def _refresh_remaining(self) -> None:
        head = self._head_entry()
        if head is None:
            # Memberless → retire at the next flush. (All-zero-weight
            # members leave remaining infinite, but then W = 0 forces
            # rate 0 and no completion is ever predicted.)
            self._remaining = math.inf if self._members else 0.0
        else:
            self._remaining = max((head[0] - self._v) * self._W, 0.0)

    def _complete_due(self, now: float) -> None:
        """Retire members whose virtual finish line has been crossed."""
        heap = self._mheap
        while heap:
            v_star, version, _mid, member = heap[0]
            if version != member._pred_version:
                heapq.heappop(heap)
                continue
            if (v_star - self._v) * member.cap > _EPS_BYTES:
                break
            heapq.heappop(heap)
            self._retire(member, now, completed=True)

    def _retire(self, member: _AggregateMember, now: float,
                completed: bool, reason: str = "aborted") -> None:
        """Drop a member; the caller has settled its byte account
        (completion sets it to ``size`` outright)."""
        self._members.pop(member.id, None)
        self._W -= member.cap
        if not self._members:
            self._W = 0.0  # clear accumulated float drift
        self.size = max(self.size - member.size, 0.0)
        self._nshares = max(len(self._members), 1)
        self.cap = self._W
        member.finished_at = now
        member._pred_version += 1
        member._v0 = self._v
        _close_stall(member)
        if completed:
            member._served0 = member.size
            member.done.succeed()
        else:
            member.done.fail(FlowError(reason))


class FluidNetwork:
    """Event-driven fluid bandwidth sharing over a :class:`Topology`.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        The link graph; capacities are read live at each reallocation.
    aggregation_threshold:
        When set, a path already carrying this many eligible exact
        flows aggregates new same-path transfers into one
        :class:`AggregateFlow` (``None``, the default, keeps every
        transfer exact). Eligible means: a finite positive cap and no
        per-flow rate recorder.
    """

    def __init__(self, env: Environment, topology,
                 aggregation_threshold: Optional[int] = None) -> None:
        if aggregation_threshold is not None and aggregation_threshold < 1:
            raise ValueError("aggregation_threshold must be >= 1")
        self.env = env
        self.topology = topology
        self.aggregation_threshold = aggregation_threshold
        self._aggregates: Dict[tuple, AggregateFlow] = {}  # path key -> agg
        self._path_flows: Dict[tuple, int] = {}  # eligible exact flows/path
        self._counted: Set[int] = set()          # flow ids in _path_flows
        self._flow_map: Dict[int, Flow] = {}  # id -> active flow, ordered
        self._groups: Dict[int, _PathGroup] = {}  # id(path) -> its group
        # Dirty bookkeeping for deferred, component-scoped recomputes.
        self._dirty_flows: Set[Flow] = set()
        self._dirty_links: Set[Link] = set()
        self._dirty_all = False
        self._flush_scheduled = False
        # Predicted completions: (t_abs, pred_version, flow_id, flow),
        # lazily invalidated. One pending simulator timer covers the
        # earliest valid entry.
        self._completion_heap: list = []
        self._timer_at = math.inf
        self._timer_pending = False
        self._timer_event = None
        # Instrumentation.
        self.reallocations = 0      # progressive-filling passes
        self.flushes = 0            # coalesced flush rounds
        self.flows_recomputed = 0   # sum of recompute scope sizes
        self.timer_reschedules = 0  # simulator timers actually created
        self.aggregates_created = 0
        self.aggregate_joins = 0    # transfers routed into an aggregate

    # -- public API ------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float,
                 cap: float = math.inf, name: str = "",
                 recorder: Optional[RateRecorder] = None,
                 path: Optional[List[Link]] = None,
                 limit: float = math.inf) -> Flow:
        """Start a flow of ``nbytes`` from node ``src`` to node ``dst``.

        Returns the :class:`Flow`; ``flow.done`` fires with ``None`` on
        completion, at once for zero bytes. ``limit`` is a hard rate
        ceiling that survives later :meth:`set_cap` calls.

        With :attr:`aggregation_threshold` set, an eligible transfer on
        a path already at the threshold returns an
        :class:`_AggregateMember` instead — same caller-facing surface.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if path is None:
            path = self.topology.path(src, dst)
        if (nbytes and self.aggregation_threshold is not None
                and recorder is None and cap > 0 and math.isfinite(cap)):
            key = tuple(path)
            agg = self._aggregates.get(key)
            if agg is None and (self._path_flows.get(key, 0) + 1
                                >= self.aggregation_threshold):
                agg = self._make_aggregate(key)
            if agg is not None:
                return self._agg_join(agg, name, nbytes, cap, limit)
            flow = Flow(self, name, path, nbytes, cap, recorder, limit=limit)
            self._path_flows[key] = self._path_flows.get(key, 0) + 1
            self._counted.add(flow.id)
        else:
            flow = Flow(self, name, path, nbytes, cap, recorder, limit=limit)
        if nbytes == 0:
            flow.finished_at = self.env.now
            flow.done.succeed()
            return flow
        self._attach(flow)
        self._mark_flow(flow)
        return flow

    def set_cap(self, flow: Flow, cap: float) -> None:
        """Change ``flow``'s ceiling (clamped to ``flow.limit``) and
        schedule a reallocation — unless the change cannot move a rate.

        That is the case when the cap is unchanged, or when the flow
        froze on a saturated link in its last fill and the new cap is
        still >= its rate: the current rates then remain the max-min
        allocation, so nothing is recomputed."""
        if not flow.active:
            return
        cap = min(float(cap), flow.limit)
        old, flow.cap = flow.cap, cap
        if cap == old or (flow._link_bound and cap >= flow.rate):
            return
        self._mark_flow(flow)

    def abort(self, flow: Flow, reason: str = "aborted") -> None:
        """Remove ``flow``; its waiters see a :class:`FlowError`.

        Aborting an :class:`AggregateFlow` fails every member.
        """
        if not flow.active:
            return
        now = self.env.now
        self._advance(flow, now)
        if flow._is_agg:
            v = flow._v
            for member in list(flow._members.values()):
                member._served0 = min(member._served_at(v), member.size)
                member._v0 = v
                flow._retire(member, now, completed=False, reason=reason)
            flow._refresh_remaining()
        self._detach(flow)
        flow.finished_at = now
        flow.rate = 0.0
        flow._pred_version += 1
        _close_stall(flow)
        if flow.recorder is not None:
            flow.recorder.record(now, 0.0)
        flow.done.fail(FlowError(reason))
        self._request_flush()

    def reallocate(self) -> None:
        """Recompute all rates now (the explicit, synchronous big hammer).

        Component scoping cannot tell what changed when the caller
        mutates link capacities directly, so this recomputes everything.
        Prefer :meth:`link_updated` after changing one link's capacity.
        """
        self._dirty_all = True
        self._flush_now()

    def watch_rate(self, flow: Flow, watcher) -> None:
        """Tell ``watcher`` whenever ``flow``'s rate reaches or leaves
        zero, so a stall watchdog needs no polling.

        ``watcher.moving`` holds what it was last told (None: nothing
        yet); the allocator calls ``watcher.settle(moving, now)`` where
        it settles a rate that changed side of zero (a fill, a member's
        weight change, its aggregate's fill) and ``watcher.close()``
        when the flow leaves the network. A flow moves no bytes from its
        creation until its first positive rate: one still waiting for
        its first fill is settled by it (this instant's flush), anything
        else at once. An aggregate member moves while its aggregate
        does and its weight is positive.
        """
        flow._stall = watcher
        now = self.env.now
        if isinstance(flow, _AggregateMember):
            agg = flow._agg
            members = agg._stall
            if members is None:
                members = agg._stall = _MemberStalls(agg)
            if agg in self._dirty_flows:
                members.add(flow)
            else:
                watcher.settle(agg.rate > 0.0 and flow.cap > 0.0, now)
        elif flow.rate > 0.0 or flow not in self._dirty_flows:
            watcher.settle(flow.rate > 0.0, now)

    def link_updated(self, link: Link) -> None:
        """Note that ``link``'s capacity changed; reallocate its component.

        Same-instant updates coalesce into one recompute. A capacity
        change on a link carrying no flows cannot move any allocation
        and is skipped outright (idle floor-load ticks are free).
        """
        if link._groups:
            self._dirty_links.add(link)
            self._request_flush()

    # -- aggregation ------------------------------------------------------
    def _make_aggregate(self, key: tuple) -> AggregateFlow:
        agg = AggregateFlow(self, key)
        self._aggregates[key] = agg
        self._attach(agg)
        self.aggregates_created += 1
        return agg

    def _agg_join(self, agg: AggregateFlow, name: str, nbytes: float,
                  cap: float, limit: float) -> _AggregateMember:
        now = self.env.now
        self._advance(agg, now)  # settle V before the weight changes
        member = _AggregateMember(agg, name, nbytes, cap, limit)
        agg._members[member.id] = member
        agg._W += member.cap
        agg.size += member.size
        agg._nshares = len(agg._members)
        agg.cap = agg._W
        if member.cap > _EPS_RATE:
            agg._push(member, agg._v + member.size / member.cap)
        agg._refresh_remaining()
        self.aggregate_joins += 1
        self._mark_flow(agg)
        return member

    def member_set_cap(self, member: _AggregateMember, cap: float) -> None:
        """Change a member's ceiling — i.e. its GPS weight — and
        schedule a reallocation of its aggregate.

        The aggregate is advanced only if it does not already stand at
        this instant; the flush's advance refreshes its ``_remaining``.
        Every call pushes a completion entry with the next version, even
        for an unchanged cap, so tied finish lines pop in the same
        order."""
        if not member.active:
            return
        agg = member._agg
        now = self.env.now
        if agg._advanced_at != now:
            self._advance(agg, now)
            if not member.active:
                return  # the advance retired it (completion due now)
        cap = min(float(cap), member.limit)
        old = member.cap
        v = agg._v
        member._served0 = min(member._served_at(v), member.size)
        member._v0 = v
        member.cap = cap
        agg._W += cap - old
        agg.cap = agg._W
        member._pred_version += 1
        if cap > _EPS_RATE:
            agg._push(member, v + (member.size - member._served0) / cap)
        stall = member._stall
        if stall is not None and stall.moving is not None:
            moving = agg.rate > 0.0 and member.cap > 0.0
            if stall.moving is not moving:
                stall.settle(moving, now)
        self._mark_flow(agg)

    def member_abort(self, member: _AggregateMember,
                     reason: str = "aborted") -> None:
        """Remove one member; its waiters see a :class:`FlowError`."""
        if not member.active:
            return
        agg = member._agg
        now = self.env.now
        self._advance(agg, now)
        if not member.active:
            return
        v = agg._v
        member._served0 = min(member._served_at(v), member.size)
        member._v0 = v
        agg._retire(member, now, completed=False, reason=reason)
        agg._refresh_remaining()
        self._mark_flow(agg)

    def flows_on(self, link: Link) -> Iterable[Flow]:
        """Flows currently crossing ``link``."""
        self._flush_now()
        return tuple(f for g in link._groups for f in g.flows.values())

    def link_load(self) -> Dict[str, float]:
        """Per-link carried load (bytes/s) — the cheap probe form.

        Flow rates only change at allocation events, so the current
        rates are exact between events; this does not force a flush (no
        progress bookkeeping is advanced), making it safe to call from a
        periodic gauge sampler without taxing the hot path.
        """
        links: Dict[str, float] = {}
        for flow in self._flow_map.values():
            for link in flow.path:
                links[link.name] = links.get(link.name, 0.0) + flow.rate
        return links

    # -- dirty tracking and coalescing ----------------------------------
    def _mark_flow(self, flow: Flow) -> None:
        self._dirty_flows.add(flow)
        self._request_flush()

    def _request_flush(self) -> None:
        """Arm one zero-delay LOW-priority event to recompute at the end
        of the current instant (after every same-time NORMAL event has
        made its changes)."""
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        ev = Event(self.env)
        ev.add_callback(self._on_flush_event)
        ev.succeed(priority=EventPriority.LOW)

    def _on_flush_event(self, _ev: Event) -> None:
        self._flush_scheduled = False
        self._flush_now()

    # -- internals -------------------------------------------------------
    def _advance(self, flow: Flow, now: float) -> None:
        """Advance one flow's byte count to ``now`` (lazy accounting)."""
        dt = now - flow._advanced_at
        if dt < 0:
            raise RuntimeError("network clock went backwards")
        if dt > 0.0 and flow.rate > 0.0:
            if flow._is_agg:
                flow._v += flow.rate * dt / flow._W
            else:
                flow._remaining -= flow.rate * dt
        flow._advanced_at = now
        if flow._is_agg:
            flow._complete_due(now)
            flow._refresh_remaining()

    def _attach(self, flow: Flow) -> None:
        """Enter ``flow`` into the network and into its path group."""
        self._flow_map[flow.id] = flow
        group = self._groups.get(id(flow.path))
        if group is None:
            group = self._groups[id(flow.path)] = _PathGroup(flow.path)
            for link in flow.path:
                link._groups.add(group)
        group.flows[flow.id] = flow
        flow._group = group

    def _detach(self, flow: Flow) -> None:
        self._flow_map.pop(flow.id, None)
        self._dirty_flows.discard(flow)
        if flow._is_agg:
            self._aggregates.pop(flow._key, None)
        elif flow.id in self._counted:
            self._counted.discard(flow.id)
            key = tuple(flow.path)
            n = self._path_flows.get(key, 0) - 1
            if n > 0:
                self._path_flows[key] = n
            else:
                self._path_flows.pop(key, None)
        group = flow._group
        del group.flows[flow.id]
        if group.flows:
            self._dirty_links.update(group.path)
        else:
            del self._groups[id(group.path)]
            for link in group.path:
                link._groups.discard(group)
                if link._groups:
                    self._dirty_links.add(link)

    def _finish(self, flow: Flow, now: float) -> None:
        """Retire a flow whose last byte has been delivered."""
        flow._remaining = 0.0
        self._detach(flow)
        flow.finished_at = now
        flow.rate = 0.0
        flow._pred_version += 1
        _close_stall(flow)
        if flow.recorder is not None:
            flow.recorder.record(now, 0.0)
        flow.done.succeed()

    def _pop_due_completions(self, now: float) -> None:
        """Mark flows whose predicted completion instant has arrived as
        dirty; the flush retires them (in start order, like the original
        full-scan implementation) and recomputes their components."""
        heap = self._completion_heap
        while heap:
            t, version, _fid, flow, _made_at, _rel = heap[0]
            # Retiring a flow bumps its version, so this also drops
            # retired flows' entries.
            if version != flow._pred_version:
                heapq.heappop(heap)  # stale entry
                continue
            if t > now:
                break
            heapq.heappop(heap)
            self._dirty_flows.add(flow)

    def _scope(self, now: float) -> List[List[_PathGroup]]:
        """Path groups whose flows' rates must be recomputed, one list
        per connected component: the closure of every dirty flow's group
        and every group on a dirty link (the whole network after
        :meth:`reallocate`).

        O(groups + links) in the closure: a link's groups are scanned
        only the first time the DFS reaches the link, and a group is
        pushed only the first time it is reached."""
        if self._dirty_all:
            seeds = list(self._groups.values())
            links: Iterable[Link] = ()
        else:
            seeds = [f._group for f in self._dirty_flows if f.active]
            links = self._dirty_links
        seen: Set[Link] = set()
        visited: Set[_PathGroup] = set()
        components: List[List[_PathGroup]] = []
        # A dirty link the DFS has not reached yet carries no visited
        # group, so its groups open a new component together.
        for link in links:
            if link not in seen and link._groups:
                seen.add(link)
                components.append(_closure(list(link._groups), seen, visited))
        for g in seeds:
            if g not in visited:
                components.append(_closure([g], seen, visited))
        return components

    def _flush_now(self) -> None:
        """Apply due completions and recompute every dirty component."""
        now = self.env.now
        self._pop_due_completions(now)
        if self._dirty_all or self._dirty_flows or self._dirty_links:
            components = self._scope(now)
            # Settle byte counts at the old rates before assigning new
            # ones (inline for plain flows: this is :meth:`_advance`);
            # flows that crossed their last byte retire here, in start
            # order across all components (finish order must be
            # deterministic — waiter processes resume in the order their
            # flows' ``done`` events were triggered). Retirement marks
            # links dirty again, but only with groups already in the
            # closure — so the dirty sets are cleared after this loop.
            scope = [f for comp in components for g in comp
                     for f in g.flows.values()]
            scope.sort(key=attrgetter("id"))
            for f in scope:
                if f._is_agg:
                    self._advance(f, now)
                else:
                    if f.rate > 0.0:
                        dt = now - f._advanced_at
                        if dt > 0.0:
                            f._remaining -= f.rate * dt
                    f._advanced_at = now
                if f._remaining <= _EPS_BYTES:
                    self._finish(f, now)
            self._dirty_all = False
            self._dirty_flows.clear()
            self._dirty_links.clear()
            self.flushes += 1
            live = 0
            for comp in components:
                n = sum(len(g.flows) for g in comp)
                if n:
                    live += n
                    self._fill(comp, now)
            self.flows_recomputed += live
            if live:
                self.reallocations += 1
        self._reschedule_timer(now)

    def _fill(self, groups: List[_PathGroup], now: float) -> None:
        """Progressive-filling max-min fairness with per-flow caps, over
        the flows of ``groups``.

        ``groups`` must be closed under link sharing (a union of whole
        components); links outside it carry none of its traffic, so each
        involved link's full capacity belongs to this subproblem. Groups
        emptied since the scope was taken are skipped.
        """
        # Set-up runs per group, not per flow. A flow with a zero cap
        # stays at 0, and so does every flow of a group crossing a dead
        # link; the rest are ``plain`` or ``aggs`` and start unfrozen.
        # ``users`` maps each link to the bit set of the live groups
        # (those with an unfrozen flow) crossing it.
        plain: List[Flow] = []
        aggs: List[Flow] = []
        live: List[_PathGroup] = []
        nshares: List[int] = []  # per live group
        users: Dict[Link, int] = {}
        nflows = 0
        for g in groups:
            flows = g.flows.values()
            nflows += len(flows)
            path = g.path
            dead = False
            for link in path:
                if link.capacity <= _EPS_RATE:
                    dead = True
                    break
            n = 0
            for f in flows:
                f.rate = 0.0
                f._link_bound = False
                if f.cap > _EPS_RATE and not dead:
                    if f._is_agg:
                        aggs.append(f)
                        n += f._nshares
                    else:
                        plain.append(f)
                        n += 1
            if n:
                bit = 1 << len(live)
                live.append(g)
                nshares.append(n)
                for link in path:
                    users[link] = users.get(link, 0) | bit
        unfrozen: Set[Flow] = {*plain, *aggs}
        # Links crossed by the same groups form a class: they hold the
        # same shares all fill long, and float subtraction is monotonic,
        # so the one with the least capacity stays the tightest and the
        # rest never bind first. A class is kept as ``[residual of that
        # link, unfrozen max-min shares, its groups]`` (an aggregate holds
        # one share per member, so mixed exact/aggregate links converge
        # to the exact allocation); it drops out of the fill when its
        # last share freezes. ``of_group`` lists each group's classes.
        tightest: Dict[int, Link] = {}
        for link, mask in users.items():
            other = tightest.get(mask)
            if other is None or link.capacity < other.capacity:
                tightest[mask] = link
        classes = []
        of_group: Dict[_PathGroup, list] = {g: [] for g in live}
        for mask, link in tightest.items():
            members = []
            n = 0
            while mask:  # set bits only, lowest (first live group) first
                low = mask & -mask
                i = low.bit_length() - 1
                mask ^= low
                members.append(live[i])
                n += nshares[i]
            c = [link.capacity, n, members]
            classes.append(c)
            for g in members:
                of_group[g].append(c)
        # Every unfrozen plain flow has added the same deltas to 0.0, so
        # they share one rate, ``level``; taking them in cap order finds
        # the next cap to bind without scanning them all. Aggregates add
        # ``delta * shares`` and keep their own rates.
        plain.sort(key=attrgetter("cap"))
        nplain = len(plain)
        head = 0
        level = 0.0
        guard = 10 * nflows + 10
        while unfrozen:
            guard -= 1
            if guard < 0:  # pragma: no cover
                raise RuntimeError("progressive filling failed to converge")
            # Largest uniform per-share increment every unfrozen flow
            # can take.
            delta = math.inf
            for c in classes:
                d = c[0] / c[1]
                if d < delta:
                    delta = d
            while head < nplain and plain[head] not in unfrozen:
                head += 1
            if head < nplain:
                d = plain[head].cap - level
                if d < delta:
                    delta = d
            for f in aggs:
                d = (f.cap - f.rate) / f._nshares
                if d < delta:
                    delta = d
            if not math.isfinite(delta):
                break  # only cap-unbounded flows on unconstrained links
            if delta < 0.0:
                delta = 0.0
            # Raise every unfrozen rate by delta, then freeze the flows
            # at their cap or on a saturated link.
            level += delta
            newly_frozen: List[Flow] = []
            i = head
            while i < nplain and level >= plain[i].cap - _EPS_RATE:
                newly_frozen.append(plain[i])
                i += 1
            for f in aggs:
                f.rate += delta * f._nshares
                if f.rate >= f.cap - _EPS_RATE:
                    newly_frozen.append(f)
            for c in classes:
                c[0] -= delta * c[1]
                if c[0] <= _EPS_RATE:
                    for g in c[2]:
                        for f in g.flows.values():
                            if f in unfrozen:
                                f._link_bound = True
                                newly_frozen.append(f)
            if not newly_frozen and delta <= _EPS_RATE:
                # No progress possible (degenerate); freeze everything.
                newly_frozen = list(unfrozen)
            # Freeze, then give the shares back once per group.
            freed: Dict[_PathGroup, int] = {}
            for f in newly_frozen:
                if f in unfrozen:
                    unfrozen.remove(f)
                    if not f._is_agg:
                        f.rate = level
                    g = f._group
                    freed[g] = freed.get(g, 0) + f._nshares
            for g, n in freed.items():
                for c in of_group[g]:
                    c[1] -= n
            if freed:  # nothing thaws: drop spent classes, frozen aggs
                classes = [c for c in classes if c[1]]
                aggs = [f for f in aggs if f in unfrozen]
        for f in unfrozen:  # left rising when the fill stopped
            if not f._is_agg:
                f.rate = level
        heap = self._completion_heap
        for g in groups:
            for f in g.flows.values():
                f._pred_version += 1
                rate = f.rate
                if f.recorder is not None:
                    f.recorder.record(now, rate)
                if rate > _EPS_RATE:
                    # Keep the relative delay alongside the absolute
                    # instant: scheduling ``now + rel`` directly (when the
                    # prediction is fresh) reproduces the original timer
                    # arithmetic bit-for-bit instead of round-tripping
                    # through ``t - now``.
                    rel = f._remaining / rate
                    heapq.heappush(heap, (now + rel, f._pred_version, f.id,
                                          f, now, rel))
                stall = f._stall
                if stall is not None and stall.moving is not (rate > 0.0):
                    stall.settle(rate > 0.0, now)

    def _reschedule_timer(self, now: float) -> None:
        """Keep exactly one simulator timer pending, at the earliest valid
        predicted completion — and leave it alone if that instant is
        unchanged (event-queue hygiene: cap churn schedules nothing)."""
        heap = self._completion_heap
        if len(heap) > 4 * len(self._flow_map) + 256:
            # Stale entries only leave from the top, so long-lived flows
            # under cap churn would grow the heap without bound. Each
            # flow has at most one valid entry (retiring a flow bumps its
            # version too); dropping the rest keeps the heap O(active
            # flows) at O(1) amortized per push.
            heap[:] = [e for e in heap if e[1] == e[3]._pred_version]
            heapq.heapify(heap)
        while heap:
            if heap[0][1] != heap[0][3]._pred_version:
                heapq.heappop(heap)
                continue
            break
        if not heap:
            # Nothing will complete; any still-pending timer degenerates
            # to a no-op flush when it fires.
            return
        t_next, _version, _fid, _flow, made_at, rel = heap[0]
        if self._timer_pending and self._timer_at == t_next:
            return
        if self._timer_pending and self._timer_event is not None:
            # A superseded timer is cancelled, so it never fires.
            self.env.cancel(self._timer_event)
        self._timer_at = t_next
        self._timer_pending = True
        self.timer_reschedules += 1
        delay = rel if made_at == now else max(t_next - now, 0.0)
        timer = self.env.timeout(delay)
        self._timer_event = timer
        timer.add_callback(self._on_timer_event)

    def _on_timer_event(self, _ev: Event) -> None:
        self._timer_pending = False
        self._flush_now()
