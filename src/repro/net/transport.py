"""Connection-oriented transport over the fluid network.

A :class:`Connection` bundles a path, a :class:`TcpStream` (congestion
state), and small-message RPC semantics for control channels. Bulk sends
become fluid flows capped by the TCP window; control exchanges cost a
round trip plus serialization.

Stall detection: :meth:`Connection.watch` aborts a bulk flow that makes
no progress for ``TcpParams.stall_timeout`` seconds (e.g. a link on the
path went down) with :class:`~repro.net.fluid.FlowError` — this is the
hook GridFTP's restartable transfers build on. It schedules nothing
while the flow moves: the allocator tells it when the flow's rate
reaches or leaves zero, and it arms an abort only for a stall.
"""

from __future__ import annotations

from typing import Optional

from repro.net.dns import NameService
from repro.net.fluid import Flow, FluidNetwork
from repro.net.tcp import TcpParams, TcpStream
from repro.sim.core import Environment


class ConnectionRefused(Exception):
    """Connection establishment failed (no route, DNS outage, dead link)."""


class _StallWatch:
    """The stall watchdog of one flow: armed only while the flow's rate
    is zero (the allocator calls :meth:`settle` when it reaches or
    leaves zero, and :meth:`close` when the flow ends).

    The abort falls on the tick at which a loop polling the flow every
    ``poll`` seconds from the watch's start would abort it: ticks
    ``t += poll`` by repeated addition; a tick that sees bytes moved
    since the last tick that did becomes the last change; the first
    tick ``timeout`` past the last change aborts. Bytes move exactly
    while the rate is positive, so a stall that began at ``z`` after a
    moving spell has its last change at the first tick at or after
    ``z``. A rate that leaves zero at the abort tick itself has moved
    no byte by then: that abort stands.
    """

    __slots__ = ("clock", "flow", "timeout", "poll", "order", "change",
                 "since", "moving", "batch", "prev")

    def __init__(self, clock: "_StallClock", flow: Flow, timeout: float,
                 poll: float):
        now = clock.env.now
        self.clock = clock
        self.flow = flow
        self.timeout = timeout
        self.poll = poll
        clock.watches += 1
        self.order = clock.watches  # the polling loop's place at a tick
        self.change = now       # tick (or start) of the last progress
        self.since = now        # when the rate last left zero
        self.moving = None      # what the allocator last said
        self.batch = None       # the _AbortBatch this abort is due in
        self.prev = now         # the tick before the abort tick

    def settle(self, moving: bool, now: float) -> None:
        """The flow's rate left zero (``moving``) or reached it."""
        batch = self.batch
        if moving:
            if batch is not None and now < batch.at:
                self.clock.disarm(self)
            self.moving = True
            self.since = now
            return
        poll = self.poll
        if self.moving and now > self.since:
            change = self.change
            while change < now:
                change += poll
            self.change = change
        self.moving = False
        due = change = self.change
        while due - change < self.timeout:
            self.prev = due
            due += poll
        if batch is not None:
            if batch.at == due:
                return
            self.clock.disarm(self)
        self.clock.arm(self, due)

    def close(self) -> None:
        """Stop watching: the flow ended or the watch was abandoned."""
        if self.flow._stall is self:
            self.flow._stall = None
        if self.batch is not None:
            self.clock.disarm(self)


class _AbortBatch:
    """The stall aborts due at one instant, run by one kernel event.

    The batch holds its queue entry only while it is armed: the entry
    runs the batch, so a fired or disarmed batch drops it and leaves no
    cycle for the garbage collector.
    """

    __slots__ = ("clock", "at", "stalls", "entry")

    def __init__(self, clock: "_StallClock", at: float):
        self.clock = clock
        self.at = at
        self.stalls = []
        self.entry = clock.env.call_at(at, self)

    def __call__(self) -> None:
        """Abort the batch's flows in the order the polling loops' ticks
        would have run: a tick made at an earlier previous tick first,
        ticks made at one tick in the order their watches started."""
        del self.clock.batches[self.at]
        self.entry = None
        for stall in sorted(self.stalls, key=_tick_order):
            stall.batch = None
            stall.flow.abort(f"stalled for {stall.timeout:.0f}s")


def _tick_order(stall: _StallWatch) -> tuple:
    return stall.prev, stall.order


class _StallClock:
    """The abort timers of one transport's stall watchdogs: one kernel
    event per abort instant, however many watchdogs are due there."""

    __slots__ = ("env", "batches", "watches")

    def __init__(self, env: Environment):
        self.env = env
        self.batches: dict = {}  # instant -> _AbortBatch
        self.watches = 0         # watchdogs started

    def arm(self, stall: _StallWatch, at: float) -> None:
        batch = self.batches.get(at)
        if batch is None:
            batch = self.batches[at] = _AbortBatch(self, at)
        batch.stalls.append(stall)
        stall.batch = batch

    def disarm(self, stall: _StallWatch) -> None:
        batch, stall.batch = stall.batch, None
        batch.stalls.remove(stall)
        if not batch.stalls:
            self.env.cancel(batch.entry)
            batch.entry = None
            del self.batches[batch.at]


class Connection:
    """An established transport connection between two topology nodes."""

    __slots__ = ("id", "transport", "src", "dst", "params", "stream", "rtt",
                 "open", "bytes_sent", "transfers")

    def __init__(self, transport: "Transport", src: str, dst: str,
                 params: TcpParams, stream: TcpStream):
        self.id = transport.env.next_id("connection")
        self.transport = transport
        self.src = src
        self.dst = dst
        self.params = params
        self.stream = stream
        self.rtt = stream.rtt
        self.open = True
        self.bytes_sent = 0.0
        self.transfers = 0

    # -- bulk data -------------------------------------------------------------
    def watch(self, flow: Flow):
        """Simulation process: stall watchdog for one flow on this connection.

        Waits for ``flow`` to finish, aborting it once it makes no
        progress for ``params.stall_timeout`` seconds (see
        :class:`_StallWatch` for the exact instant). Raises
        :class:`~repro.net.fluid.FlowError` if the flow was aborted.
        """
        if flow.active:
            params = self.params
            timeout = params.stall_timeout
            stall = _StallWatch(self.transport.stalls, flow, timeout,
                                params.poll_interval(timeout))
            self.transport.network.watch_rate(flow, stall)
            try:
                yield flow.done  # a failure raises here
            finally:
                stall.close()
            return
        flow.done.defuse()
        _ = flow.done.value  # raises FlowError on abort

    # -- control messages ----------------------------------------------------
    def request(self, request_bytes: float = 256.0,
                response_bytes: float = 256.0,
                server_time: float = 0.0):
        """Simulation process: a small request/response exchange.

        Costs one RTT plus transmission time of both messages at the
        window cap, plus ``server_time`` of processing at the peer.
        Control messages are too small to bother the fluid allocator.
        """
        if not self.open:
            raise RuntimeError("connection is closed")
        wire_rate = max(self.stream.window_cap, 1.0)
        cost = (self.rtt + server_time
                + (request_bytes + response_bytes) / wire_rate)
        yield self.transport.env.timeout(cost)
        return cost

    def close(self) -> None:
        """Tear down the connection (window state is discarded)."""
        self.open = False

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return f"Connection({self.src}->{self.dst}, {state}, id={self.id})"


class Transport:
    """Connection factory over a :class:`FluidNetwork`.

    Parameters
    ----------
    env, network:
        The simulation environment and fluid network.
    name_service:
        Optional :class:`NameService`; when provided, ``connect`` resolves
        hostnames (and inherits DNS outages).
    """

    def __init__(self, env: Environment, network: FluidNetwork,
                 name_service: Optional[NameService] = None):
        self.env = env
        self.network = network
        self.name_service = name_service
        self.connections_opened = 0  # instrumentation
        self._params: dict = {}
        self.stalls = _StallClock(env)  # abort timers of the watchdogs

    def params(self, **settings) -> TcpParams:
        """The :class:`TcpParams` for ``settings``, one frozen object per
        distinct setting: every connection that asks for equal settings
        holds the same one (a fleet opens thousands)."""
        key = tuple(sorted(settings.items()))
        params = self._params.get(key)
        if params is None:
            params = self._params[key] = TcpParams(**settings)
        return params

    def connect(self, src: str, dst: str,
                params: Optional[TcpParams] = None,
                rng=None):
        """Simulation process: open a connection from ``src`` to ``dst``.

        ``dst`` may be a hostname (resolved through the name service) or a
        topology node name. Establishment costs one DNS lookup (if any),
        1.5 RTTs for the TCP handshake (GSI authentication is charged by
        the caller, on the open connection).

        Raises :class:`ConnectionRefused` if resolution fails or the path
        is down at connect time.
        """
        env = self.env
        topo = self.network.topology
        dst_node = dst
        if self.name_service is not None and dst in self.name_service:
            try:
                dst_node = yield from self.name_service.resolve(dst)
            except Exception as exc:
                raise ConnectionRefused(str(exc)) from exc
        try:
            path = topo.path(src, dst_node)
        except (KeyError, ValueError) as exc:
            raise ConnectionRefused(str(exc)) from exc
        if any(not link.is_up for link in path):
            # SYNs to a dead path time out rather than complete.
            yield env.timeout((params or TcpParams()).stall_timeout)
            raise ConnectionRefused(
                f"path {src}->{dst_node} unreachable at t={env.now:.1f}s")
        params = params or TcpParams()
        rtt = topo.rtt(src, dst_node)
        yield env.timeout(1.5 * rtt)
        stream = TcpStream(env, rtt, params, rng=rng)
        self.connections_opened += 1
        return Connection(self, src, dst_node, params, stream)
