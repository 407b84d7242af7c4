"""Connection-oriented transport over the fluid network.

A :class:`Connection` bundles a path, a :class:`TcpStream` (congestion
state), and small-message RPC semantics for control channels. Bulk sends
become fluid flows capped by the TCP window; control exchanges cost a
round trip plus serialization.

Stall detection: :meth:`Connection.watch` aborts a bulk flow that makes
no progress for ``TcpParams.stall_timeout`` seconds (e.g. a link on the
path went down) with :class:`~repro.net.fluid.FlowError` — this is the
hook GridFTP's restartable transfers build on.
"""

from __future__ import annotations

from typing import Optional

from repro.net.dns import NameService
from repro.net.fluid import Flow, FluidNetwork
from repro.net.tcp import TcpParams, TcpStream
from repro.sim.core import Environment


class ConnectionRefused(Exception):
    """Connection establishment failed (no route, DNS outage, dead link)."""


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
        progress for ``params.stall_timeout`` seconds. Raises
        :class:`~repro.net.fluid.FlowError` if the flow was aborted.
        """
        env = self.transport.env
        timeout = self.params.stall_timeout
        poll = self.params.poll_interval(timeout)
        last_progress = flow.transferred
        last_change = env.now
        while flow.active:
            yield env.wait_for(flow.done, poll)
            if flow.done.processed:
                break
            progress = flow.progress()
            if progress > last_progress + 1e-9:
                last_progress = progress
                last_change = env.now
            elif env.now - last_change >= timeout:
                flow.abort(f"stalled for {timeout:.0f}s")
                break
        # The watchdog consumes the failure itself (it raises to its
        # caller), so defuse it: nothing else is left on flow.done.
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
                handshake_cost: float = 0.0,
                rng=None):
        """Simulation process: open a connection from ``src`` to ``dst``.

        ``dst`` may be a hostname (resolved through the name service) or a
        topology node name. Establishment costs one DNS lookup (if any),
        1.5 RTTs for the TCP handshake, plus ``handshake_cost`` (e.g. GSI
        authentication, several RTTs + crypto time).

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
        yield env.timeout(1.5 * rtt + handshake_cost)
        stream = TcpStream(env, rtt, params, rng=rng)
        self.connections_opened += 1
        return Connection(self, src, dst_node, params, stream)
