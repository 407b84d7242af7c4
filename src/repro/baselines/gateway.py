"""The layered-gateway design that motivated GridFTP (§6.1).

"Our first approach to dealing with these incompatible protocols was to
design a layered client or gateway that would present the user with one
interface to these heterogeneous storage systems. ... However ...
performance suffered due to costly translations between the layered
client and storage system-specific client libraries and protocols."

Model: each storage system speaks its own protocol through a
:class:`StorageAdapter` with a per-block translation cost and a block
size; the :class:`GatewayClient` pulls a file block by block through the
adapter — serialization of translate→transfer per block is what kills
throughput relative to a streaming common protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hosts.host import Host
from repro.net.tcp import TcpParams
from repro.net.transport import ConnectionRefused, Transport
from repro.sim.core import Environment
from repro.storage.filesystem import FileSystem

# Control round trips needed per block request.
REQUEST_RTTS = 1.0


@dataclass(frozen=True)
class StorageAdapter:
    """Protocol-specific plumbing for one storage system.

    Attributes
    ----------
    protocol:
        Label ("hpss", "dpss", "srb", ...).
    block_bytes:
        Transfer granularity of the system's client library.
    translate_cost:
        CPU seconds to marshal one block between protocol stacks.
    """

    protocol: str
    block_bytes: float = 4 * 2**20
    translate_cost: float = 0.02

    def __post_init__(self) -> None:
        if self.block_bytes <= 0 or self.translate_cost < 0:
            raise ValueError("bad adapter parameters")


class GatewayClient:
    """One interface over heterogeneous systems, block translation each."""

    def __init__(self, env: Environment, transport: Transport):
        self.env = env
        self.transport = transport
        self.adapters: Dict[str, StorageAdapter] = {}
        self.blocks_translated = 0

    def register_adapter(self, hostname: str,
                         adapter: StorageAdapter) -> None:
        """Install the protocol adapter for one storage host."""
        self.adapters[hostname] = adapter

    def get(self, client_host: Host, server_host: Host, hostname: str,
            fs: FileSystem, path: str, dest_fs: FileSystem):
        """Simulation process: fetch ``path`` block by block.

        Each block: control round trip(s) + translation + transfer,
        strictly serialized (the gateway cannot pipeline across its
        protocol boundary). Returns (nbytes, seconds).
        """
        adapter = self.adapters.get(hostname)
        if adapter is None:
            raise KeyError(f"no adapter for {hostname!r}")
        file = fs.stat(path)
        env = self.env
        started = env.now
        try:
            conn = yield from self.transport.connect(
                client_host.node, server_host.node, TcpParams())
        except ConnectionRefused as exc:
            raise RuntimeError(f"gateway connect failed: {exc}") from exc
        remaining = file.size
        rtt = conn.rtt
        while remaining > 0:
            block = min(adapter.block_bytes, remaining)
            yield env.timeout(REQUEST_RTTS * rtt)
            yield env.timeout(adapter.translate_cost)
            self.blocks_translated += 1
            # The data leg rides the reverse direction of the connection
            # path; block arrival is serialized with translation.
            flow = self.transport.network.transfer(
                server_host.store_node, client_host.store_node, block,
                cap=conn.stream.window_cap, name=f"gw:{path}")
            yield flow.done
            remaining -= block
        conn.close()
        dest_fs.create(path, file.size, content=file.content,
                       overwrite=True)
        return file.size, env.now - started
