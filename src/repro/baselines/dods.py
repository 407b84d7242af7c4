"""A DODS-style (OPeNDAP ancestor) data server and client.

Architecture per §8: clients link a DODS API and access remote data via
URL over plain HTTP; servers run per-format filters offering subsetting
and translation. One TCP stream, default OS buffers, no security
handshake, no restart, no replica awareness — great deployability, poor
fit for bulk WAN movement. The quantitative comparison against GridFTP
is ablation bench A6.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.data.ncformat import decode, encode
from repro.data.variables import Dataset
from repro.hosts.host import Host
from repro.net.fluid import FlowError
from repro.net.tcp import TcpParams
from repro.net.transport import ConnectionRefused, Transport
from repro.sim.core import Environment
from repro.storage.filesystem import FileSystem

# CPU seconds a server-side constraint costs per MiB of the file scanned.
FILTER_COST_PER_MB = 0.02


class DodsError(Exception):
    """Request failed (missing file, bad constraint, dead connection)."""


class DodsServer:
    """Serves files over HTTP with optional constraint-based subsetting.

    Constraint expressions select a variable and coordinate ranges
    (``?tas&lat=(-30,30)``-style, passed structured here). Subsetting
    requires SDBF content; size-only files can only be shipped whole.
    """

    def __init__(self, env: Environment, host: Host, fs: FileSystem,
                 hostname: str):
        self.env = env
        self.host = host
        self.fs = fs
        self.hostname = hostname
        self.requests_served = 0

    def evaluate(self, path: str, variable: Optional[str] = None,
                 **ranges: Tuple[float, float]):
        """Simulation process: run the server-side filter.

        Returns (nbytes, content) of the response body. Applying a
        constraint costs CPU time proportional to the file scanned.
        """
        if not self.fs.exists(path):
            raise DodsError(f"404 {path}")
        file = self.fs.stat(path)
        if variable is None and not ranges:
            self.requests_served += 1
            return file.size, file.content
        if file.content is None:
            raise DodsError(f"422 {path}: no content to subset")
        yield self.env.timeout(FILTER_COST_PER_MB * file.size / 2**20)
        ds = decode(file.content)
        sub = ds.subset(variable, **ranges)
        body = encode(sub)
        self.requests_served += 1
        return float(len(body)), body


class DodsClient:
    """Fetches DODS URLs: one HTTP GET, one TCP stream, OS defaults."""

    def __init__(self, env: Environment, transport: Transport,
                 registry: dict):
        self.env = env
        self.transport = transport
        self.registry = registry

    def open_url(self, client_host: Host, hostname: str, path: str,
                 dest_fs: FileSystem, variable: Optional[str] = None,
                 record: bool = False,
                 **ranges: Tuple[float, float]):
        """Simulation process: GET the (possibly constrained) dataset.

        Returns (nbytes, seconds, series). No retry: a broken transfer
        raises :class:`DodsError` (HTTP has no restart).
        """
        server: DodsServer = self.registry.get(hostname)
        if server is None:
            raise DodsError(f"unknown host {hostname!r}")
        started = self.env.now
        try:
            # Plain HTTP: no auth handshake, default 64 KB buffers.
            conn = yield from self.transport.connect(
                client_host.node, hostname, TcpParams())
        except ConnectionRefused as exc:
            raise DodsError(f"connect failed: {exc}") from exc
        # Request line + headers.
        yield from conn.request(request_bytes=512, response_bytes=512)
        nbytes, content = yield from server.evaluate(path, variable,
                                                     **ranges)
        # The body rides one stream server→client; model it as a flow
        # from the server's disk to the client's disk.
        from repro.net.recorder import RateRecorder
        rec = RateRecorder(f"dods:{path}") if record else None
        flow = self.transport.network.transfer(
            server.host.store_node, client_host.store_node, nbytes,
            cap=conn.stream.window_cap, name=f"dods:{path}",
            recorder=rec)
        conn.stream.drive(flow)
        # Plain-TCP stall watchdog: a dead connection times out; HTTP has
        # no restart, so that is the end of the request.
        try:
            yield from conn.watch(flow)
        except FlowError as exc:
            conn.close()
            raise DodsError(f"connection reset: {exc}") from exc
        conn.close()
        dest_fs.create(path.rsplit("/", 1)[-1], nbytes, content=content,
                       overwrite=True)
        series = [rec.close(self.env.now)] if rec is not None else []
        return nbytes, self.env.now - started, series

    def open_dataset(self, client_host: Host, hostname: str, path: str,
                     variable: str,
                     **ranges: Tuple[float, float]):
        """Simulation process: constrained GET decoded to a Dataset."""
        scratch = FileSystem(self.env, "dods-scratch")
        yield from self.open_url(client_host, hostname, path, scratch,
                                 variable=variable, **ranges)
        name = path.rsplit("/", 1)[-1]
        blob = scratch.stat(name).content
        if blob is None:
            raise DodsError(f"{path}: server returned no content")
        return decode(blob)
