"""The GridFTP client: sessions, parallel gets, puts, third-party copies.

A :class:`ClientSession` is an authenticated control connection to one
server. ``get`` moves a file with N parallel data channels: the file is
cut into blocks, channels pull blocks from a shared queue (approximating
GridFTP's extended-block mode), and failed channels' unfinished blocks
return to the queue for restart — so a transient outage costs a restart,
not a re-send of everything (§6.1 "reliable and restartable data
transfer" / Figure 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.digest import MARKS_KEY
from repro.gridftp.channels import DataChannelCache
from repro.gridftp.protocol import (
    CANT_OPEN_DATA,
    FtpReply,
    GridFtpConfig,
    GridFtpError,
    SERVICE_UNAVAILABLE,
    TRANSFER_ABORTED,
    TransferStats,
)
from repro.gridftp.server import GridFtpServer
from repro.gsi.auth import AuthenticationError
from repro.gsi.credentials import Identity
from repro.net.fluid import FlowError
from repro.net.recorder import RateRecorder
from repro.net.tcp import bdp_buffer_size
from repro.net.transport import Connection, ConnectionRefused, Transport
from repro.obs import Counter, Family, Histogram, Observability
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.storage.filesystem import FileSystem

_MIN_BLOCK = 256 * 1024.0

# Per-transfer and per-connect metric families (obs.children).
_TRANSFERS = Family(Counter, "gridftp.transfers_total", "op", "host")
_BYTES = Family(Counter, "gridftp.bytes_total", "op")
_TRANSFER_SECONDS = Family(Histogram, "gridftp.transfer_seconds", "op")
_TTFB = Family(Histogram, "gridftp.ttfb_seconds", "op")
_CUTTHROUGH_TTFB = Family(Histogram, "hrm.cutthrough_ttfb_seconds")
_CONNECTS = Family(Counter, "gridftp.connects_total", "host", "outcome")
_BLOCKS_PER_CHANNEL = 4


class TransferHandle:
    """Live view of an in-progress transfer (what the RM monitor polls)."""

    __slots__ = ("env", "path", "total", "done", "_completed", "_active_flows",
                 "aborted", "abort_reason", "abort_event", "first_byte_at",
                 "cutthrough", "taints", "ticket")

    def __init__(self, env: Environment, path: str, total: float):
        self.env = env
        self.path = path
        self.total = total
        self.done: Event = Event(env)
        self._completed = 0.0
        self._active_flows: List = []
        self.aborted = False
        self.abort_reason = ""
        # Fires on abort() so waiters that hold no flow yet (e.g. a
        # worker queued in the transfer scheduler) can wake promptly.
        self.abort_event: Event = Event(env)
        # sim time the first data flow started moving bytes (TTFB anchor)
        self.first_byte_at: Optional[float] = None
        # True when this transfer started against a still-staging file
        # (stage/transfer cut-through).
        self.cutthrough = False
        # Integrity marks picked up in flight: one entry per block that
        # completed while a corrupt-transfer fault window was open on
        # the path. A non-empty list means the delivered file is bad;
        # () until the first mark, so a clean transfer holds no list.
        self.taints: Sequence[str] = ()
        # The RM ticket served, stamped on the gridftp.first_byte record.
        self.ticket: Optional[str] = None

    def begin_attempt(self, total: float) -> None:
        """Reset per-attempt progress for a new get/put on this handle.

        A reused handle (retry after a failed attempt) must not carry
        the previous attempt's delivered bytes or in-flight taints
        forward: the new attempt re-sends from scratch, so stale
        ``_completed`` would double-count bytes in the scheduler's
        grant accounting and stale taints would condemn a clean copy.
        """
        self.total = total
        self._completed = 0.0
        self._active_flows = []
        self.taints = ()

    def bytes_done(self) -> float:
        """Bytes delivered so far (live flows included)."""
        live = sum(f.progress() for f in self._active_flows if f.active)
        return self._completed + live

    @property
    def fraction(self) -> float:
        """Completion fraction in [0, 1]."""
        return self.bytes_done() / self.total if self.total > 0 else 1.0

    def abort(self, reason: str = "user abort") -> None:
        """Cancel the transfer; the waiter sees a GridFtpError."""
        self.aborted = True
        self.abort_reason = reason
        if not self.abort_event.triggered:
            self.abort_event.succeed(reason)
        for f in list(self._active_flows):
            if f.active:
                f.abort(reason)


class ClientSession:
    """An authenticated control connection to one GridFTP server."""

    __slots__ = ("client", "server", "control", "subjects", "env",
                 "commands_sent", "_closed")

    def __init__(self, client: "GridFtpClient", server: GridFtpServer,
                 control: Connection, subjects: Tuple[str, str]):
        self.client = client
        self.server = server
        self.control = control
        self.subjects = subjects
        self.env = client.env
        self.commands_sent = 0
        self._closed = False

    # -- simple commands ---------------------------------------------------
    def _command(self, server_time: float = 0.0):
        self.commands_sent += 1
        yield from self.control.request(server_time=server_time)

    def close(self) -> None:
        """Tear down the control connection and free the server slot."""
        if self._closed:
            return
        self._closed = True
        self.control.close()
        self.server.release_connection()

    # -- data transfer ----------------------------------------------------------
    def get(self, path: str, dest_fs: FileSystem, dest_host,
            dest_name: Optional[str] = None,
            offset: float = 0.0, length: Optional[float] = None,
            eret: Optional[str] = None, eret_args: Optional[dict] = None,
            record: bool = False,
            handle: Optional[TransferHandle] = None,
            config: Optional[GridFtpConfig] = None):
        """Simulation process: RETR ``path`` into ``dest_fs``.

        Returns :class:`TransferStats`. With ``record=True`` the stats
        carry one closed RateSeries per moved block (sum them with
        :func:`repro.net.aggregate_series` for the bandwidth timeline).
        Raises :class:`GridFtpError` with a 4xx/5xx reply on failure
        (426 when retries are exhausted).
        """
        cfg = config or self.client.config
        env = self.env
        # SBUF + OPTS + RETR setup commands.
        yield from self._command()
        retr = yield from self.server.prepare_retrieve(
            path, offset, length, eret, eret_args,
            watermark=cfg.stage_watermark)
        nbytes = retr.nbytes
        # A rate cap means the file is still growing on the staging disk
        # and the transfer must not outrun the tape readahead.
        rate_cap = retr.rate_cap
        stats = TransferStats(path=path, requested_bytes=nbytes,
                              started_at=env.now, streams=cfg.parallelism)
        if retr.decoded is not None:
            stats.eret_decoded_bytes = retr.decoded
            stats.eret_cache_hit = retr.cache_hit
        if handle is None:
            handle = TransferHandle(env, path, nbytes)
        else:
            handle.begin_attempt(nbytes)
        handle.cutthrough = rate_cap is not None
        src = self.server.data_node
        dst = dest_host.store_node
        # Register with the server so a crash drops this transfer.
        self.server.register_handle(handle)
        try:
            yield from self._pump_blocks(path, src, dst, nbytes, cfg, stats,
                                         handle, record, rate_cap=rate_cap)
        except BaseException:
            # The RETR dies here without reaching finish_retrieve: give
            # back the stage pin (or pending waiter slot) it holds.
            self.server.abandon_retrieve(retr)
            raise
        finally:
            self.server.unregister_handle(handle)
        # 226 closing data connection.
        yield from self._command()
        name = dest_name or path
        delivered = dest_fs.create(name, nbytes, content=retr.content,
                                   overwrite=True)
        # Integrity propagation: the delivered copy inherits the source
        # replica's at-rest marks plus any in-flight taints. The marks
        # change the file's digest — only verification can see them.
        marks = (tuple(self.server.integrity_marks(path))
                 + tuple(handle.taints))
        if marks:
            delivered.metadata[MARKS_KEY] = marks
        stats.tainted_blocks = len(handle.taints)
        self.server.finish_retrieve(retr)
        stats.finished_at = env.now
        handle._completed = nbytes
        handle.done.succeed(stats)
        self._record_transfer("get", stats, handle)
        return stats

    def _record_transfer(self, op: str, stats: TransferStats,
                         handle: TransferHandle) -> None:
        """Per-transfer metrics."""
        children = self.client.obs.children
        children[_TRANSFERS, op, self.server.hostname].inc()
        children[_BYTES, op].inc(stats.transferred_bytes)
        children[_TRANSFER_SECONDS, op].observe(
            stats.finished_at - stats.started_at)
        if handle.first_byte_at is not None:
            ttfb = handle.first_byte_at - stats.started_at
            children[_TTFB, op].observe(ttfb)
            if handle.cutthrough:
                children[_CUTTHROUGH_TTFB].observe(ttfb)

    def _channel_worker(self, conn: Connection,
                        queue: List[Tuple[float, float]],
                        failed: List[Tuple[float, float]],
                        series_out: Optional[list],
                        handle: TransferHandle, path: str,
                        rate_cap: Optional[float] = None):
        """One data channel pulling blocks until the queue drains.

        ``queue`` holds ``(offset, length)`` blocks; a failed block's
        undelivered tail goes back to ``failed`` for the next restart
        round, so a restart resends only bytes not yet delivered.
        ``rate_cap`` (cut-through) is a hard per-channel ceiling the TCP
        window cannot exceed.
        """
        moved = 0.0
        # Corrupt-transfer windows: the fluid model has no per-byte
        # stream to flip bits in, so corruption is sampled at block
        # granularity — a block whose flow starts or completes inside an
        # open window on any path link arrives damaged.
        topology = conn.transport.network.topology
        path_links = topology.path(conn.src, conn.dst)
        while queue:
            offset, block = queue.pop()
            rec = (RateRecorder(f"gridftp:{path}")
                   if series_out is not None else None)
            suspect = (topology.corrupting_links > 0
                       and any(l.corrupting for l in path_links))
            try:
                flow = conn.transport.network.transfer(
                    conn.src, conn.dst, block,
                    cap=conn.stream.window_cap,
                    name=f"gridftp:{path}", recorder=rec,
                    limit=(rate_cap if rate_cap is not None
                           else float("inf")))
                handle._active_flows.append(flow)
                if handle.first_byte_at is None:
                    handle.first_byte_at = self.env.now
                    self.client.obs.event(
                        "gridftp.first_byte", prog="gridftp",
                        host=self.server.hostname, file=path,
                        **({} if handle.ticket is None
                           else {"ticket": handle.ticket}))
                conn.stream.drive(flow)
                yield from conn.watch(flow)
                moved += block
                conn.bytes_sent += block
                conn.transfers += 1
                handle._active_flows.remove(flow)
                handle._completed += block
                if suspect or (topology.corrupting_links > 0 and any(
                        l.corrupting for l in path_links)):
                    if not handle.taints:
                        handle.taints = []
                    handle.taints.append(
                        f"xfer@{self.env.now:.3f}+{offset:.0f}")
                    self.client.obs.count("gridftp.tainted_blocks_total",
                                          host=self.server.hostname)
                if rec is not None and not rec.is_empty:
                    series_out.append(rec.close(self.env.now))
            except FlowError:
                delivered = flow.transferred
                moved += delivered
                handle._completed += delivered
                if flow in handle._active_flows:
                    handle._active_flows.remove(flow)
                if rec is not None and not rec.is_empty:
                    series_out.append(rec.close(self.env.now))
                failed.append((offset + delivered, block - delivered))
                conn.close()
                return moved
        return moved

    def _start_workers(self, channels: List[Connection],
                       queue: List[Tuple[float, float]],
                       failed: List[Tuple[float, float]],
                       series_out: Optional[list],
                       handle: TransferHandle, path: str,
                       rate_cap: Optional[float]) -> List:
        """One :meth:`_channel_worker` process per channel. (A method of
        its own, so the comprehension puts no closure cells in the
        block pump's long-lived frame.)"""
        return [self.env.process(self._channel_worker(
            conn, queue, failed, series_out, handle, path,
            rate_cap=rate_cap)) for conn in channels]

    def put(self, path: str, source_fs: FileSystem, source_host,
            dest_name: Optional[str] = None,
            record: bool = False,
            handle: Optional[TransferHandle] = None,
            config: Optional[GridFtpConfig] = None):
        """Simulation process: STOR a local file onto the server.

        Uploads are as restartable as downloads — interrupted blocks
        resend their undelivered tails, up to ``retry_limit`` times.
        """
        cfg = config or self.client.config
        file = source_fs.stat(path)
        yield from self._command()
        src = source_host.store_node
        dst = self.server.data_node
        stats = TransferStats(path=path, requested_bytes=file.size,
                              started_at=self.env.now,
                              streams=cfg.parallelism)
        if handle is None:
            handle = TransferHandle(self.env, path, file.size)
        else:
            handle.begin_attempt(file.size)
        yield from self._pump_blocks(path, src, dst, file.size, cfg,
                                     stats, handle, record)
        yield from self._command()
        self.server.store(dest_name or path, file.size,
                          content=file.content)
        stats.finished_at = self.env.now
        handle._completed = file.size
        handle.done.succeed(stats)
        self._record_transfer("put", stats, handle)
        return stats

    def _pump_blocks(self, path: str, src: str, dst: str, nbytes: float,
                     cfg: GridFtpConfig, stats: TransferStats,
                     handle: TransferHandle, record: bool,
                     rate_cap: Optional[float] = None):
        """Shared restartable block pump for RETR and STOR.

        Opens ``cfg.parallelism`` data channels, drains the block queue,
        requeues what failed, and retries with backoff until done or
        ``retry_limit`` is exhausted (426). ``rate_cap`` (cut-through)
        bounds the *aggregate* rate: it is split evenly across the open
        channels so the sum can never exceed the tape readahead.
        """
        env = self.env
        buffer_bytes = self.client.negotiate_buffer(src, dst, cfg)
        blocks = _make_blocks(nbytes, cfg.parallelism)
        completed = 0.0
        attempts = 0
        if record:
            stats.series = []
        while blocks:
            if handle.aborted:
                raise GridFtpError(FtpReply(TRANSFER_ABORTED,
                                            handle.abort_reason))
            try:
                channels = yield from self.client._open_channels(
                    src, dst, cfg, buffer_bytes)
            except GridFtpError as exc:
                # Path currently unreachable (e.g. mid-outage): that is a
                # transient condition — back off and retry like any other
                # interrupted attempt.
                if not exc.transient:
                    raise
                channels = []
            if not channels:
                attempts += 1
                stats.restarts += 1
                self.client.obs.count("gridftp.restarts_total",
                                      reason="no_channels")
                stats.faults = [*stats.faults, (env.now, "no data channels")]
                if attempts > cfg.retry_limit:
                    raise GridFtpError(FtpReply(
                        TRANSFER_ABORTED,
                        f"{path}: cannot open data channels to {dst} "
                        f"after {attempts} attempts"))
                yield env.timeout(cfg.retry_backoff)
                continue
            stats.channel_reused = stats.channel_reused or any(
                c.transfers > 0 for c in channels)
            failed: List[Tuple[float, float]] = []
            per_channel = (rate_cap / len(channels)
                           if rate_cap is not None else None)
            # The workers pop from ``blocks`` itself.
            results = yield env.all_of(self._start_workers(
                channels, blocks, failed, stats.series if record else None,
                handle, path, per_channel))
            moved = sum(results.values())
            completed += moved
            stats.transferred_bytes += moved
            # Unfinished work: blocks whose channel died, plus blocks no
            # channel ever pulled (every channel died).
            blocks = failed + blocks
            for conn in channels:
                if conn.open:
                    self.client._release_channel(conn, cfg)
            if blocks:
                attempts += 1
                stats.restarts += 1
                self.client.obs.count("gridftp.restarts_total",
                                      reason="blocks_lost")
                stats.faults = [*stats.faults,
                                (env.now, f"{len(blocks)} blocks lost")]
                if handle.aborted:
                    raise GridFtpError(FtpReply(TRANSFER_ABORTED,
                                                handle.abort_reason))
                if attempts > cfg.retry_limit:
                    raise GridFtpError(FtpReply(
                        TRANSFER_ABORTED,
                        f"{path}: {completed:.0f}/{nbytes:.0f}B after "
                        f"{attempts} attempts"))
                yield env.timeout(cfg.retry_backoff)


class GridFtpClient:
    """Factory for sessions; owns config, credentials, and channel cache.

    Parameters
    ----------
    env, transport:
        Simulation environment and transport layer.
    registry:
        hostname → :class:`GridFtpServer` (the simulated "network" of
        grid-enabled endpoints).
    identity:
        The user's :class:`~repro.gsi.credentials.Identity`: a proxy is
        delegated from it at the first connect and again whenever the
        held one has expired. ``None`` presents no credentials.
    config:
        Default :class:`GridFtpConfig` for transfers.
    """

    def __init__(self, env: Environment, transport: Transport,
                 registry: Dict[str, GridFtpServer],
                 identity: Optional[Identity] = None,
                 config: Optional[GridFtpConfig] = None,
                 client_name: str = "client", obs=None):
        self.env = env
        self.transport = transport
        self.registry = registry
        self.identity = identity
        self.credential_chain: tuple = ()  # the proxy chain last delegated
        self.config = config or GridFtpConfig()
        self.client_name = client_name
        self.obs = obs or Observability()
        self.channel_cache = DataChannelCache(env)
        self._stream_serial = 0

    # -- session management ---------------------------------------------------
    def connect(self, client_host, hostname: str,
                config: Optional[GridFtpConfig] = None):
        """Simulation process: open an authenticated control session."""
        server = self.registry.get(hostname)
        if server is None:
            self.obs.children[_CONNECTS, hostname, "unknown"].inc()
            raise GridFtpError(FtpReply(CANT_OPEN_DATA,
                                        f"unknown server {hostname!r}"))
        if not server.up:
            self.obs.children[_CONNECTS, hostname, "down"].inc()
            raise GridFtpError(FtpReply(
                CANT_OPEN_DATA, f"server {hostname} refused connection "
                "(down)"))
        if not server.try_accept():
            # At its connection limit the daemon rejects outright (421)
            # instead of queueing silently — visible backpressure.
            self.obs.children[_CONNECTS, hostname, "busy"].inc()
            raise GridFtpError(FtpReply(
                SERVICE_UNAVAILABLE,
                f"server {hostname} refused connection (busy: "
                f"{server.max_connections} sessions)"))
        cfg = config or self.config
        try:
            control = yield from self.transport.connect(
                client_host.node, hostname,
                self.transport.params(stall_timeout=cfg.stall_timeout,
                                      stall_poll=cfg.stall_poll))
        except ConnectionRefused as exc:
            server.release_connection()
            self.obs.children[_CONNECTS, hostname, "refused"].inc()
            raise GridFtpError(FtpReply(CANT_OPEN_DATA, str(exc))) from exc
        rtt = self.transport.network.topology.rtt(
            client_host.node, server.control_node)
        chain = self.credential_chain
        if self.identity is not None and (
                not chain or chain[0].is_expired(self.env.now)):
            chain = self.identity.make_proxy(self.env.now)
            self.credential_chain = chain
        try:
            subjects = yield from server.authenticate(chain, rtt)
        except AuthenticationError as exc:
            control.close()
            server.release_connection()
            self.obs.children[_CONNECTS, hostname, "auth"].inc()
            raise GridFtpError(FtpReply(530, str(exc))) from exc
        self.obs.children[_CONNECTS, hostname, "ok"].inc()
        return ClientSession(self, server, control, subjects)

    # -- data channel pool --------------------------------------------------------
    def negotiate_buffer(self, src: str, dst: str,
                         cfg: GridFtpConfig) -> float:
        """SBUF value: explicit, or the path's bandwidth–delay product."""
        if cfg.buffer_bytes is not None:
            return cfg.buffer_bytes
        topo = self.transport.network.topology
        rtt = topo.rtt(src, dst)
        bottleneck = topo.bottleneck_capacity(src, dst)
        return max(bdp_buffer_size(bottleneck, rtt), 64 * 1024.0)

    def _open_channels(self, src: str, dst: str, cfg: GridFtpConfig,
                       buffer_bytes: float):
        """Simulation process: acquire ``cfg.parallelism`` data channels."""
        channels: List[Connection] = []
        needed = cfg.parallelism
        if cfg.channel_caching:
            while len(channels) < needed:
                cached = self.channel_cache.acquire(src, dst)
                if cached is None:
                    break
                channels.append(cached)
        params = self.transport.params(buffer_bytes=buffer_bytes,
                                       stall_timeout=cfg.stall_timeout,
                                       stall_poll=cfg.stall_poll,
                                       loss_rate=cfg.loss_rate)
        while len(channels) < needed:
            try:
                # A unique stream counter (advanced even with no loss
                # modelled) keeps successive connections' losses independent.
                self._stream_serial += 1
                rng = (self.env.rng.spawn("gridftp.loss", self._stream_serial)
                       if params.loss_rate > 0 else None)
                conn = yield from self.transport.connect(src, dst, params,
                                                         rng=rng)
            except ConnectionRefused as exc:
                if channels:
                    break  # work with what we have
                raise GridFtpError(FtpReply(CANT_OPEN_DATA,
                                            str(exc))) from exc
            channels.append(conn)
        return channels

    def _release_channel(self, conn: Connection, cfg: GridFtpConfig) -> None:
        if cfg.channel_caching:
            self.channel_cache.release(conn)
        else:
            conn.close()

    # -- third-party transfers -------------------------------------------------------
    def third_party_copy(self, control_host, src_hostname: str,
                         dst_hostname: str, path: str,
                         dest_name: Optional[str] = None,
                         record: bool = False,
                         config: Optional[GridFtpConfig] = None):
        """Simulation process: server-to-server copy under client control.

        "Third-party control of data transfer that allows a user or
        application at one site to initiate, monitor and control a data
        transfer operation between two other sites." (§6.1)
        """
        cfg = config or self.config
        src_session = yield from self.connect(control_host, src_hostname,
                                              cfg)
        dst_session = yield from self.connect(control_host, dst_hostname,
                                              cfg)
        dst_server = dst_session.server
        try:
            stats = yield from src_session.get(
                path, dst_server.fs, dst_server.host,
                dest_name=dest_name, record=record, config=cfg)
        finally:
            src_session.close()
            dst_session.close()
        return stats


def _make_blocks(nbytes: float, parallelism: int
                 ) -> List[Tuple[float, float]]:
    """Cut a transfer into a work queue of ``(offset, length)`` blocks.

    More blocks than channels (×4) so channels that finish early keep
    pulling work — a fluid-scale stand-in for extended-block mode. The
    offsets let a failed block requeue just its undelivered tail.
    """
    if nbytes <= 0:
        return []
    n_blocks = max(1, parallelism * _BLOCKS_PER_CHANNEL)
    if nbytes / n_blocks < _MIN_BLOCK:
        n_blocks = max(1, int(nbytes // _MIN_BLOCK))
    block = nbytes / n_blocks
    blocks = [(i * block, block) for i in range(n_blocks)]
    # Fix rounding drift on the last block.
    last_off = (n_blocks - 1) * block
    blocks[-1] = (last_off, nbytes - last_off)
    return blocks
