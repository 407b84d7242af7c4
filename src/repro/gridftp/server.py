"""The GridFTP server: one per data host.

The server owns a filesystem (what it serves), optional server-side
processing plug-ins (ERET), and an optional HRM for tape-resident data —
"the motivation for GridFTP is to provide a uniform interface to various
storage systems" (§6.1), so the same RETR works whether the bytes are on
disk or must first be staged from HPSS.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.data.digest import add_mark, file_digest, marks_of
from repro.gridftp.derived_cache import DerivedProductCache
from repro.gridftp.protocol import (
    ACTION_NOT_TAKEN,
    FILE_UNAVAILABLE,
    FtpReply,
    GridFtpError,
    SYNTAX_ERROR,
)
from repro.gsi.auth import AuthenticationError, GsiContext
from repro.hosts.host import Host
from repro.obs import Counter, Family, Gauge, Observability
from repro.sim.core import Environment
from repro.storage.filesystem import FileObject, FileSystem
from repro.storage.hrm import HierarchicalResourceManager, StagingError

# Per-session and per-RETR metric families (obs.children).
_REJECTS = Family(Counter, "gridftp.server_rejects_total", "host")
_CONNECTIONS = Family(Gauge, "gridftp.server_connections", "host")
_ERET_DECODED = Family(Counter, "gridftp.eret_decoded_bytes_total", "host")
_SERVED = Family(Counter, "gridftp.served_total", "host")
_SERVED_BYTES = Family(Counter, "gridftp.served_bytes_total", "host")

# An ERET plugin: (file, args) -> (derived_size, derived_content|None)
# or (derived_size, derived_content|None, bytes_decoded). The optional
# third element is how many source bytes the plug-in decoded; 2-tuple
# plug-ins are charged a whole-file decode. A plug-in may also carry a
# ``stage_prefix(file, args) -> Optional[float]`` attribute naming the
# byte prefix that suffices to serve the request (used for tape
# staging cut-through).
EretPlugin = Callable[[FileObject, dict], tuple]

# Bytes/s an ERET plug-in decodes source data at (server CPU). The charge
# is proportional to *bytes decoded*, so chunked SDBF files — where a
# subset decodes only the touched chunks — cost less to serve than flat
# ones.
ERET_RATE = 150 * 2**20
# Byte budget of each server's LRU cache of derived products.
DERIVED_CACHE_BYTES = 64 * 2**20


class Retrieval:
    """One RETR that passed :meth:`GridFtpServer.prepare_retrieve`.

    The client holds it for the transfer and hands it back to
    ``finish_retrieve`` or ``abandon_retrieve``, so each RETR settles
    its own stage pin however many RETRs of the same path overlap.
    ``action`` is how the pin is balanced: "release" (full stage
    waited, pin held), "shared" (returned before the stage completed —
    still a waiter, maybe pinned later) or "none" (no HRM touch: disk
    file or cache hit). ``rate_cap`` is the tape readahead rate when a
    whole-file RETR cut through a still-staging file; ``decoded`` and
    ``cache_hit`` are the ERET accounting (``decoded`` is None for a
    plain RETR).
    """

    __slots__ = ("path", "nbytes", "content", "action", "rate_cap",
                 "decoded", "cache_hit")

    def __init__(self, path: str):
        self.path = path
        self.nbytes = 0.0
        self.content: Optional[bytes] = None
        self.action = "none"
        self.rate_cap: Optional[float] = None
        self.decoded: Optional[float] = None
        self.cache_hit = False


class GridFtpServer:
    """A GridFTP endpoint serving one host's filesystem.

    Parameters
    ----------
    env, host:
        Simulation environment and the host this server runs on.
    filesystem:
        The namespace served.
    gsi:
        Security context (None disables authentication — used by unit
        tests and by the DODS baseline comparison).
    credential_chain:
        The server's certificate chain for mutual auth.
    hrm:
        Optional hierarchical resource manager for tape-backed files.
    hostname:
        DNS name clients connect to (defaults to the host's node name).
    max_connections:
        Concurrent control sessions the daemon accepts; further
        connects are *rejected* with a 421 reply rather than silently
        queued, so client-side admission control (the transfer
        scheduler) is observable against a hard server limit. ``None``
        (the default) accepts everything.
    eret_range_staging:
        When True (default), an ERET request against a tape-resident
        chunked file starts as soon as the byte prefix covering its
        chunk set is disk-resident, instead of waiting for the whole
        file to stage.
    """

    def __init__(self, env: Environment, host: Host, filesystem: FileSystem,
                 gsi: Optional[GsiContext] = None,
                 credential_chain: tuple = (),
                 hrm: Optional[HierarchicalResourceManager] = None,
                 hostname: Optional[str] = None, obs=None,
                 max_connections: Optional[int] = None,
                 eret_range_staging: bool = True):
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1 when set")
        self.env = env
        self.host = host
        self.fs = filesystem
        self.gsi = gsi
        self.credential_chain = credential_chain
        self.hrm = hrm
        self.obs = obs or Observability()
        self.hostname = hostname or host.node
        self.max_connections = max_connections
        self.active_connections = 0
        self.rejected_connections = 0
        self._plugins: Dict[str, EretPlugin] = {}
        self.bytes_served = 0.0
        self.transfers_served = 0
        self.auth_failures = 0
        self.up = True
        self.crashes = 0
        self._active_handles: set = set()
        self.cutthrough_served = 0
        self.eret_range_staging = eret_range_staging
        self.eret_decoded_bytes = 0.0
        self.eret_range_staged = 0
        # Keyed by source content digest + operation + args: a repeat of
        # the same reduction is answered with zero bytes decoded and no
        # stage pin. Set to None to disable.
        self.derived_cache: Optional[DerivedProductCache] = \
            DerivedProductCache(DERIVED_CACHE_BYTES, self.hostname, self.obs)

    # -- connection limiting ----------------------------------------------
    def try_accept(self) -> bool:
        """Reserve a control-session slot; False = at the limit (421)."""
        if (self.max_connections is not None
                and self.active_connections >= self.max_connections):
            self.rejected_connections += 1
            self.obs.children[_REJECTS, self.hostname].inc()
            return False
        self.active_connections += 1
        self.obs.children[_CONNECTIONS, self.hostname].set(
            self.active_connections)
        return True

    def release_connection(self) -> None:
        """Give back a control-session slot (idempotent at zero)."""
        if self.active_connections > 0:
            self.active_connections -= 1
            self.obs.children[_CONNECTIONS, self.hostname].set(
                self.active_connections)

    # -- fault injection ---------------------------------------------------
    def register_handle(self, handle) -> None:
        """Track an in-flight transfer so a crash can drop it."""
        self._active_handles.add(handle)

    def unregister_handle(self, handle) -> None:
        """Forget a transfer that finished (or already aborted)."""
        self._active_handles.discard(handle)

    def crash(self) -> None:
        """Go down: refuse new connections, abort in-flight transfers."""
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        self.active_connections = 0
        aborted = len(self._active_handles)
        for handle in list(self._active_handles):
            handle.abort(f"server {self.hostname} crashed")
        self._active_handles.clear()
        self.obs.event("gridftp.server.crash", prog="gridftp",
                       host=self.hostname, aborted=aborted)
        self.obs.count("gridftp.server_crashes_total",
                       host=self.hostname)

    def restart(self) -> None:
        """Come back up; clients must reconnect."""
        if not self.up:
            self.obs.event("gridftp.server.restart", prog="gridftp",
                           host=self.hostname)
        self.up = True

    # -- endpoints ---------------------------------------------------------
    @property
    def data_node(self) -> str:
        """Topology node data flows originate from (the serving disk)."""
        return self.host.store_node

    @property
    def control_node(self) -> str:
        """Topology node for the control connection."""
        return self.host.node

    # -- plugins ------------------------------------------------------------
    def register_plugin(self, name: str, plugin: EretPlugin) -> None:
        """Install a server-side processing plug-in (ERET module)."""
        self._plugins[name] = plugin

    # -- command handlers (invoked by ClientSession) --------------------------
    def authenticate(self, client_chain: tuple, rtt: float):
        """Simulation process: GSI mutual authentication (or no-op)."""
        if self.gsi is None:
            return ("anonymous", self.hostname)
        try:
            result = yield from self.gsi.authenticate(
                self.env, client_chain, self.credential_chain, rtt)
        except AuthenticationError:
            self.auth_failures += 1
            raise
        return result

    def size(self, path: str) -> float:
        """SIZE: the file's byte count (64-bit — no 2 GB ceiling)."""
        file = self._find(path)
        return file.size

    def integrity_marks(self, path: str) -> tuple:
        """Corruption marks on the served copy of ``path`` (() = pristine
        or unknown). Free to call: metadata, not a scan."""
        try:
            return marks_of(self._find(path))
        except GridFtpError:
            return ()

    def corrupt_file(self, path: str, tag: str = "at-rest") -> FileObject:
        """Fault injection: silently damage the served copy of ``path``.

        Appends an integrity mark, which changes the file's digest —
        only a checksum scan can tell the copy has gone bad.
        """
        file = self._find(path)
        add_mark(file, tag)
        self.obs.event("gridftp.replica.corrupted", prog="gridftp",
                       host=self.hostname, file=path, tag=tag)
        self.obs.count("gridftp.replica_corruptions_total",
                       host=self.hostname)
        return file

    def exists(self, path: str) -> bool:
        """True if this server can produce ``path`` (disk or tape)."""
        if self.fs.exists(path):
            return True
        return self.hrm is not None and self.hrm.mss.has(path)

    def prepare_retrieve(self, path: str, offset: float = 0.0,
                         length: Optional[float] = None,
                         eret: Optional[str] = None,
                         eret_args: Optional[dict] = None,
                         watermark: Optional[float] = None):
        """Simulation process: make ``path`` ready to send.

        Stages tape-resident files through the HRM if needed, applies any
        ERET plug-in, validates the partial-retrieval window, and returns
        the :class:`Retrieval` the client passes back to
        :meth:`finish_retrieve` or :meth:`abandon_retrieve`.

        With ``watermark`` set (a fraction in (0, 1]), a whole-file RETR
        of a file that is still staging returns as soon as that fraction
        is disk-resident (stage/transfer cut-through): the record carries
        the tape readahead rate as ``rate_cap``, so the transfer can
        never overtake the staged prefix. Partial reads address
        arbitrary byte ranges and always wait for the full file.

        ERET requests take their own reduced-data fast path: a hit in
        the derived-product cache answers with zero bytes decoded and
        no stage pin; otherwise, if the plug-in publishes a
        ``stage_prefix`` planner and the file is tape-resident, the
        plug-in runs as soon as that prefix is disk-resident (range
        staging cut-through). Decode CPU is charged at ``ERET_RATE``
        proportional to the bytes the plug-in actually decoded.
        """
        if not self.up:
            raise GridFtpError(FtpReply(
                ACTION_NOT_TAKEN, f"server {self.hostname} is down"))
        if offset < 0 or (length is not None and length < 0):
            raise GridFtpError(FtpReply(SYNTAX_ERROR,
                                        "negative offset/length"))
        if eret is not None or offset != 0.0 or length is not None:
            watermark = None
        retr = Retrieval(path)
        if eret is not None:
            plugin = self._plugins.get(eret)
            if plugin is None:
                raise GridFtpError(FtpReply(
                    SYNTAX_ERROR, f"no ERET plugin {eret!r}"))
            size, content = yield from self._serve_eret(
                retr, eret, plugin, eret_args or {})
        else:
            file = yield from self._materialize(retr, watermark)
            size, content = file.size, file.content
        if offset > size:
            self._settle_retrieve(retr, abandon=True)
            raise GridFtpError(FtpReply(
                SYNTAX_ERROR, f"offset {offset:.0f} beyond size {size:.0f}"))
        nbytes = (size - offset) if length is None else min(length,
                                                            size - offset)
        if content is not None:
            lo = int(offset)
            content = content[lo:lo + int(nbytes)]
        retr.nbytes, retr.content = nbytes, content
        return retr

    def _serve_eret(self, retr: Retrieval, eret: str, plugin: EretPlugin,
                    args: dict):
        """Simulation process: produce a derived product for
        ``retr.path``; returns ``(size, content)`` and fills in the
        record's stage-pin action and ERET accounting."""
        path = retr.path
        try:
            src = self._find(path)
        except GridFtpError:
            src = None
        key = None
        if src is not None and self.derived_cache is not None:
            key = DerivedProductCache.make_key(file_digest(src), eret, args)
            hit = self.derived_cache.get(key, file=path, op=eret)
            if hit is not None:
                retr.decoded, retr.cache_hit = 0.0, True
                return hit.size, hit.content
        prefix = None
        if (self.eret_range_staging and src is not None
                and self.hrm is not None and self.hrm.mss.has(path)):
            planner = getattr(plugin, "stage_prefix", None)
            if planner is not None:
                prefix = planner(src, args)
        file = yield from self._materialize(retr, None, prefix_bytes=prefix)
        try:
            result = plugin(file, args)
            if len(result) >= 3:
                size, content, decoded = result[0], result[1], result[2]
            else:
                size, content = result
                decoded = float(file.size)
            if size < 0:
                raise GridFtpError(FtpReply(
                    SYNTAX_ERROR, f"plugin {eret!r} returned bad size"))
        except Exception:
            # Balance the stage pin this RETR took before surfacing the
            # failure, or the file stays pinned forever.
            self._settle_retrieve(retr, abandon=True)
            raise
        # Decode CPU: proportional to source bytes turned into arrays,
        # not to file size — the whole point of the chunked layout.
        yield self.env.timeout(decoded / ERET_RATE)
        self.eret_decoded_bytes += decoded
        self.obs.children[_ERET_DECODED, self.hostname].inc(decoded)
        if key is not None:
            self.derived_cache.put(key, size, content, file=path, op=eret)
        retr.decoded = decoded
        return size, content

    def finish_retrieve(self, retr: Retrieval) -> None:
        """Account a completed (possibly partial) send and balance the
        stage pin this RETR took (no-op for non-MSS files)."""
        nbytes = retr.nbytes
        self.bytes_served += nbytes
        self.transfers_served += 1
        children = self.obs.children
        children[_SERVED, self.hostname].inc()
        children[_SERVED_BYTES, self.hostname].inc(nbytes)
        self._settle_retrieve(retr)

    def abandon_retrieve(self, retr: Retrieval) -> None:
        """A RETR that passed ``prepare_retrieve`` failed mid-transfer:
        balance its stage pin (or pending waiter slot) so the file does
        not stay pinned forever."""
        self._settle_retrieve(retr, abandon=True)

    def _settle_retrieve(self, retr: Retrieval, abandon: bool = False) -> None:
        """Balance one RETR's stage pin according to its action.

        "none" never touched the HRM. "shared" returned before its
        stage completed, so it may or may not hold a pin yet —
        ``hrm.abandon`` handles both. "release" holds a pin; a failed
        transfer still abandons so a mid-stage crash cannot double-free.
        """
        action = retr.action
        if self.hrm is None or action == "none":
            return
        if action == "shared" or abandon:
            self.hrm.abandon(retr.path)
        else:
            self.hrm.release(retr.path)

    def store(self, path: str, size: float,
              content: Optional[bytes] = None,
              overwrite: bool = True) -> FileObject:
        """STOR: accept an uploaded file into the served filesystem."""
        return self.fs.create(path, size, content=content,
                              overwrite=overwrite)

    # -- internals -------------------------------------------------------------
    def _find(self, path: str) -> FileObject:
        if self.fs.exists(path):
            return self.fs.stat(path)
        if self.hrm is not None and self.hrm.mss.has(path):
            if self.hrm.mss.tape.has(path):
                return self.hrm.mss.tape.lookup(path)
        raise GridFtpError(FtpReply(FILE_UNAVAILABLE,
                                    f"{path}: no such file"))

    def _materialize(self, retr: Retrieval,
                     watermark: Optional[float] = None,
                     prefix_bytes: Optional[float] = None):
        """Ensure enough of ``retr.path`` is disk-resident; returns the
        FileObject and sets ``retr.action`` to how the RETR must later
        balance its stage pin (see ``_settle_retrieve``).

        MSS-resident files always go through the HRM — even when already
        published to the serving disk — so every RETR takes exactly one
        cache pin (the HRM's fast path pins cached files per caller) and
        every finish/abandon balances it. With ``watermark`` set, a
        still-staging file is served once that fraction is on disk; the
        transfer is then rate-capped at the tape readahead so it can
        never overtake the staged prefix. With ``prefix_bytes`` set
        (ERET range staging), the file is served once that many leading
        bytes are on disk — the plug-in only reads that prefix, so no
        rate cap is needed; the rest of the stage finishes in the
        background.
        """
        path = retr.path
        if self.hrm is not None and self.hrm.mss.has(path):
            retr.action = "shared"
            try:
                req = self.hrm.request_stage(path)
                streaming = (not req.ready.triggered
                             and req.progress is not None and req.size > 0)
                if streaming and watermark is not None:
                    gate = req.progress.at_bytes(watermark * req.size)
                    # Whichever comes first: the watermark, or the whole
                    # stage (a failed stage raises here via AnyOf).
                    yield self.env.any_of([gate, req.ready])
                    if not req.ready.triggered:
                        return self._begin_cutthrough(retr, req)
                    file = req.ready.value
                elif streaming and prefix_bytes is not None:
                    gate = req.progress.at_bytes(
                        min(prefix_bytes, req.size))
                    yield self.env.any_of([gate, req.ready])
                    if not req.ready.triggered:
                        self.eret_range_staged += 1
                        self.obs.count("gridftp.eret_range_staged_total",
                                       host=self.hostname)
                        self.obs.event(
                            "hrm.rangestage.start", prog="gridftp",
                            host=self.hostname, file=path,
                            prefix=f"{prefix_bytes:.0f}",
                            total=f"{req.size:.0f}")
                        return self.hrm.mss.tape.lookup(path)
                    file = req.ready.value
                else:
                    file = yield req.ready
            except StagingError as exc:
                # Surface tape/HRM failures as a transient 450 so the RM
                # can classify and retry elsewhere.
                raise GridFtpError(FtpReply(
                    ACTION_NOT_TAKEN, f"{path}: staging failed: {exc}")) \
                    from exc
            retr.action = "release"
            return file
        if self.fs.exists(path):
            return self.fs.stat(path)
        raise GridFtpError(FtpReply(FILE_UNAVAILABLE,
                                    f"{path}: no such file"))
        yield  # pragma: no cover - makes this a generator in all paths

    def _begin_cutthrough(self, retr: Retrieval, req) -> FileObject:
        """Serve a growing file: cap the RETR at the tape readahead rate
        and account the overlap."""
        path = retr.path
        retr.rate_cap = self.hrm.mss.tape.spec.read_rate
        self.cutthrough_served += 1
        self.obs.count("gridftp.cutthrough_total", host=self.hostname)
        self.obs.event(
            "hrm.cutthrough.start", prog="gridftp", host=self.hostname,
            file=path, staged=f"{req.progress.staged_bytes():.0f}",
            total=f"{req.size:.0f}")
        return self.hrm.mss.tape.lookup(path)

    def __repr__(self) -> str:
        return (f"GridFtpServer({self.hostname!r}, "
                f"{len(self.fs)} files, hrm={self.hrm is not None})")
