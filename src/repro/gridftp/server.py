"""The GridFTP server: one per data host.

The server owns a filesystem (what it serves), optional server-side
processing plug-ins (ERET), and an optional HRM for tape-resident data —
"the motivation for GridFTP is to provide a uniform interface to various
storage systems" (§6.1), so the same RETR works whether the bytes are on
disk or must first be staged from HPSS.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

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
_CHECKSUMS = Family(Counter, "gridftp.checksums_total", "host")
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
    checksum_rate:
        Bytes/s the CKSM command scans at (disk read + hash CPU).
    eret_rate:
        Bytes/s an ERET plug-in decodes source data at (server CPU).
        The charge is proportional to *bytes decoded*, so chunked SDBF
        files — where a subset decodes only the touched chunks — cost
        less to serve than flat ones.
    derived_cache_bytes:
        Byte budget for the per-server LRU cache of derived products,
        keyed by source content digest + operation + args. A repeat of
        the same reduction is answered from the cache with zero bytes
        decoded and no stage pin. ``0`` disables the cache.
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
                 checksum_rate: float = 150 * 2**20,
                 eret_rate: float = 150 * 2**20,
                 derived_cache_bytes: float = 64 * 2**20,
                 eret_range_staging: bool = True):
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1 when set")
        if checksum_rate <= 0:
            raise ValueError("checksum_rate must be positive")
        if eret_rate <= 0:
            raise ValueError("eret_rate must be positive")
        if derived_cache_bytes < 0:
            raise ValueError("derived_cache_bytes must be >= 0")
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
        # Cut-through hand-off: per-path stack of tape readahead rate
        # caps, pushed by _materialize when a transfer starts against a
        # still-growing file and claimed synchronously by the client.
        self._pending_rate_caps: Dict[str, list] = {}
        self.cutthrough_served = 0
        self.checksum_rate = float(checksum_rate)
        self.checksums_served = 0
        self.eret_rate = float(eret_rate)
        self.eret_range_staging = eret_range_staging
        self.eret_decoded_bytes = 0.0
        self.eret_range_staged = 0
        self.derived_cache: Optional[DerivedProductCache] = (
            DerivedProductCache(derived_cache_bytes, self.hostname, self.obs)
            if derived_cache_bytes > 0 else None)
        # Per-path stack of how each in-flight RETR must balance its
        # stage pin: "release" (full stage waited, pin held), "shared"
        # (returned before stage completion — still a waiter, maybe
        # pinned later), "none" (no HRM touch: disk file or cache hit).
        self._retrieve_actions: Dict[str, list] = {}
        # ERET accounting hand-off: per-path stack of
        # {"decoded": bytes, "cache": bool}, claimed synchronously by
        # the client after prepare_retrieve (like the rate cap).
        self._pending_eret_info: Dict[str, list] = {}

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

    @property
    def features(self) -> Tuple[str, ...]:
        """FEAT response: supported extensions."""
        feats = ["GSI", "PARALLEL", "SBUF", "REST STREAM", "ERET", "SPAS",
                 "SIZE", "64BIT"]
        feats.extend(f"ERET:{n}" for n in sorted(self._plugins))
        return tuple(feats)

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

    def cksm(self, path: str):
        """CKSM: the file's content digest (simulation process).

        Cost-modeled as a full disk+CPU scan at ``checksum_rate``.
        MSS-resident files stage through the HRM first, and the stage's
        cache pin is held for the entire scan so cache churn cannot
        evict the bytes mid-checksum.
        """
        if not self.up:
            raise GridFtpError(FtpReply(
                ACTION_NOT_TAKEN, f"server {self.hostname} is down"))
        if self.hrm is not None and self.hrm.mss.has(path):
            try:
                req = self.hrm.request_stage(path)
                file = yield req.ready
            except StagingError as exc:
                raise GridFtpError(FtpReply(
                    ACTION_NOT_TAKEN, f"{path}: staging failed: {exc}")) \
                    from exc
            try:
                yield self.env.timeout(file.size / self.checksum_rate)
            finally:
                self.hrm.release(path)
        else:
            if not self.fs.exists(path):
                raise GridFtpError(FtpReply(
                    FILE_UNAVAILABLE, f"{path}: no such file"))
            file = self.fs.stat(path)
            yield self.env.timeout(file.size / self.checksum_rate)
        self.checksums_served += 1
        self.obs.children[_CHECKSUMS, self.hostname].inc()
        return file_digest(file)

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
        ``(bytes_to_send, content_or_None)``.

        With ``watermark`` set (a fraction in (0, 1]), a whole-file RETR
        of a file that is still staging returns as soon as that fraction
        is disk-resident (stage/transfer cut-through): the server pushes
        the tape readahead rate for the client to claim, so the
        transfer can never overtake the staged prefix. Partial reads
        address arbitrary byte ranges and always wait for the full file.

        ERET requests take their own reduced-data fast path: a hit in
        the derived-product cache answers with zero bytes decoded and
        no stage pin; otherwise, if the plug-in publishes a
        ``stage_prefix`` planner and the file is tape-resident, the
        plug-in runs as soon as that prefix is disk-resident (range
        staging cut-through). Decode CPU is charged at ``eret_rate``
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
        if eret is not None:
            plugin = self._plugins.get(eret)
            if plugin is None:
                raise GridFtpError(FtpReply(
                    SYNTAX_ERROR, f"no ERET plugin {eret!r}"))
            size, content, action, info = yield from self._serve_eret(
                path, eret, plugin, eret_args or {})
        else:
            file, action = yield from self._materialize(path, watermark)
            size, content, info = file.size, file.content, None
        try:
            if offset > size:
                raise GridFtpError(FtpReply(
                    SYNTAX_ERROR,
                    f"offset {offset:.0f} beyond size {size:.0f}"))
        except GridFtpError:
            self._settle_retrieve(path, action, abandon=True)
            raise
        nbytes = (size - offset) if length is None else min(length,
                                                            size - offset)
        if content is not None:
            lo = int(offset)
            content = content[lo:lo + int(nbytes)]
        self._retrieve_actions.setdefault(path, []).append(action)
        if info is not None:
            self._pending_eret_info.setdefault(path, []).append(info)
        return nbytes, content

    def _serve_eret(self, path: str, eret: str, plugin: EretPlugin,
                    args: dict):
        """Simulation process: produce a derived product for ``path``.

        Returns ``(size, content, action, info)`` where ``action`` is
        the stage-pin balance this RETR owes and ``info`` is the
        accounting dict the client claims.
        """
        try:
            src = self._find(path)
        except GridFtpError:
            src = None
        key = None
        if src is not None and self.derived_cache is not None:
            key = DerivedProductCache.make_key(file_digest(src), eret, args)
            hit = self.derived_cache.get(key, file=path, op=eret)
            if hit is not None:
                return (hit.size, hit.content, "none",
                        {"decoded": 0.0, "cache": True})
        prefix = None
        if (self.eret_range_staging and src is not None
                and self.hrm is not None and self.hrm.mss.has(path)):
            planner = getattr(plugin, "stage_prefix", None)
            if planner is not None:
                prefix = planner(src, args)
        file, action = yield from self._materialize(path, None,
                                                    prefix_bytes=prefix)
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
            self._settle_retrieve(path, action, abandon=True)
            raise
        # Decode CPU: proportional to source bytes turned into arrays,
        # not to file size — the whole point of the chunked layout.
        yield self.env.timeout(decoded / self.eret_rate)
        self.eret_decoded_bytes += decoded
        self.obs.children[_ERET_DECODED, self.hostname].inc(decoded)
        if key is not None:
            self.derived_cache.put(key, size, content, file=path, op=eret)
        return size, content, action, {"decoded": decoded, "cache": False}

    def claim_retrieve_rate_cap(self, path: str) -> Optional[float]:
        """Pop the cut-through rate cap pushed by the last
        ``prepare_retrieve`` of ``path``, if any.

        Called by the client synchronously after ``prepare_retrieve``
        returns (no simulation yield in between, so hand-offs cannot
        interleave across sessions).
        """
        caps = self._pending_rate_caps.get(path)
        if not caps:
            return None
        cap = caps.pop()
        if not caps:
            del self._pending_rate_caps[path]
        return cap

    def claim_retrieve_eret_info(self, path: str) -> Optional[dict]:
        """Pop the ERET accounting dict (``{"decoded": bytes, "cache":
        bool}``) pushed by the last ``prepare_retrieve`` of ``path``.

        Called by the client synchronously after ``prepare_retrieve``
        returns, like :meth:`claim_retrieve_rate_cap`.
        """
        infos = self._pending_eret_info.get(path)
        if not infos:
            return None
        info = infos.pop()
        if not infos:
            del self._pending_eret_info[path]
        return info

    def finish_retrieve(self, path: str, nbytes: float) -> None:
        """Account a completed (possibly partial) send and balance the
        stage pin this RETR took (no-op for non-MSS files)."""
        self.bytes_served += nbytes
        self.transfers_served += 1
        children = self.obs.children
        children[_SERVED, self.hostname].inc()
        children[_SERVED_BYTES, self.hostname].inc(nbytes)
        self._settle_retrieve(path, self._pop_action(path))

    def abandon_retrieve(self, path: str) -> None:
        """A RETR that passed ``prepare_retrieve`` failed mid-transfer:
        balance its stage pin (or pending waiter slot) so the file does
        not stay pinned forever."""
        self._settle_retrieve(path, self._pop_action(path), abandon=True)

    def _pop_action(self, path: str) -> str:
        """Pop this RETR's pin-balance action ("release" when untracked,
        matching the pre-action-stack behavior)."""
        stack = self._retrieve_actions.get(path)
        if not stack:
            return "release"
        action = stack.pop()
        if not stack:
            del self._retrieve_actions[path]
        return action

    def _settle_retrieve(self, path: str, action: str,
                         abandon: bool = False) -> None:
        """Balance one RETR's stage pin according to its action.

        "none" never touched the HRM. "shared" returned before its
        stage completed, so it may or may not hold a pin yet —
        ``hrm.abandon`` handles both. "release" holds a pin; a failed
        transfer still abandons so a mid-stage crash cannot double-free.
        """
        if self.hrm is None or action == "none":
            return
        if action == "shared" or abandon:
            self.hrm.abandon(path)
        else:
            self.hrm.release(path)

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

    def _materialize(self, path: str, watermark: Optional[float] = None,
                     prefix_bytes: Optional[float] = None):
        """Ensure enough of the file is disk-resident; returns
        ``(FileObject, action)`` where ``action`` names how the RETR
        must later balance its stage pin (see ``_settle_retrieve``).

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
        if self.hrm is not None and self.hrm.mss.has(path):
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
                        return self._begin_cutthrough(path, req), "shared"
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
                        return self.hrm.mss.tape.lookup(path), "shared"
                    file = req.ready.value
                else:
                    file = yield req.ready
            except StagingError as exc:
                # Surface tape/HRM failures as a transient 450 so the RM
                # can classify and retry elsewhere.
                raise GridFtpError(FtpReply(
                    ACTION_NOT_TAKEN, f"{path}: staging failed: {exc}")) \
                    from exc
            return file, "release"
        if self.fs.exists(path):
            return self.fs.stat(path), "none"
        raise GridFtpError(FtpReply(FILE_UNAVAILABLE,
                                    f"{path}: no such file"))
        yield  # pragma: no cover - makes this a generator in all paths

    def _begin_cutthrough(self, path: str, req) -> FileObject:
        """Serve a growing file: push the readahead rate cap for the
        client and account the overlap."""
        rate = self.hrm.mss.tape.spec.read_rate
        self._pending_rate_caps.setdefault(path, []).append(rate)
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
