"""Protocol-level definitions: replies, errors, configuration, stats.

GridFTP extends RFC 959 FTP; we keep the reply-code discipline (1xx
preliminary, 2xx success, 4xx transient failure, 5xx permanent failure)
because the client's retry logic branches on it, exactly as a real
implementation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class FtpReply:
    """A control-channel reply."""

    code: int
    text: str = ""

    @property
    def is_transient_error(self) -> bool:
        return 400 <= self.code < 500

    def __str__(self) -> str:
        return f"{self.code} {self.text}"


# Reply codes used by the implementation (RFC 959 + common practice).
OPENING_DATA = 150
COMMAND_OK = 200
FEATURES = 211
FILE_STATUS = 213
CLOSING_DATA = 226
AUTH_OK = 234
SERVICE_UNAVAILABLE = 421
CANT_OPEN_DATA = 425
TRANSFER_ABORTED = 426
ACTION_NOT_TAKEN = 450
FILE_UNAVAILABLE = 550
SYNTAX_ERROR = 501
NOT_LOGGED_IN = 530


class GridFtpError(Exception):
    """A command or transfer failed; carries the FTP reply."""

    def __init__(self, reply: FtpReply):
        super().__init__(str(reply))
        self.reply = reply

    @property
    def transient(self) -> bool:
        """True if a retry may succeed (4xx)."""
        return self.reply.is_transient_error


@dataclass
class GridFtpConfig:
    """Client-side transfer configuration.

    Attributes
    ----------
    parallelism:
        TCP streams per (source host → destination) pair (``OPTS RETR
        Parallelism=N``).
    buffer_bytes:
        Explicit SBUF value; ``None`` negotiates the bandwidth–delay
        product automatically (§7's sizing formula).
    channel_caching:
        Keep data channels (and warm TCP windows) between transfers.
    stall_timeout:
        Seconds of zero progress before a stream is declared dead.
    retry_limit:
        Restart attempts per transfer before giving up.
    retry_backoff:
        Seconds between restart attempts.
    progress_poll:
        How often the request manager samples a transfer's delivered
        bytes ("checking the file size ... every few seconds", §4) while
        something reads them mid-transfer: a transfer monitor or the
        reliability plug-in (a lifecycle hook runs only between
        attempts). Other transfers schedule no sample.
    stall_poll:
        Tick grid of the data-channel stall watchdog; ``None`` (default)
        means ``min(stall_timeout / 4, 5)`` seconds (see
        :attr:`repro.net.tcp.TcpParams.stall_poll`).
    loss_rate:
        Random-loss events per second per data stream (models shared /
        congested paths; 0 = clean path).
    stage_watermark:
        Fraction of a tape-resident file that must be staged before the
        transfer starts (stage/transfer cut-through). ``None`` (default)
        keeps the paper's strictly sequential behaviour — wait for the
        whole file. Must be in (0, 1]: a strictly positive watermark
        guarantees the stage (and its cache pin) completes before the
        rate-capped transfer can drain the last byte.
    verify_checksum:
        When True, the request manager re-computes every delivered
        file's digest and compares it against the catalog's
        publish-time digest; a mismatch quarantines the replica and
        re-transfers from another copy. False (the default) preserves
        the trusting pre-integrity behaviour.
    """

    parallelism: int = 1
    buffer_bytes: Optional[float] = None
    channel_caching: bool = False
    stall_timeout: float = 30.0
    retry_limit: int = 10
    retry_backoff: float = 5.0
    progress_poll: float = 2.0
    stall_poll: Optional[float] = None
    loss_rate: float = 0.0
    stage_watermark: Optional[float] = None
    verify_checksum: bool = False

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.buffer_bytes is not None and self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.stall_timeout <= 0 or self.retry_backoff < 0:
            raise ValueError("bad timeout configuration")
        if self.progress_poll <= 0:
            raise ValueError("progress_poll must be positive")
        if self.stall_poll is not None and self.stall_poll <= 0:
            raise ValueError("stall_poll must be positive")
        if self.loss_rate < 0:
            raise ValueError("loss_rate must be >= 0")
        if self.stage_watermark is not None \
                and not (0.0 < self.stage_watermark <= 1.0):
            raise ValueError("stage_watermark must be in (0, 1]")


@dataclass(slots=True)
class TransferStats:
    """Outcome of one logical transfer."""

    path: str
    requested_bytes: float
    transferred_bytes: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    streams: int = 1
    stripes: int = 1
    restarts: int = 0
    replica_switches: int = 0
    channel_reused: bool = False
    # Blocks that completed while a corrupt-transfer fault window was
    # open on the path (the delivered file carries integrity marks).
    tainted_blocks: int = 0
    # (time, reason) per restart; () until the first, so a clean
    # transfer holds no list (likewise ``series`` unless recorded).
    faults: Sequence[Tuple[float, str]] = ()
    # Source bytes the server's ERET plug-in decoded to produce this
    # product (0 for plain transfers and derived-cache hits).
    eret_decoded_bytes: float = 0.0
    # True when the product came from the server's derived-product cache.
    eret_cache_hit: bool = False
    # Closed per-flow RateSeries (one per block actually moved); aggregate
    # with repro.net.aggregate_series for the wire-bandwidth timeline.
    series: Sequence = ()

    @property
    def duration(self) -> float:
        """Wall-clock seconds from start to completion."""
        return self.finished_at - self.started_at

    @property
    def mean_rate(self) -> float:
        """Average goodput in bytes/s (0 for instant transfers)."""
        return (self.transferred_bytes / self.duration
                if self.duration > 0 else 0.0)

    def __repr__(self) -> str:
        return (f"TransferStats({self.path!r}, "
                f"{self.transferred_bytes / 2**20:.1f} MiB in "
                f"{self.duration:.2f}s, {self.mean_rate * 8 / 1e6:.1f} Mb/s, "
                f"{self.streams}x{self.stripes}, restarts={self.restarts})")
