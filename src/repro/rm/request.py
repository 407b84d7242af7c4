"""Request/ticket data model for the request manager."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.core import Environment
from repro.sim.events import Event


class FileState(enum.Enum):
    """Lifecycle of one file within a request."""

    PENDING = "pending"
    SELECTING = "selecting replica"
    STAGING = "staging from tape"
    TRANSFERRING = "transferring"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(slots=True)
class FileRequest:
    """One logical file within a multi-file request."""

    collection: str
    logical_file: str
    state: FileState = FileState.PENDING
    size: float = 0.0
    bytes_done: float = 0.0
    chosen_location: Optional[str] = None
    tried_locations: List[str] = field(default_factory=list)
    replica_switches: int = 0
    restarts: int = 0
    error: Optional[str] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    # resilience bookkeeping (see repro.rm.resilience)
    deadline_at: Optional[float] = None       # absolute sim time, or None
    failure_class: Optional[object] = None    # FailureClass on FAILED
    breaker_skips: int = 0                    # candidates shed by breakers
    degraded_rankings: int = 0                # ranks done without live NWS
    # integrity pipeline (see repro.data.digest / GridFtpConfig.verify_checksum)
    pinned_replicas: Optional[List] = None    # pre-resolved LocationInfos
    # stale-tolerant selection (see repro.replica.federation)
    stale_lookups: int = 0                    # lookups served from stale data
    stale_demotes: int = 0                    # entries demoted on open mismatch
    verified: bool = False                    # digest matched the catalog
    verify_seconds: float = 0.0               # time spent in checksum scans
    integrity_failures: int = 0               # mismatches caught on arrival

    @property
    def fraction(self) -> float:
        """Completion fraction in [0, 1]."""
        if self.state is FileState.DONE:
            return 1.0
        return self.bytes_done / self.size if self.size > 0 else 0.0

    def progress_bar(self, width: int = 30) -> str:
        """ASCII progress bar (the Figure 4 per-file rows)."""
        filled = int(round(self.fraction * width))
        return "[" + "#" * filled + "-" * (width - filled) + "]"


class RequestTicket:
    """Handle for a submitted multi-file request; ``done`` fires with None."""

    __slots__ = ("id", "id_text", "env", "files", "done", "submitted_at",
                 "cancelled", "deadline_at", "aborted", "breakers", "_handles",
                 "monitored")

    def __init__(self, env: Environment, files: List[FileRequest],
                 deadline_at: Optional[float] = None):
        self.id = env.next_id("ticket")
        # The id as every ULM record about this ticket carries it: one
        # str shared by all of them.
        self.id_text = str(self.id)
        self.env = env
        self.files = files
        self.done: Event = Event(env)
        self.submitted_at = env.now
        self.cancelled = False
        # absolute sim time by which the whole request must terminate
        self.deadline_at = deadline_at
        # fires on cancel() so backoff sleeps can exit promptly
        self.aborted: Event = Event(env)
        # per-ticket circuit-breaker board, attached by the RM at submit
        self.breakers = None
        # transient per-file transfer handles, maintained by the RM
        self._handles: dict = {}
        # Set by a TransferMonitor: the RM then samples each attempt's
        # progress into the files' bytes_done/state while it runs, not
        # only at its end.
        self.monitored = False

    def _on_files_ended(self, ev: Event) -> None:
        """Callback of the condition over the ticket's file threads.

        "After all the files of a request transfer successfully, the RM
        notifies CDAT." (The deadline watchdog may have got there
        first.) A file thread that raised fails the condition, and the
        error leaves the simulation run here.
        """
        if not ev.ok:
            raise ev.exception
        if not self.done.triggered:
            self.done.succeed()

    def cancel(self, reason: str = "user cancel") -> None:
        """Stop the request: in-flight transfers abort, pending files
        are skipped ("initiate, *control* and monitor", §4)."""
        self.cancelled = True
        if not self.aborted.triggered:
            self.aborted.succeed(reason)
        for handle in list(self._handles.values()):
            if not handle.done.triggered:
                handle.abort(reason)

    @property
    def total_bytes(self) -> float:
        """Sum of known file sizes."""
        return sum(f.size for f in self.files)

    @property
    def bytes_done(self) -> float:
        """Aggregate delivered bytes ("total bytes transferred for all
        file requests are displayed", §4)."""
        return sum(f.size if f.state is FileState.DONE else f.bytes_done
                   for f in self.files)

    @property
    def complete(self) -> bool:
        """True once every file has reached a terminal state."""
        return all(f.state in (FileState.DONE, FileState.FAILED,
                               FileState.CANCELLED)
                   for f in self.files)

    @property
    def failed_files(self) -> List[FileRequest]:
        return [f for f in self.files if f.state is FileState.FAILED]

    def __repr__(self) -> str:
        done = sum(1 for f in self.files if f.state is FileState.DONE)
        return (f"RequestTicket(#{self.id}, {done}/{len(self.files)} files, "
                f"{self.bytes_done / 2**20:.1f} MiB)")
