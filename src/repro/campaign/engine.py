"""The replication campaign engine: journaled, crash-resumable driver.

Drives a :class:`~repro.campaign.manifest.CampaignManifest` through a
:class:`~repro.rm.manager.RequestManager` in bounded batches, recording
every per-file transition in a
:class:`~repro.campaign.journal.CampaignJournal` via the RM's lifecycle
hooks. The journal is the engine's *only* durable state:

- :meth:`ReplicationCampaign.crash` models a process kill — all
  in-flight tickets are cancelled, the work queue evaporates, nothing
  is written (a dying process does not get to checkpoint);
- :meth:`ReplicationCampaign.restart` replays the journal and re-queues
  exactly the files whose replayed state is non-terminal — a file the
  journal shows VERIFIED is never transferred again.

Bulk transfers ride the shared
:class:`~repro.rm.scheduler.TransferScheduler` at bulk priority (the
RM's priority is the ticket's file count), so interactive tenants keep
their latency while the campaign saturates the leftovers.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.campaign.journal import (
    CampaignJournal,
    CampaignState,
    TERMINAL,
)
from repro.campaign.manifest import CampaignManifest, ManifestEntry
from repro.obs import Observability
from repro.replica.catalog import LocationInfo
from repro.rm.manager import RequestManager
from repro.rm.request import FileState
from repro.sim.core import Environment
from repro.sim.events import Event


class ReplicationCampaign:
    """A verified bulk-replication campaign over one request manager.

    Parameters
    ----------
    env, rm:
        Simulation environment and the (dedicated) request manager the
        campaign drives. Enable ``verify_checksum`` on the RM's GridFTP
        config to get digest verification + quarantine semantics.
    manifest, replicas:
        Output of :func:`~repro.campaign.manifest.plan_campaign`.
    journal:
        Resume from an existing journal; default starts fresh.
    max_inflight:
        Concurrent batch tickets (bounds campaign pressure on the
        shared scheduler so interactive tenants keep their latency).
    batch_size:
        Files per ticket. Also the RM priority of campaign tickets —
        larger = more clearly bulk class.
    max_file_attempts:
        Campaign-level requeue budget per file before journaling FAILED
        (each requeue re-enters the RM's own retry machinery).
    """

    def __init__(self, env: Environment, rm: RequestManager,
                 manifest: CampaignManifest,
                 replicas: Dict[Tuple[str, str], List[LocationInfo]],
                 journal: Optional[CampaignJournal] = None,
                 max_inflight: int = 6, batch_size: int = 32,
                 max_file_attempts: int = 5, obs=None,
                 name: str = "campaign"):
        if max_inflight < 1 or batch_size < 1 or max_file_attempts < 1:
            raise ValueError("max_inflight, batch_size and "
                             "max_file_attempts must be >= 1")
        self.env = env
        self.rm = rm
        self.manifest = manifest
        self.replicas = replicas
        self.journal = journal or CampaignJournal()
        self.max_inflight = max_inflight
        self.batch_size = batch_size
        self.max_file_attempts = max_file_attempts
        self.obs = obs or Observability()
        self.name = name
        self._by_key = {e.key: e for e in manifest.entries}
        self.queue: deque = deque()
        self.attempts: Dict[str, int] = {}
        self._deliveries: Dict[str, int] = {}
        self._tickets: List = []
        # every ticket id this campaign ever submitted (including ones
        # cancelled by a crash) — the reconciliation join key against
        # the scheduler's per-flow byte accounting.
        self.ticket_ids: List[int] = []
        self._workers = 0
        self.down = False
        self.epoch = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done: Event = Event(env)
        # reconciliation counters
        self.bytes_delivered = 0.0
        self.bytes_retransferred = 0.0
        self.corruptions_caught = 0
        self.verified_retransfers = 0   # resume-correctness tripwire: 0
        self.verify_seconds = 0.0
        self.crashes = 0
        self.resumes = 0
        rm.add_hook(self._on_rm_event)

    def _event(self, name: str, **fields) -> None:
        self.obs.event(name, prog="campaign", host=self.name, **fields)

    # -- driving -------------------------------------------------------------
    def start(self) -> Event:
        """Plan and launch the campaign; returns the completion event."""
        if self.started_at is not None:
            raise RuntimeError("campaign already started")
        self.started_at = self.env.now
        for entry in self.manifest.entries:
            self.journal.append(entry.key, CampaignState.PENDING,
                                self.env.now, note="plan")
            self.queue.append(entry)
        self._event("campaign.start", files=len(self.manifest.entries))
        self._spawn_workers()
        return self.done

    def wait(self):
        """Simulation process: wait for completion; returns the report."""
        result = yield self.done
        return result

    def _spawn_workers(self) -> None:
        self._workers = self.max_inflight
        for _ in range(self.max_inflight):
            self.env.process(self._worker(self.epoch))

    def _worker(self, epoch: int):
        while not self.down and epoch == self.epoch:
            batch: List[ManifestEntry] = []
            while self.queue and len(batch) < self.batch_size:
                batch.append(self.queue.popleft())
            if not batch:
                break
            resolved = {(e.collection, e.logical_file):
                        self.replicas.get((e.collection, e.logical_file),
                                          [])
                        for e in batch}
            ticket = self.rm.submit(
                [(e.collection, e.logical_file) for e in batch],
                resolved=resolved)
            self._tickets.append(ticket)
            self.ticket_ids.append(ticket.id)
            yield ticket.done
            if ticket in self._tickets:
                self._tickets.remove(ticket)
            if self.down or epoch != self.epoch:
                # Crashed mid-batch: the journal already holds the
                # per-file truth; a dying process settles nothing.
                return
            for fr, entry in zip(ticket.files, batch):
                self._settle(fr, entry)
        self._worker_done(epoch)

    def _settle(self, fr, entry: ManifestEntry) -> None:
        """Fold one finished FileRequest into journal + queue."""
        key = entry.key
        now = self.env.now
        if fr.state is FileState.DONE:
            if self.journal.state(key) is CampaignState.DELIVERED:
                # Verification disabled (or no digest published):
                # size-complete delivery is the best truth available.
                self.journal.append(key, CampaignState.VERIFIED, now,
                                    location=fr.chosen_location or "",
                                    note="size-only")
            return
        if fr.state is FileState.CANCELLED:
            # Only crashes cancel campaign tickets; restart re-queues.
            return
        self._requeue_or_fail(entry, fr.error or fr.state.value)

    def _requeue_or_fail(self, entry: ManifestEntry, reason: str) -> None:
        key = entry.key
        attempts = self.attempts.get(key, 0) + 1
        self.attempts[key] = attempts
        if attempts >= self.max_file_attempts:
            self.journal.append(key, CampaignState.FAILED, self.env.now,
                                note=reason)
            self._event("campaign.file.failed", file=key, reason=reason)
            return
        self.journal.append(key, CampaignState.PENDING, self.env.now,
                            note=f"requeue: {reason}")
        self.queue.append(entry)

    def _worker_done(self, epoch: int) -> None:
        if epoch != self.epoch or self.down:
            return
        self._workers -= 1
        if self._workers > 0:
            return
        # Queue drained and all workers idle: self-heal any file left
        # non-terminal (e.g. cancelled during a crash epoch), else done.
        stragglers = [e for e in self.manifest.entries
                      if self.journal.state(e.key) not in TERMINAL]
        if stragglers:
            for entry in stragglers:
                self._requeue_or_fail(entry, "straggler")
            if self.queue:
                self._spawn_workers()
                return
        self._finish()

    def _finish(self) -> None:
        if self.done.triggered:
            return
        self.finished_at = self.env.now
        report = self.report()
        self._event("campaign.done",
                    verified=report["states"].get("verified", 0),
                    failed=report["states"].get("failed", 0))
        self.done.succeed(report)

    # -- RM lifecycle hook -----------------------------------------------------
    def _on_rm_event(self, stage: str, fr, info: dict) -> None:
        if self.down:
            return  # a dead process journals nothing
        key = f"{fr.collection}|{fr.logical_file}"
        if key not in self._by_key:
            return  # interactive tenant traffic on a shared RM
        now = self.env.now
        if stage == "attempt":
            if self.journal.state(key) is CampaignState.VERIFIED:
                # Resume-correctness tripwire: a VERIFIED file must
                # never be transferred again. (The journal ignores the
                # regression; the counter makes the bug visible.)
                self.verified_retransfers += 1
            self.journal.append(key, CampaignState.IN_FLIGHT, now,
                                location=info.get("location", ""))
        elif stage == "delivered":
            nbytes = float(info.get("bytes", 0.0))
            self.bytes_delivered += nbytes
            if self._deliveries.get(key, 0) > 0:
                self.bytes_retransferred += nbytes
            self._deliveries[key] = self._deliveries.get(key, 0) + 1
            self.journal.append(key, CampaignState.DELIVERED, now,
                                nbytes=nbytes,
                                location=info.get("location", ""))
        elif stage == "verified":
            self.verify_seconds += float(info.get("seconds", 0.0))
            self.journal.append(key, CampaignState.VERIFIED, now,
                                nbytes=float(info.get("bytes", 0.0)),
                                location=info.get("location", ""))
        elif stage == "integrity_failed":
            self.corruptions_caught += 1
            self.journal.append(key, CampaignState.QUARANTINED, now,
                                location=info.get("location", ""),
                                note="digest mismatch")
        # "failed" is settled at ticket completion (attempt budget).

    # -- crash / resume --------------------------------------------------------
    def crash(self) -> None:
        """Kill the campaign process mid-run (fault injection).

        In-flight tickets are cancelled, queued work evaporates, and —
        deliberately — nothing is journaled: a dying process does not
        get a checkpoint. Recovery is :meth:`restart`'s journal replay.
        """
        if self.down:
            return
        self.down = True
        self.crashes += 1
        self.epoch += 1
        inflight = len(self._tickets)
        for ticket in list(self._tickets):
            ticket.cancel("campaign crashed")
        self._tickets.clear()
        self.queue.clear()
        self._workers = 0
        self._event("campaign.crash", inflight=inflight)

    def restart(self) -> None:
        """Recover from :meth:`crash` by replaying the journal.

        Every file whose replayed state is non-terminal is re-queued
        (IN_FLIGHT and DELIVERED included — unverified bytes from
        before the crash cannot be trusted); VERIFIED and FAILED files
        are never touched again.
        """
        if not self.down:
            return
        self.down = False
        self.resumes += 1
        replayed = self.journal.replay()
        requeued = 0
        for entry in self.manifest.entries:
            folded = replayed.get(entry.key)
            state = folded.state if folded is not None else None
            if state in TERMINAL:
                continue
            self.journal.append(entry.key, CampaignState.PENDING,
                                self.env.now, note="resume")
            self.queue.append(entry)
            requeued += 1
        self._event("campaign.restart", requeued=requeued)
        self._spawn_workers()

    # -- reconciliation --------------------------------------------------------
    def report(self) -> dict:
        """Reconciliation summary (also the ``done`` event's value)."""
        states: Dict[str, int] = {}
        for entry in self.manifest.entries:
            st = self.journal.state(entry.key)
            label = st.value if st is not None else "unplanned"
            states[label] = states.get(label, 0) + 1
        makespan = None
        if self.started_at is not None and self.finished_at is not None:
            makespan = self.finished_at - self.started_at
        return {
            "files": len(self.manifest.entries),
            "bytes_total": self.manifest.total_bytes,
            "states": states,
            "bytes_delivered": self.bytes_delivered,
            "bytes_retransferred": self.bytes_retransferred,
            "corruptions_caught": self.corruptions_caught,
            "verified_retransfers": self.verified_retransfers,
            "verify_seconds": self.verify_seconds,
            "crashes": self.crashes,
            "resumes": self.resumes,
            "journal_records": len(self.journal),
            "journal_ignored": self.journal.ignored,
            "makespan": makespan,
        }

    def __repr__(self) -> str:
        return (f"ReplicationCampaign({self.name!r}, "
                f"{len(self.manifest)} files, "
                f"{'down' if self.down else 'up'})")
