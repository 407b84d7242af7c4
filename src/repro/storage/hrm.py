"""The Hierarchical Resource Manager (HRM).

Paper §4: "HRM is a component that sits in front of the MSS (in this case
an HPSS system at LBNL) and stages files from the MSS to its local disk
cache. After this action is complete, the RM uses GridFTP to move the
file securely over the wide-area network to its destination."

The HRM here:

- accepts stage requests and deduplicates concurrent requests for the
  same file (one tape read serves all waiters),
- publishes staged files into the host filesystem GridFTP serves from,
  and exposes the live staged-byte watermark
  (:attr:`StageRequest.progress`) so the GridFTP server can start a
  cut-through transfer at a fractional watermark instead of waiting for
  the whole file,
- pins staged files in the MSS cache **once per waiter** while transfers
  reference them; each :meth:`release` balances exactly one pin,
- prefetches hinted dataset siblings (:meth:`hint_dataset`) during idle
  drive time, in cartridge/seek order, behind the cache's prefetch
  admission policy — speculation never evicts pinned or demand data and
  never delays demand tape reads (prefetch runs at lower tape priority).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.data.digest import add_mark
from repro.obs import Counter, Family, Histogram, Observability
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.storage.filesystem import FileObject, FileSystem
from repro.storage.hpss import MassStorageSystem
from repro.storage.tape import PRIORITY_DEMAND, PRIORITY_PREFETCH, \
    StageProgress

# Staging metric families (obs.children).
_STAGES = Family(Counter, "hrm.stages_total", "outcome")
_STAGE_SECONDS = Family(Histogram, "hrm.stage_seconds")
_TRUNCATED = Family(Counter, "hrm.truncated_stages_total")
_PREFETCHES = Family(Counter, "hrm.prefetches_total")
_PREFETCH_HITS = Family(Counter, "hrm.prefetch_hits_total", "kind")


class StagingError(Exception):
    """A stage request failed (tape drive / HRM outage)."""


@dataclass
class StageRequest:
    """One logical staging request (possibly shared by several callers).

    ``id`` is assigned from the environment's per-run counter
    (``env.next_id``) so logged ids are a function of the run, not of
    how many HRMs the process created before this one.
    """

    name: str
    ready: Event
    requested_at: float
    completed_at: Optional[float] = None
    waiters: int = 1
    id: int = 0
    prefetch: bool = False
    size: float = 0.0
    progress: Optional[StageProgress] = None

    @property
    def stage_time(self) -> Optional[float]:
        """Wall-clock staging duration, once complete."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at


class HierarchicalResourceManager:
    """Stages tape-resident files to disk ahead of WAN transfer."""

    def __init__(self, env: Environment, mss: MassStorageSystem,
                 serve_fs: FileSystem, name: str = "hrm", obs=None,
                 prefetch: bool = True):
        self.env = env
        self.mss = mss
        self.serve_fs = serve_fs
        self.name = name
        self.obs = obs or Observability()
        self.prefetch_enabled = prefetch
        self._inflight: Dict[str, StageRequest] = {}
        self._hinted: Dict[str, bool] = {}  # insertion-ordered name set
        self.down = False
        self.truncating = False
        self.truncated_stages = 0
        self.stage_failures = 0
        self.prefetch_issued = 0
        self.prefetch_hits = 0
        self.prefetch_aborted = 0
        self.prefetch_skipped = 0

    def _event(self, name: str, **fields) -> None:
        self.obs.event(name, host=self.name, prog="hrm", **fields)

    # -- fault injection -----------------------------------------------------
    def fail_staging(self) -> None:
        """Tape/HRM failure: abort in-flight stages, refuse new ones."""
        if self.down:
            return
        self.down = True
        self._event("hrm.down", inflight=len(self._inflight))
        for req in list(self._inflight.values()):
            self._inflight.pop(req.name, None)
            if req.prefetch:
                self.prefetch_aborted += 1
                self._event("hrm.prefetch.abort", file=req.name,
                            reason="hrm outage")
                continue
            self.stage_failures += 1
            self._event("hrm.stage.failed", file=req.name,
                        reason="hrm outage")
            self.obs.children[_STAGES, "failed"].inc()
            if not req.ready.triggered:
                req.ready.fail(StagingError(
                    f"{self.name}: staging failed for {req.name!r}"))

    def restore(self) -> None:
        """The HRM is healthy again; new stage requests are accepted."""
        if self.down:
            self._event("hrm.restored")
        self.down = False

    def begin_truncating(self) -> None:
        """Integrity fault: stages completing from now on publish a
        silently damaged (short) copy to the serving disk."""
        self.truncating = True
        self._event("hrm.truncating.begin")

    def end_truncating(self) -> None:
        """The staging path is healthy again."""
        self.truncating = False
        self._event("hrm.truncating.end")

    # -- staging -------------------------------------------------------------
    def request_stage(self, name: str) -> StageRequest:
        """Ask for ``name`` to become disk-resident.

        Returns a :class:`StageRequest`; wait on ``request.ready``. If the
        same file is already being staged (or prefetched), the existing
        request is shared — every sharer is one *waiter*, and the staged
        file is pinned once per waiter on completion.
        """
        existing = self._inflight.get(name)
        if existing is not None:
            existing.waiters += 1
            if existing.prefetch:
                # Demand caught up with an in-flight prefetch: the tape
                # read already has a head start.
                existing.prefetch = False
                self._count_prefetch_hit(name, inflight=True)
            return existing
        req = StageRequest(name, Event(self.env), self.env.now,
                           id=self.env.next_id("hrm.stage"))
        self._event("hrm.stage.request", file=name)
        if self.down:
            self.stage_failures += 1
            self._event("hrm.stage.failed", file=name, reason="hrm down")
            self.obs.children[_STAGES, "failed"].inc()
            req.ready.fail(StagingError(
                f"{self.name}: HRM is down, cannot stage {name!r}"))
            return req
        if self.serve_fs.exists(name) and self.mss.is_staged(name):
            # Already disk-resident: complete immediately (one pin for
            # this caller; pin() promotes a prefetched entry to demand).
            was_prefetched = self.mss.cache.kind(name) == "prefetch"
            req.completed_at = self.env.now
            self.mss.cache.pin(name)
            if was_prefetched:
                self._count_prefetch_hit(name, inflight=False)
            req.ready.succeed(self.serve_fs.stat(name))
            self._record_done(req, cached=True)
            return req
        if self.mss.tape.has(name) and not self.mss.is_staged(name):
            req.size = self.mss.tape.lookup(name).size
            req.progress = StageProgress(self.env, req.size)
        self._inflight[name] = req
        self.env.process(self._stage(req))
        return req

    def _stage(self, req: StageRequest):
        try:
            file = yield from self.mss.retrieve(
                req.name,
                priority=(PRIORITY_PREFETCH if req.prefetch
                          else PRIORITY_DEMAND),
                kind="prefetch" if req.prefetch else "demand",
                progress=req.progress)
        except Exception as exc:
            self._inflight.pop(req.name, None)
            if req.prefetch:
                # Nobody is waiting: note it and move on.
                self.prefetch_aborted += 1
                self._event("hrm.prefetch.abort", file=req.name,
                            reason=str(exc))
                self._maybe_prefetch()
                return
            self._event("hrm.stage.failed", file=req.name,
                        reason=str(exc))
            self.obs.children[_STAGES, "failed"].inc()
            if not req.ready.triggered:
                req.ready.fail(exc)
            return
        if req.ready.triggered:
            # fail_staging() already failed this request mid-retrieve.
            return
        if self.truncating and not self.serve_fs.exists(req.name):
            # Integrity fault: publish (and hand waiters) a damaged COPY
            # — never mark the retrieved object itself, because the tape
            # archive and the disk cache share that FileObject and the
            # archival copy must stay pristine.
            file = FileObject(file.name, file.size, file.content,
                              file.created_at, dict(file.metadata))
            add_mark(file, f"truncated@{self.env.now:.0f}")
            self.truncated_stages += 1
            self._event("hrm.stage.truncated", file=req.name)
            self.obs.children[_TRUNCATED].inc()
        # One pin per waiter: N concurrent transfers of this file each
        # release() once, and the last release leaves it evictable.
        # A pure prefetch (waiters == 0) lands unpinned.
        for _ in range(req.waiters):
            self.mss.cache.pin(req.name)
        if not self.serve_fs.exists(req.name):
            self.serve_fs.store(file)
        req.completed_at = self.env.now
        self._inflight.pop(req.name, None)
        self._record_done(req)
        req.ready.succeed(file)
        # The tape drive just freed up: speculate if there is slack.
        self._maybe_prefetch()

    def _record_done(self, req: StageRequest, cached: bool = False) -> None:
        """``hrm.stage.done`` lifeline milestone + staging metrics."""
        seconds = req.stage_time or 0.0
        self._event("hrm.stage.done", file=req.name,
                    seconds=f"{seconds:.3f}",
                    cached="1" if cached else "0",
                    prefetch="1" if req.prefetch else "0")
        if cached:
            outcome = "cached"
        elif req.prefetch:
            outcome = "prefetched"
        else:
            outcome = "staged"
        children = self.obs.children
        children[_STAGES, outcome].inc()
        children[_STAGE_SECONDS].observe(seconds)

    def _count_prefetch_hit(self, name: str, inflight: bool) -> None:
        self.prefetch_hits += 1
        self._event("hrm.prefetch.hit", file=name,
                    inflight="1" if inflight else "0")
        self.obs.children[_PREFETCH_HITS,
                          "inflight" if inflight else "staged"].inc()

    def release(self, name: str) -> None:
        """Signal that a transfer referencing ``name`` has finished.

        Balances exactly one pin; a release for a file this HRM never
        pinned (or whose pins are all balanced) is a no-op.
        """
        if self.mss.cache.is_pinned(name):
            self.mss.cache.unpin(name)

    def abandon(self, name: str) -> None:
        """A caller that shared a stage request gave up mid-transfer.

        If the stage is still in flight, its pending waiter slot is
        surrendered (one fewer pin will be taken at completion);
        otherwise this balances the pin like :meth:`release`.
        """
        req = self._inflight.get(name)
        if req is not None and req.waiters > 0:
            req.waiters -= 1
            return
        self.release(name)

    # -- prefetch ------------------------------------------------------------
    def hint_dataset(self, names: Iterable[str]) -> None:
        """RM hint: the requesting ticket's full logical-file list.

        Tape-resident, not-yet-staged siblings become prefetch
        candidates; they are staged during idle drive time in
        cartridge/seek order.
        """
        if not self.prefetch_enabled or self.down:
            return
        for name in names:
            if name in self._hinted:
                continue
            if not self.mss.tape.has(name):
                continue
            self._hinted[name] = True
        self._maybe_prefetch()

    def _maybe_prefetch(self) -> None:
        """Issue prefetch stages while drives are idle and the cache
        admits them. Event-driven: called on hints and stage completions,
        never on a timer."""
        if not self.prefetch_enabled or self.down:
            return
        tape = self.mss.tape
        while tape.queue_length == 0:
            active = sum(1 for r in self._inflight.values() if r.prefetch)
            if active >= tape.idle_drive_count:
                return
            name = self._pick_prefetch()
            if name is None:
                return
            size = tape.lookup(name).size
            if not self.mss.cache.can_admit_prefetch(size):
                # Leave the candidate hinted; retry when cache churn
                # frees prefetch budget (next completion re-enters here).
                self.prefetch_skipped += 1
                return
            self._hinted.pop(name, None)
            req = StageRequest(name, Event(self.env), self.env.now,
                               waiters=0, prefetch=True, size=size,
                               id=self.env.next_id("hrm.stage"))
            req.progress = StageProgress(self.env, size)
            req.ready.defuse()  # nobody waits on a speculative stage
            self._inflight[name] = req
            self.prefetch_issued += 1
            self._event("hrm.prefetch.start", file=name)
            self.obs.children[_PREFETCHES].inc()
            self.env.process(self._stage(req))

    def _pick_prefetch(self) -> Optional[str]:
        """Next candidate in cartridge/seek order, preferring cartridges
        already loaded in a drive (free mounts first)."""
        tape = self.mss.tape
        loaded = [d.loaded_tape for d in tape.drives
                  if d.loaded_tape is not None]
        best = None
        best_key = None
        stale = []
        for name in self._hinted:
            if name in self._inflight:
                continue
            if self.mss.cache.kind(name) is not None:
                stale.append(name)  # already resident: no longer a candidate
                continue
            cart, position = tape.placement(name)
            key = (0 if cart in loaded else 1, cart, position, name)
            if best_key is None or key < best_key:
                best, best_key = name, key
        for name in stale:
            self._hinted.pop(name, None)
        return best

    # -- queries -------------------------------------------------------------------
    def is_staged(self, name: str) -> bool:
        """True if the file is already on the serving disk."""
        return self.serve_fs.exists(name) and self.mss.is_staged(name)

    def estimate_wait(self, name: str) -> float:
        """Rough time until ``name`` could be disk-resident.

        Staged (including already-prefetched) files cost nothing; a file
        whose stage is in flight costs the remaining stream time; a cold
        file costs the optimistic tape estimate plus the current tape
        queue depth.
        """
        if self.down:
            return float("inf")
        if self.is_staged(name):
            return 0.0
        spec = self.mss.tape.spec
        req = self._inflight.get(name)
        if req is not None:
            progress = req.progress
            if progress is not None and progress.stream_started_at is not None:
                remaining = progress.total - progress.staged_bytes()
                return remaining / spec.read_rate
            # Queued or still winding: mount+seek+stream, but no
            # re-queueing penalty — the job already holds its place.
            return self.mss.estimate_retrieve_time(name) + spec.mount_time
        queued = self.mss.tape.queue_length
        per_item = spec.mount_time + spec.max_seek_time / 2
        return self.mss.estimate_retrieve_time(name) + queued * per_item

    def __repr__(self) -> str:
        return (f"HierarchicalResourceManager({self.name!r}, "
                f"{self.inflight} staging)")
