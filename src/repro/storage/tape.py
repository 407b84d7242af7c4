"""Tape library model: drives, cartridge mounts, seeks, streaming reads.

Staging latency structure (what the RM↔HRM interaction actually depends
on): wait for a free drive, possibly swap cartridges (tens of seconds),
wind to the file (seconds to minutes), then stream at the drive's rate.

The library schedules queued jobs (policy ``"batch"``, the default)
instead of serving them strictly FIFO:

- jobs are **grouped by cartridge** so one mount is amortized over the
  whole group rather than paid per file;
- within a mounted cartridge, jobs are served in **elevator/SCAN order**
  over seek position from the drive's current head (seek cost is the
  relative wind distance, tracked per drive);
- a job whose cartridge is **already loaded in an idle drive** goes to
  that drive, never paying a spurious rewind+mount;
- **starvation is bounded by aging**: every grant that bypasses a queued
  job increments its age, and once ``age >= AGING_ROUNDS`` the oldest
  aged job (smallest sequence number) is granted next regardless of
  mount cost. A job enqueued with ``backlog`` older jobs waiting is
  therefore bypassed at most ``AGING_ROUNDS + backlog`` times: after
  ``AGING_ROUNDS`` bypasses it is aged, and each further bypass must
  grant an aged job with a smaller sequence number — there are at most
  ``backlog`` of those, and each is granted once. (Same proof shape as
  the transfer scheduler's priority-aging bound.)

Policy ``"fifo"`` preserves strict arrival order (the pre-scheduler
behaviour, kept as the benchmark baseline); both policies use the
loaded-drive preference, since picking an arbitrary idle drive while
another idle drive already holds the cartridge is simply a bug.

Demand reads run at priority 0; the HRM submits prefetch reads at
priority 1 so speculative work never delays demand staging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import Counter, Family, Observability
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.storage.filesystem import FileObject

#: Job priorities: demand staging outranks speculative prefetch.
PRIORITY_DEMAND = 0
PRIORITY_PREFETCH = 1
# Bypasses after which a queued job is granted ahead of mount cost.
AGING_ROUNDS = 8

_MOUNTS = Family(Counter, "tape.mounts_total", "library", "drive")


@dataclass(frozen=True)
class TapeSpec:
    """Performance characteristics of the library's drives/cartridges.

    Era-typical defaults (HPSS with IBM 3590-class drives): ~14 MB/s
    streaming, ~40 s exchange+load, seeks up to a minute across a
    cartridge.
    """

    read_rate: float = 14 * 2**20
    mount_time: float = 40.0
    max_seek_time: float = 60.0
    rewind_time: float = 20.0

    def __post_init__(self) -> None:
        if self.read_rate <= 0:
            raise ValueError("read_rate must be positive")
        if min(self.mount_time, self.max_seek_time, self.rewind_time) < 0:
            raise ValueError("times must be >= 0")

    def seek_time(self, position: float) -> float:
        """Wind time across fractional ``position`` in [0, 1] of tape."""
        if not (0.0 <= position <= 1.0):
            raise ValueError("position must be in [0, 1]")
        return self.max_seek_time * position


class StageProgress:
    """Live staged-byte watermark for one tape read (cut-through feed).

    While the drive winds, zero bytes are staged; once it streams, the
    staged prefix grows linearly at the drive rate. Both phases are
    closed-form in sim time, so :meth:`at_bytes` *schedules* the exact
    watermark instant instead of polling.
    """

    def __init__(self, env: Environment, total: float):
        self.env = env
        self.total = float(total)
        self.rate: Optional[float] = None
        self.stream_started_at: Optional[float] = None
        self.completed = False
        self._pending: List[Tuple[float, Event]] = []

    def staged_bytes(self) -> float:
        """Bytes of the file readable right now."""
        if self.completed:
            return self.total
        if self.stream_started_at is None:
            return 0.0
        return min(self.total,
                   (self.env.now - self.stream_started_at) * self.rate)

    def at_bytes(self, threshold: float) -> Event:
        """Event firing when at least ``threshold`` bytes are staged."""
        ev = Event(self.env)
        threshold = min(max(threshold, 0.0), self.total)
        if self.completed or self.staged_bytes() >= threshold:
            ev.succeed(threshold)
        elif self.stream_started_at is not None:
            elapsed = self.env.now - self.stream_started_at
            self._fire_in(ev, threshold / self.rate - elapsed)
        else:
            self._pending.append((threshold, ev))
        return ev

    def _fire_in(self, ev: Event, delay: float) -> None:
        timer = self.env.timeout(max(delay, 0.0))
        timer.add_callback(
            lambda _t: None if ev.triggered else ev.succeed())

    # -- called by the serving drive --------------------------------------
    def _start(self, rate: float) -> None:
        self.rate = rate
        self.stream_started_at = self.env.now
        pending, self._pending = self._pending, []
        for threshold, ev in pending:
            self._fire_in(ev, threshold / rate)

    def _finish(self) -> None:
        self.completed = True
        pending, self._pending = self._pending, []
        for _threshold, ev in pending:
            if not ev.triggered:
                ev.succeed()


class TapeJob:
    """One queued read/write; ``done`` fires with the file on completion."""

    __slots__ = ("seq", "op", "name", "tape", "position", "file", "done",
                 "priority", "enqueued_at", "age", "backlog", "progress",
                 "granted_at", "finished_at", "drive")

    def __init__(self, seq: int, op: str, name: str, tape: str,
                 position: float, file: FileObject, done: Event,
                 priority: int, enqueued_at: float, backlog: int,
                 progress: Optional[StageProgress] = None):
        self.seq = seq
        self.op = op                    # "read" | "write"
        self.name = name
        self.tape = tape
        self.position = position
        self.file = file
        self.done = done
        self.priority = priority
        self.enqueued_at = enqueued_at
        self.age = 0                    # grants that bypassed this job
        self.backlog = backlog          # queue depth when enqueued
        self.progress = progress
        self.granted_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.drive: Optional[TapeDrive] = None

    def __repr__(self) -> str:
        return (f"TapeJob(#{self.seq} {self.op} {self.name!r} "
                f"tape={self.tape} pos={self.position:.2f} "
                f"prio={self.priority} age={self.age})")


class TapeDrive:
    """One drive; remembers the loaded cartridge and the head position."""

    def __init__(self, name: str):
        self.name = name
        self.loaded_tape: Optional[str] = None
        # Cartridge the in-flight job needs: set at grant time, before
        # the mount completes (loaded_tape only changes afterwards).
        self.target_tape: Optional[str] = None
        self.head = 0.0          # fractional position after the last job
        self.mounts = 0
        self.bytes_read = 0.0


class TapeLibrary:
    """A robot library: N drives shared by all staging requests.

    Files are registered to (tape, position); :meth:`read` is a
    simulation process returning the file after queue wait + mount +
    seek + stream. :meth:`submit_read` / :meth:`submit_write` expose the
    underlying :class:`TapeJob` for callers that schedule around it.
    """

    def __init__(self, env: Environment, drives: int = 2,
                 spec: Optional[TapeSpec] = None, name: str = "tape",
                 policy: str = "batch", obs=None):
        if drives < 1:
            raise ValueError("need at least one drive")
        if policy not in ("batch", "fifo"):
            raise ValueError(f"unknown tape policy {policy!r}")
        self.env = env
        self.name = name
        self.spec = spec or TapeSpec()
        self.policy = policy
        self.obs = obs or Observability()
        self.drives = [TapeDrive(f"{name}-drive{i}") for i in range(drives)]
        self._catalog: Dict[str, Tuple[str, float, FileObject]] = {}
        self._idle: List[TapeDrive] = list(self.drives)
        self._queue: List[TapeJob] = []
        self._seq = 0
        self.mount_reuses = 0   # jobs served without a cartridge exchange
        self.jobs_done = 0

    # -- catalog ------------------------------------------------------------
    def register(self, file: FileObject, tape: str, position: float) -> None:
        """Record that ``file`` lives on ``tape`` at fractional position."""
        if not (0.0 <= position <= 1.0):
            raise ValueError("position must be in [0, 1]")
        self._catalog[file.name] = (tape, position, file)

    def lookup(self, name: str) -> FileObject:
        """The registered file (raises KeyError if absent)."""
        return self._catalog[name][2]

    def placement(self, name: str) -> Tuple[str, float]:
        """``(tape, position)`` for a registered file."""
        tape, position, _file = self._catalog[name]
        return tape, position

    def has(self, name: str) -> bool:
        """True if the file is on tape here."""
        return name in self._catalog

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a drive (in-service jobs excluded)."""
        return len(self._queue)

    @property
    def busy_drive_count(self) -> int:
        """Drives currently mounted/seeking/streaming (gauge probe)."""
        return len(self.drives) - len(self._idle)

    @property
    def idle_drive_count(self) -> int:
        """Drives with no job assigned right now."""
        return len(self._idle)

    @property
    def mounts_total(self) -> int:
        """Cartridge exchanges across all drives."""
        return sum(d.mounts for d in self.drives)

    # -- staging ---------------------------------------------------------------
    def submit_read(self, name: str, priority: int = PRIORITY_DEMAND,
                    progress: Optional[StageProgress] = None) -> TapeJob:
        """Enqueue a read; returns the job (wait on ``job.done``)."""
        entry = self._catalog.get(name)
        if entry is None:
            raise KeyError(f"{self.name}: no file {name!r} on tape")
        tape, position, file = entry
        return self._submit("read", name, tape, position, file,
                            priority, progress)

    def submit_write(self, file: FileObject, tape: str, position: float,
                     priority: int = PRIORITY_DEMAND) -> TapeJob:
        """Enqueue a migration write; registered in the catalog on
        completion."""
        if not (0.0 <= position <= 1.0):
            raise ValueError("position must be in [0, 1]")
        return self._submit("write", file.name, tape, position, file,
                            priority, None)

    def read(self, name: str, priority: int = PRIORITY_DEMAND,
             progress: Optional[StageProgress] = None):
        """Simulation process: stage ``name`` off tape; returns the file.

        Cost = drive wait + (mount if the assigned drive holds a
        different cartridge) + relative seek + size/read_rate.
        """
        job = self.submit_read(name, priority, progress)
        file = yield job.done
        return file

    def write(self, file: FileObject, tape: str, position: float):
        """Simulation process: migrate a file onto tape.

        Cost mirrors :meth:`read` (write rate = read rate for these
        drives). The file is registered in the catalog on completion.
        """
        job = self.submit_write(file, tape, position)
        file = yield job.done
        return file

    # -- scheduler ---------------------------------------------------------
    def _submit(self, op: str, name: str, tape: str, position: float,
                file: FileObject, priority: int,
                progress: Optional[StageProgress]) -> TapeJob:
        self._seq += 1
        job = TapeJob(self._seq, op, name, tape, position, file,
                      Event(self.env), priority, self.env.now,
                      backlog=len(self._queue), progress=progress)
        self._queue.append(job)
        self._dispatch()
        return job

    def _dispatch(self) -> None:
        """Assign queued jobs to idle drives (event-driven, no polling)."""
        while self._idle and self._queue:
            picked = self._select()
            if picked is None:
                # Every eligible job is waiting for a cartridge that is
                # spinning in a busy drive; that drive's completion
                # re-dispatches. No grant happened, so nobody ages.
                break
            job, drive = picked
            for other in self._queue:
                if other is not job:
                    other.age += 1
            self._queue.remove(job)
            self._idle.remove(drive)
            job.granted_at = self.env.now
            job.drive = drive
            drive.target_tape = job.tape
            self.env.process(self._service(drive, job))

    def _select(self) -> Optional[Tuple[TapeJob, TapeDrive]]:
        """Pick the next (job, drive) pair, or ``None`` to leave the
        idle drives alone this round. Deterministic: lists only, ties
        broken by sequence number."""
        if self.policy == "fifo":
            return self._queue[0], self._drive_for(self._queue[0].tape)
        # Aged jobs preempt batching: grant the oldest one outright.
        aged = [j for j in self._queue if j.age >= AGING_ROUNDS]
        if aged:
            job = min(aged, key=lambda j: j.seq)
            return job, self._drive_for(job.tape)
        # Cartridge affinity: a group whose tape a busy drive holds or
        # is mounting waits for that drive — finishing the in-flight
        # work costs seconds, remounting elsewhere costs a rewind +
        # mount (aged jobs above still remount rather than starve).
        loaded = [d.loaded_tape for d in self._idle
                  if d.loaded_tape is not None]
        busy_target = {d.target_tape for d in self.drives
                       if d not in self._idle
                       and d.target_tape is not None}
        # Priority classes in order (demand before prefetch), but fall
        # through to a lower class rather than idle a drive when every
        # higher-class group is deferred behind a busy drive.
        for prio in sorted({j.priority for j in self._queue}):
            groups: Dict[str, List[TapeJob]] = {}
            for j in self._queue:
                if j.priority == prio:
                    groups.setdefault(j.tape, []).append(j)
            eligible = [t for t in groups
                        if t in loaded or t not in busy_target]
            if not eligible:
                continue
            # Prefer a cartridge already sitting in an idle drive (free
            # mount); otherwise open the largest group. Ties: oldest.
            candidates = [t for t in eligible if t in loaded] or eligible
            tape = max(candidates,
                       key=lambda t: (len(groups[t]),
                                      -min(j.seq for j in groups[t])))
            drive = self._drive_for(tape)
            head = drive.head if drive.loaded_tape == tape else 0.0
            return self._scan_pick(groups[tape], head), drive
        return None

    def _drive_for(self, tape: str) -> TapeDrive:
        """Idle drive holding ``tape`` if any; else an empty drive (no
        rewind needed); else the least-recently idled drive."""
        for d in self._idle:
            if d.loaded_tape == tape:
                return d
        for d in self._idle:
            if d.loaded_tape is None:
                return d
        return self._idle[0]

    @staticmethod
    def _scan_pick(jobs: List[TapeJob], head: float) -> TapeJob:
        """Elevator order: nearest job at/after the head; wrap to the
        start of the tape when the upward sweep is exhausted."""
        ahead = [j for j in jobs if j.position >= head - 1e-12]
        pool = ahead or jobs
        return min(pool, key=lambda j: (j.position, j.seq))

    def _service(self, drive: TapeDrive, job: TapeJob):
        spec = self.spec
        try:
            if drive.loaded_tape != job.tape:
                if drive.loaded_tape is not None:
                    yield self.env.timeout(spec.rewind_time)
                yield self.env.timeout(spec.mount_time)
                drive.loaded_tape = job.tape
                drive.head = 0.0
                drive.mounts += 1
                self.obs.children[_MOUNTS, self.name, drive.name].inc()
                self.obs.event("tape.mount", prog="tape",
                               host=self.name, drive=drive.name,
                               tape=job.tape, file=job.name)
            else:
                self.mount_reuses += 1
            seek = spec.seek_time(abs(job.position - drive.head))
            if seek > 0.0:
                yield self.env.timeout(seek)
            drive.head = job.position
            if job.op == "read":
                # Milestone: mount/seek overhead ends here; lifeline
                # analysis blames the time after this on streaming.
                self.obs.event("tape.read.begin", prog="tape",
                               host=self.name, drive=drive.name,
                               tape=job.tape, file=job.name)
            if job.progress is not None:
                job.progress._start(spec.read_rate)
            yield self.env.timeout(job.file.size / spec.read_rate)
            if job.op == "read":
                drive.bytes_read += job.file.size
            else:
                self._catalog[job.name] = (job.tape, job.position, job.file)
            if job.progress is not None:
                job.progress._finish()
            job.finished_at = self.env.now
            self.jobs_done += 1
            job.done.succeed(job.file)
        finally:
            self._idle.append(drive)
            self._dispatch()

    def estimate_stage_time(self, name: str) -> float:
        """Optimistic staging estimate (free drive, right cartridge)."""
        tape, position, file = self._catalog[name]
        return (self.spec.seek_time(position)
                + file.size / self.spec.read_rate)

    def __repr__(self) -> str:
        return (f"TapeLibrary({self.name!r}, {len(self.drives)} drives, "
                f"{len(self._catalog)} files, policy={self.policy})")
