"""An HPSS-like mass storage system: tape namespace + staging cache."""

from __future__ import annotations

from typing import Optional

from repro.obs import Observability
from repro.sim.core import Environment
from repro.storage.cache import DiskCache
from repro.storage.filesystem import FileObject
from repro.storage.tape import (
    PRIORITY_DEMAND,
    StageProgress,
    TapeLibrary,
    TapeSpec,
)


class MassStorageSystem:
    """Tape-resident archive with a disk staging cache in front.

    The paper calls this "a mass storage system (MSS) that is not Grid
    enabled" — GridFTP cannot serve from it directly, which is why the
    HRM exists. :meth:`retrieve` is the staging primitive: cache hit is
    instant; a miss pays the full tape path and lands in the cache.
    """

    def __init__(self, env: Environment, cache_capacity: float,
                 drives: int = 2, tape_spec: Optional[TapeSpec] = None,
                 name: str = "hpss", tape_policy: str = "batch", obs=None):
        self.env = env
        self.name = name
        self.obs = obs or Observability()
        self.tape = TapeLibrary(env, drives=drives, spec=tape_spec,
                                name=f"{name}-tape", policy=tape_policy,
                                obs=self.obs)
        self.cache = DiskCache(env, cache_capacity, name=f"{name}-cache")
        self.stage_count = 0
        self.migrations = 0

    # -- archive management -------------------------------------------------
    def archive(self, file: FileObject, tape: str, position: float) -> None:
        """Register a file as tape-resident."""
        self.tape.register(file, tape, position)

    def has(self, name: str) -> bool:
        """True if the file exists in this MSS (tape or cache)."""
        return self.tape.has(name) or name in self.cache._entries

    def is_staged(self, name: str) -> bool:
        """True if the file is currently on the disk cache."""
        return self.cache.contains(name)

    # -- ingest ---------------------------------------------------------------------
    def store(self, file: FileObject, tape: str, position: float):
        """Simulation process: ingest new data (the archival write path).

        The file lands in the disk cache immediately (readable right
        away) and migrates to tape in the background — the behaviour a
        climate model writing output into HPSS sees. Returns once the
        migration completes.
        """
        self.cache.put(file)
        self.cache.pin(file.name)  # never evict before it is on tape
        try:
            yield from self.tape.write(file, tape, position)
        finally:
            self.cache.unpin(file.name)
        self.migrations += 1
        return file

    # -- staging -------------------------------------------------------------------
    def retrieve(self, name: str, priority: int = PRIORITY_DEMAND,
                 kind: str = "demand",
                 progress: Optional[StageProgress] = None):
        """Simulation process: make ``name`` disk-resident; returns it.

        ``priority`` orders the tape queue (demand before prefetch),
        ``kind`` selects the cache admission policy, and ``progress``
        (if given) is fed the live staged-byte watermark by the drive.
        """
        cached = self.cache.get(name)
        if cached is not None:
            if progress is not None:
                progress._finish()
            return cached
        file = yield from self.tape.read(name, priority=priority,
                                         progress=progress)
        self.stage_count += 1
        return self.cache.put(file, kind=kind)

    def estimate_retrieve_time(self, name: str) -> float:
        """0 for cached files, else the optimistic tape estimate."""
        if self.cache.contains(name):
            return 0.0
        return self.tape.estimate_stage_time(name)

    def __repr__(self) -> str:
        return f"MassStorageSystem({self.name!r}, cache={self.cache!r})"
