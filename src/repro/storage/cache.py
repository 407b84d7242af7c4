"""LRU disk cache with pinning, used as the HRM staging area."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.sim.core import Environment
from repro.storage.filesystem import FileObject, NoSpaceError

# Fraction of the cache that prefetched (speculative) entries may hold.
PREFETCH_SHARE = 0.5


class DiskCache:
    """An LRU-evicting byte cache over a staging disk.

    Files being transferred are *pinned* so a burst of new staging cannot
    evict data out from under an in-flight GridFTP stream (paper §4: HRM
    "stages files from the MSS to its local disk cache" and the RM then
    moves them over the WAN).

    Entries carry a *kind*: ``"demand"`` (somebody asked for the bytes)
    or ``"prefetch"`` (the HRM staged them speculatively). Prefetch is
    admitted under a strict policy so speculation can never hurt demand:

    - prefetch entries may hold at most ``PREFETCH_SHARE`` of capacity;
    - inserting a prefetch entry may evict only *unpinned prefetch*
      entries — never demand data, never pinned data;
    - demand inserts evict unpinned prefetch entries first (speculative
      bytes are the cheapest to give back), then fall back to plain
      unpinned LRU;
    - pinning a prefetch entry promotes it to demand (the speculation
      paid off and the bytes are now in use).
    """

    def __init__(self, env: Environment, capacity: float,
                 name: str = "cache"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._entries: "OrderedDict[str, FileObject]" = OrderedDict()
        self._pins: Dict[str, int] = {}
        self._kinds: Dict[str, str] = {}
        self.used = 0.0
        self.prefetch_used = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_evictions = 0

    # -- queries --------------------------------------------------------------
    def contains(self, name: str) -> bool:
        """True if ``name`` is cached (counts as a touch)."""
        if name in self._entries:
            self._entries.move_to_end(name)
            return True
        return False

    def get(self, name: str) -> Optional[FileObject]:
        """The cached file, touched, or None (hit/miss accounting)."""
        entry = self._entries.get(name)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(name)
        return entry

    def kind(self, name: str) -> Optional[str]:
        """``"demand"``/``"prefetch"`` for a cached entry, else None."""
        return self._kinds.get(name)

    @property
    def free(self) -> float:
        """Unreserved bytes."""
        return self.capacity - self.used

    @property
    def occupancy(self) -> float:
        """Used fraction in [0, 1] (gauge probe)."""
        return self.used / self.capacity

    def __len__(self) -> int:
        return len(self._entries)

    # -- mutation ----------------------------------------------------------------
    def put(self, file: FileObject, kind: str = "demand") -> FileObject:
        """Insert a file, evicting to make room under the kind's policy.

        Raises :class:`NoSpaceError` if eviction cannot fit it (for
        demand: everything else is pinned; for prefetch: the prefetch
        budget or evictable prefetch bytes are exhausted).
        """
        if kind not in ("demand", "prefetch"):
            raise ValueError(f"unknown cache entry kind {kind!r}")
        if file.name in self._entries:
            self._entries.move_to_end(file.name)
            if kind == "demand":
                self._promote(file.name)
            return self._entries[file.name]
        if file.size > self.capacity:
            raise NoSpaceError(
                f"{self.name}: file {file.name!r} ({file.size:.0f}B) "
                f"exceeds cache capacity")
        if kind == "prefetch":
            budget = PREFETCH_SHARE * self.capacity
            if file.size > budget:
                raise NoSpaceError(
                    f"{self.name}: prefetch of {file.name!r} "
                    f"({file.size:.0f}B) exceeds the prefetch budget "
                    f"({budget:.0f}B)")
            while self.prefetch_used + file.size > budget:
                if not self._evict_one(prefetch_only=True):
                    raise NoSpaceError(
                        f"{self.name}: prefetch budget exhausted for "
                        f"{file.name!r}")
        while self.used + file.size > self.capacity:
            if not self._evict_one(prefetch_only=(kind == "prefetch")):
                raise NoSpaceError(
                    f"{self.name}: cannot free space for {file.name!r} "
                    f"(all {len(self._entries)} entries pinned"
                    + (" or demand" if kind == "prefetch" else "") + ")")
        self._entries[file.name] = file
        self._kinds[file.name] = kind
        self.used += file.size
        if kind == "prefetch":
            self.prefetch_used += file.size
        return file

    def can_admit_prefetch(self, size: float) -> bool:
        """True if a prefetch of ``size`` bytes would be admitted now
        (possibly by evicting other unpinned prefetch entries)."""
        budget = PREFETCH_SHARE * self.capacity
        evictable = sum(
            e.size for n, e in self._entries.items()
            if self._kinds.get(n) == "prefetch"
            and self._pins.get(n, 0) == 0)
        if size > budget - (self.prefetch_used - evictable):
            return False
        return size <= self.free + evictable

    def _evict_one(self, prefetch_only: bool = False) -> bool:
        # Speculative bytes first: evicting them costs a maybe, evicting
        # demand LRU costs a certain re-stage.
        for name, entry in self._entries.items():
            if (self._pins.get(name, 0) == 0
                    and self._kinds.get(name) == "prefetch"):
                self._drop(name, entry)
                return True
        if prefetch_only:
            return False
        for name, entry in self._entries.items():
            if self._pins.get(name, 0) == 0:
                self._drop(name, entry)
                return True
        return False

    def _drop(self, name: str, entry: FileObject) -> None:
        del self._entries[name]
        self.used -= entry.size
        if self._kinds.pop(name, None) == "prefetch":
            self.prefetch_used -= entry.size
            self.prefetch_evictions += 1
        self.evictions += 1

    def _promote(self, name: str) -> None:
        """Reclassify a prefetch entry as demand (budget released)."""
        if self._kinds.get(name) == "prefetch":
            self._kinds[name] = "demand"
            self.prefetch_used -= self._entries[name].size

    # -- pinning ------------------------------------------------------------------
    def pin(self, name: str) -> None:
        """Protect an entry from eviction (nestable). Pinning promotes
        prefetch entries to demand: the bytes are in active use."""
        if name not in self._entries:
            raise KeyError(f"{self.name}: cannot pin absent entry {name!r}")
        self._promote(name)
        self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, name: str) -> None:
        """Release one pin."""
        count = self._pins.get(name, 0)
        if count <= 0:
            raise RuntimeError(f"{name!r} is not pinned")
        if count == 1:
            del self._pins[name]
        else:
            self._pins[name] = count - 1

    def is_pinned(self, name: str) -> bool:
        """True while any pin is outstanding."""
        return self._pins.get(name, 0) > 0

    def __repr__(self) -> str:
        return (f"DiskCache({self.name!r}, {len(self)} entries, "
                f"{self.used / 2**30:.2f}/{self.capacity / 2**30:.2f} GiB, "
                f"{self.hits}h/{self.misses}m)")
