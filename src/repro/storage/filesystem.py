"""Simulated filesystem: namespace and capacity.

Bulk data *movement* time is the fluid network's job (a host's disk link
rate-limits flows that start or end at its ``store`` endpoint); the
filesystem accounts for what exists, how big it is and whether it fits.
Files may optionally carry real content
bytes — the climate-data analysis path serializes real arrays through the
same namespace the bulk path uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.sim.core import Environment


class FileNotFoundError_(Exception):
    """No such file in this filesystem."""


class FileExistsError_(Exception):
    """File already exists and overwrite=False."""


class NoSpaceError(Exception):
    """The filesystem cannot hold the new file."""


@dataclass
class FileObject:
    """One stored file.

    ``content`` is optional real bytes (used by the analysis pipeline);
    when absent the file is synthetic and only ``size`` matters. ``size``
    always wins for accounting, so a 2 GB synthetic file costs no RAM.
    """

    name: str
    size: float
    content: Optional[bytes] = None
    created_at: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)
    _serial: int = field(default_factory=itertools.count(1).__next__)
    # (content, (name, size, marks), digest): file_digest's last answer.
    _digest_memo: Optional[tuple] = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be >= 0")
        if self.content is not None and self.size != len(self.content):
            raise ValueError("size disagrees with content length")


class FileSystem:
    """A flat namespace backed by a host's disk array.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Label for error messages (usually ``host.name``).
    capacity:
        Total bytes available.
    """

    def __init__(self, env: Environment, name: str,
                 capacity: float = float("inf")):
        self.env = env
        self.name = name
        self.capacity = capacity
        self._files: Dict[str, FileObject] = {}
        self.used = 0.0

    # -- namespace -------------------------------------------------------
    def store(self, file: FileObject, overwrite: bool = False) -> FileObject:
        """Add a file (instantaneous namespace operation)."""
        existing = self._files.get(file.name)
        if existing is not None and not overwrite:
            raise FileExistsError_(f"{self.name}:{file.name}")
        freed = existing.size if existing is not None else 0.0
        if self.used - freed + file.size > self.capacity:
            raise NoSpaceError(
                f"{self.name}: need {file.size:.0f}B, "
                f"free {self.capacity - self.used + freed:.0f}B")
        if existing is not None:
            self.used -= existing.size
        file.created_at = self.env.now
        self._files[file.name] = file
        self.used += file.size
        return file

    def create(self, name: str, size: float,
               content: Optional[bytes] = None,
               overwrite: bool = False) -> FileObject:
        """Convenience: build and store a :class:`FileObject`."""
        return self.store(FileObject(name, size, content), overwrite=overwrite)

    def delete(self, name: str) -> None:
        """Remove a file."""
        f = self._files.pop(name, None)
        if f is None:
            raise FileNotFoundError_(f"{self.name}:{name}")
        self.used -= f.size

    def stat(self, name: str) -> FileObject:
        """Look a file up (raises if absent)."""
        f = self._files.get(name)
        if f is None:
            raise FileNotFoundError_(f"{self.name}:{name}")
        return f

    def exists(self, name: str) -> bool:
        """True if ``name`` is stored here."""
        return name in self._files

    def __iter__(self) -> Iterator[FileObject]:
        return iter(self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    def __repr__(self) -> str:
        return (f"FileSystem({self.name!r}, {len(self)} files, "
                f"{self.used / 2**30:.2f} GiB used)")
