"""Deterministic content digests for synthetic and materialized files.

The replication case studies (7.3 PB ESGF replication; the EU DataGrid
operations report) put checksum verification at the operational core of
bulk data movement: silent corruption is a dominant real-world failure
mode, and the only defence is an end-to-end digest recorded at publish
time and re-computed on arrival.

Most of this simulator's files are *synthetic* — they carry a size but
no bytes — so a digest over content alone would be meaningless. The
digest here is deterministic over what the simulation can know about a
file:

- its logical name and exact size,
- its real content bytes when materialized (the analysis pipeline), and
- its *integrity marks*: an ordered tuple of strings recorded in
  ``FileObject.metadata`` by fault injection (in-flight bit-flip
  windows, at-rest corruption, truncated stages). A pristine file has
  no marks; any mark changes the digest, which is exactly how a real
  checksum reacts to flipped bits.

Corruption in the simulation is therefore "append a mark": cheap at any
scale, deterministic per seed, and detectable by comparing the
publish-time digest (computed pristine) against the digest of whatever
was actually delivered.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

#: FileObject.metadata key carrying the ordered corruption marks.
MARKS_KEY = "integrity_marks"


def content_digest(name: str, size: float,
                   content: Optional[bytes] = None,
                   marks: Tuple[str, ...] = ()) -> str:
    """Digest of a file's identity, bytes (if any), and integrity marks.

    Two files agree iff they have the same logical name, the same size,
    the same materialized bytes (or both none), and the same corruption
    history. The pristine publish-time digest uses ``marks=()``.
    """
    h = hashlib.blake2s(digest_size=8)
    h.update(name.encode())
    h.update(f"|{size:.0f}|".encode())
    if content is not None:
        h.update(content)
    for mark in marks:
        h.update(b"\x00")
        h.update(str(mark).encode())
    return h.hexdigest()


def marks_of(file) -> Tuple[str, ...]:
    """The integrity marks recorded on a :class:`FileObject` (or ())."""
    return tuple(file.metadata.get(MARKS_KEY, ()))


def add_mark(file, mark: str) -> None:
    """Append one corruption mark to a file (changes its digest)."""
    file.metadata[MARKS_KEY] = marks_of(file) + (str(mark),)



def file_digest(file) -> str:
    """Digest of a stored :class:`FileObject` as it currently is.

    The answer is remembered on the file and reused while its content is
    the same immutable ``bytes`` (or ``None``) object and its name, size
    and marks are equal, so a reused answer is exact.
    """
    content, key = file.content, (file.name, file.size, marks_of(file))
    memo = file._digest_memo
    if memo is not None and memo[0] is content and memo[1] == key:
        return memo[2]
    digest = content_digest(*key[:2], content, key[2])
    if content is None or type(content) is bytes:
        file._digest_memo = (content, key, digest)
    return digest
