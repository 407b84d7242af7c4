"""Striped transfers: one logical file served by many hosts at once.

"Striped data transfer that increases parallelism by allowing data to be
striped across multiple hosts. Striping can be combined with parallelism
to have multiple TCP streams between each pair of hosts." (§6.1)

A :class:`StripedServer` fronts a set of backend :class:`GridFtpServer`
instances, each holding a partition of the logical file. A striped get
runs one parallel sub-transfer per backend concurrently; aggregate
bandwidth is the sum — this is the SC'2000 Table 1 configuration
(8 stripes × ≤4 streams = ≤32 TCP connections).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gridftp.client import GridFtpClient, TransferHandle
from repro.gridftp.protocol import (
    FILE_UNAVAILABLE,
    FtpReply,
    GridFtpConfig,
    GridFtpError,
    TransferStats,
)
from repro.gridftp.server import GridFtpServer
from repro.sim.core import Environment
from repro.storage.filesystem import FileSystem


@dataclass
class StripedTransferResult:
    """Aggregate outcome of a striped get."""

    path: str
    total_bytes: float
    started_at: float
    finished_at: float
    per_stripe: List[TransferStats] = field(default_factory=list)


class StripedServer:
    """A striped GridFTP endpoint (SPAS/SPOR).

    Parameters
    ----------
    name:
        Logical hostname of the striped endpoint.
    backends:
        The per-stripe servers.
    """

    def __init__(self, name: str, backends: Sequence[GridFtpServer]):
        if not backends:
            raise ValueError("need at least one backend")
        self.name = name
        self.backends = list(backends)
        # path -> ordered [(backend_index, partition_name, size)]
        self._layout: Dict[str, List[Tuple[int, str, float]]] = {}

    # -- data placement ------------------------------------------------------
    def partition_file(self, path: str, size: float,
                       content: Optional[bytes] = None) -> None:
        """Split a logical file evenly across the backends.

        Each backend receives ``<path>.pN`` holding its slice; content,
        when given, is sliced accordingly.
        """
        if size < 0:
            raise ValueError("size must be >= 0")
        n = len(self.backends)
        base = size / n
        layout: List[Tuple[int, str, float]] = []
        offset = 0.0
        for i, backend in enumerate(self.backends):
            part_size = base if i < n - 1 else size - base * (n - 1)
            part_name = f"{path}.p{i}"
            part_content = None
            if content is not None:
                lo = int(round(offset))
                part_content = content[lo:lo + int(round(part_size))]
            backend.fs.create(part_name, part_size, content=part_content,
                              overwrite=True)
            layout.append((i, part_name, part_size))
            offset += part_size
        self._layout[path] = layout

    def layout(self, path: str) -> List[Tuple[int, str, float]]:
        """The stripe map for a logical file."""
        entry = self._layout.get(path)
        if entry is None:
            raise GridFtpError(FtpReply(FILE_UNAVAILABLE,
                                        f"{path}: not striped here"))
        return entry

    def size(self, path: str) -> float:
        """Total logical size across stripes."""
        return sum(s for _, _, s in self.layout(path))

    def striped_get(self, client: GridFtpClient, client_host,
                    path: str, dest_fs: FileSystem,
                    dest_name: Optional[str] = None,
                    record: bool = False,
                    config: Optional[GridFtpConfig] = None):
        """Simulation process: fetch ``path`` via every stripe at once.

        With ``record=True``, each per-stripe TransferStats carries its
        flow RateSeries; sum everything with
        :func:`repro.net.aggregate_series` for the aggregate bandwidth
        timeline. Returns :class:`StripedTransferResult`.
        """
        env: Environment = client.env
        layout = self.layout(path)
        cfg = config or client.config
        started = env.now
        obs = client.obs
        obs.event("gridftp.striped.start", prog="gridftp",
                  host=self.name, file=path, stripes=len(layout))
        sessions = []
        for idx, _, _ in layout:
            session = yield from client.connect(
                client_host, self.backends[idx].hostname, cfg)
            sessions.append(session)
        scratch = FileSystem(env, f"stripe-scratch:{path}")
        procs = []
        for session, (idx, part_name, _) in zip(sessions, layout):
            procs.append(env.process(session.get(
                part_name, scratch, client_host, record=record,
                config=cfg)))
        results = yield env.all_of(procs)
        for session in sessions:
            session.close()
        per_stripe = [results[p] for p in procs]
        total = sum(s.transferred_bytes for s in per_stripe)
        # Reassemble the logical file at the destination.
        parts = sorted(scratch, key=lambda f: f.name)
        content = (b"".join(p.content for p in parts)
                   if all(p.content is not None for p in parts) and parts
                   else None)
        dest_fs.create(dest_name or path, total, content=content,
                       overwrite=True)
        obs.event("gridftp.striped.done", prog="gridftp",
                  host=self.name, file=path,
                  bytes=f"{total:.0f}",
                  seconds=f"{env.now - started:.3f}")
        obs.count("gridftp.striped_transfers_total", host=self.name)
        obs.observe("gridftp.striped_seconds", env.now - started)
        return StripedTransferResult(
            path=path, total_bytes=total, started_at=started,
            finished_at=env.now, per_stripe=per_stripe)

    def __repr__(self) -> str:
        return (f"StripedServer({self.name!r}, {len(self.backends)} stripes, "
                f"{len(self._layout)} files)")
