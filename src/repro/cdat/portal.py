"""The ESG-II lightweight client ("portal").

§9: ESG-II adds "(1) distribution of data analysis and visualization
pipelines, so that some data analysis operations (at least extraction
and subsetting, similar to those available with DODS) can be performed
local to the data ...; (3) access to data and analysis capabilities
from lightweight clients such as browsers, and portals".

The :class:`PortalClient` is that lightweight client: it never pulls
whole files. Every request names a server-side operation (subset or
time-mean; a subset without ranges extracts one variable) executed by
the GridFTP ERET plug-ins at the best replica, so only derived products
cross the WAN — a browser-scale client on top of the heavyweight grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.data.ncformat import decode
from repro.data.variables import Dataset
from repro.gridftp.client import GridFtpClient
from repro.gridftp.protocol import GridFtpConfig, GridFtpError
from repro.metadata.catalog import (
    DatasetRecord,
    MetadataCatalog,
    MetadataError,
)
from repro.replica.catalog import ReplicaCatalog
from repro.replica.selection import NwsBestPolicy, ReplicaCandidate
from repro.sim.core import Environment
from repro.storage.filesystem import FileSystem


@dataclass
class PortalResponse:
    """What a portal request returns."""

    dataset: Dataset
    bytes_shipped: float
    full_bytes: float
    source_hostname: str
    seconds: float
    # Source bytes the servers decoded to produce the products (chunked
    # SDBF replicas decode only the touched chunks; cache hits decode 0).
    server_decoded_bytes: float = 0.0
    # Products answered from a server's derived-product cache.
    cache_hits: int = 0
    # Files the selection fanned out over.
    files: int = 1

    @property
    def reduction(self) -> float:
        """How much smaller the shipped product is than the file."""
        return (self.full_bytes / self.bytes_shipped
                if self.bytes_shipped > 0 else float("inf"))


class PortalClient:
    """Server-side-processing-only access to the archive.

    Parameters
    ----------
    env:
        Simulation environment.
    metadata, replica_catalog:
        The catalogs (shared with the heavyweight stack).
    gridftp:
        The GridFTP client used under the hood.
    client_host:
        The portal machine's host.
    mds:
        Optional MDS for NWS-guided replica choice; without it the
        first replica wins.
    """

    _serial = itertools.count(1)

    def __init__(self, env: Environment, metadata: MetadataCatalog,
                 replica_catalog: ReplicaCatalog,
                 gridftp: GridFtpClient, client_host, registry: Dict,
                 mds=None):
        self.env = env
        self.metadata = metadata
        self.replica_catalog = replica_catalog
        self.gridftp = gridftp
        self.client_host = client_host
        self.registry = registry
        self.mds = mds
        self.scratch = FileSystem(env, f"portal-{next(self._serial)}")
        self.requests_served = 0
        # Scratch names must be unique per fetch: concurrent series
        # workers of the same operation would otherwise overwrite each
        # other's product mid-decode.
        self._fetch_serial = itertools.count(1)

    # -- selection helpers --------------------------------------------------
    def _pick_replica(self, collection: str, logical_file: str):
        """Simulation process: best replica for a small product."""
        replicas = yield from self.replica_catalog.find_replicas(
            collection, logical_file)
        candidates: List[ReplicaCandidate] = []
        for loc in replicas:
            server = self.registry.get(loc.hostname)
            if server is None:
                continue
            bandwidth, latency = 1e6, 0.1
            if self.mds is not None:
                forecast = yield from self.mds.nws_forecast(
                    server.host.node, self.client_host.node)
                if forecast is not None:
                    bandwidth, latency = forecast
            # Portal products are tiny: a tape-staging wait would dwarf
            # the transfer, so staging cost must enter the ranking.
            stage_wait = 0.0
            if server.hrm is not None and not server.hrm.is_staged(
                    logical_file):
                stage_wait = server.hrm.estimate_wait(logical_file)
            candidates.append(ReplicaCandidate(loc, bandwidth, latency,
                                               stage_wait=stage_wait))
        if not candidates:
            raise RuntimeError(f"no reachable replica of {logical_file!r}")
        ranked = NwsBestPolicy(consider_staging=True).rank(candidates,
                                                           nbytes=1e6)
        return ranked[0].location

    # -- one file -> one derived product --------------------------------------
    def _fetch_one(self, dataset_id: str, name: str, operation: str,
                   args: dict, cfg: GridFtpConfig):
        """Simulation process: derived product of one logical file.

        Picks the best replica, runs the ERET operation there, decodes
        the shipped product, and cleans the scratch copy up. Returns
        ``(dataset, stats, full_size, hostname)`` where ``full_size``
        is the file's registered size — what a whole-file download
        would have moved (the registry's disk size would read 0 for an
        unstaged tape replica).
        """
        loc = yield from self._pick_replica(dataset_id, name)
        session = yield from self.gridftp.connect(
            self.client_host, loc.hostname, cfg)
        dest_name = f"{name}.{operation}.{next(self._fetch_serial)}"
        try:
            stats = yield from session.get(
                name, self.scratch, self.client_host,
                dest_name=dest_name, eret=operation, eret_args=args,
                config=cfg)
        finally:
            session.close()
        blob = self.scratch.stat(dest_name).content
        self.scratch.delete(dest_name)
        if blob is None:
            raise RuntimeError(f"{name}: server shipped no content")
        try:
            full = self.metadata.file_size(dataset_id, name)
        except MetadataError:
            server = self.registry[loc.hostname]
            try:
                full = server.size(name)
            except GridFtpError:
                full = 0.0
        return decode(blob), stats, full, loc.hostname

    @staticmethod
    def _merge(datasets: List[Dataset], variable: str,
               operation: str) -> Dataset:
        if operation == "time_mean" or len(datasets) == 1:
            return datasets[0]
        from repro.cdat.analysis import concat_time
        return concat_time(datasets, variable)

    # -- the portal operations ------------------------------------------------
    def request(self, dataset_id: str, variable: str,
                operation: str = "subset",
                years: Optional[Tuple[int, int]] = None,
                months: Optional[Tuple[int, int]] = None,
                **ranges: Tuple[float, float]):
        """Simulation process: one lightweight request.

        ``operation`` is an ERET plug-in name ("subset" or "time_mean").
        Spatiotemporal ``ranges`` apply to "subset"; without them it
        ships the whole variable.
        Returns a :class:`PortalResponse` whose dataset merges the
        per-file products along time (except "time_mean", which returns
        the first product).
        """
        names = yield from self.metadata.query_files(
            dataset_id, variable, years, months)
        if not names:
            raise RuntimeError(f"selection matched nothing in "
                               f"{dataset_id!r}")
        started = self.env.now
        args = {"variable": variable}
        if operation == "subset":
            args.update({k: v for k, v in ranges.items()})
        cfg = GridFtpConfig(parallelism=1)
        shipped = full = decoded = 0.0
        cache_hits = 0
        datasets = []
        source = ""
        for name in names:
            ds, stats, fsize, source = yield from self._fetch_one(
                dataset_id, name, operation, args, cfg)
            datasets.append(ds)
            shipped += stats.transferred_bytes
            full += fsize
            decoded += stats.eret_decoded_bytes
            cache_hits += 1 if stats.eret_cache_hit else 0
        self.requests_served += 1
        merged = self._merge(datasets, variable, operation)
        return PortalResponse(dataset=merged, bytes_shipped=shipped,
                              full_bytes=full, source_hostname=source,
                              seconds=self.env.now - started,
                              server_decoded_bytes=decoded,
                              cache_hits=cache_hits, files=len(names))

    def open_series(self, dataset_id: str):
        """Simulation process: an aggregation view of one dataset.

        Resolves the dataset's summary record from the metadata catalog
        (one costed LDAP query) and returns a :class:`DatasetSeries`
        handle whose :meth:`~DatasetSeries.fetch` fans a single
        variable/region/time-slab request across the dataset's file
        series at the best replicas and concatenates along time — the
        caller sees one logical dataset, never the file boundaries.
        """
        record = yield from self.metadata.query_dataset(dataset_id)
        extent = self.metadata.time_extent(dataset_id)
        return DatasetSeries(portal=self, record=record,
                             time_extent=extent)


@dataclass
class DatasetSeries:
    """One dataset's file series behind a single logical handle."""

    portal: PortalClient
    record: DatasetRecord
    time_extent: Tuple[int, int]

    @property
    def dataset_id(self) -> str:
        return self.record.dataset_id

    def fetch(self, variable: str, operation: str = "subset",
              years: Optional[Tuple[int, int]] = None,
              months: Optional[Tuple[int, int]] = None,
              fanout: int = 4, **ranges: Tuple[float, float]):
        """Simulation process: one request across the whole series.

        Resolves the matching files, runs the operation on up to
        ``fanout`` files concurrently (each at its best replica), and
        merges the products along time in file order. Returns a
        :class:`PortalResponse`; ``source_hostname`` joins every
        replica host that served a product.
        """
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        portal = self.portal
        env = portal.env
        names = yield from portal.metadata.query_files(
            self.dataset_id, variable, years, months)
        if not names:
            raise RuntimeError(f"selection matched nothing in "
                               f"{self.dataset_id!r}")
        started = env.now
        args = {"variable": variable}
        if operation == "subset":
            args.update({k: v for k, v in ranges.items()})
        cfg = GridFtpConfig(parallelism=1)
        queue = list(enumerate(names))
        results: List = [None] * len(names)
        errors: List[BaseException] = []

        def worker():
            while queue and not errors:
                idx, name = queue.pop(0)
                try:
                    results[idx] = yield from portal._fetch_one(
                        self.dataset_id, name, operation, args, cfg)
                except BaseException as exc:
                    errors.append(exc)
                    return

        workers = [env.process(worker())
                   for _ in range(min(fanout, len(names)))]
        yield env.all_of(workers)
        if errors:
            raise errors[0]
        portal.requests_served += 1
        datasets = [r[0] for r in results]
        merged = portal._merge(datasets, variable, operation)
        sources = sorted({r[3] for r in results})
        return PortalResponse(
            dataset=merged,
            bytes_shipped=sum(r[1].transferred_bytes for r in results),
            full_bytes=sum(r[2] for r in results),
            source_hostname=",".join(sources),
            seconds=env.now - started,
            server_decoded_bytes=sum(r[1].eret_decoded_bytes
                                     for r in results),
            cache_hits=sum(1 for r in results if r[1].eret_cache_hit),
            files=len(names))
