"""Replica management: copy and verify.

"These two services [GridFTP + replica catalog] are used to construct a
range of higher-level data management services, such as reliable
creation of a copy of a large data collection at a new location" (§6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.gridftp.client import GridFtpClient
from repro.gridftp.server import GridFtpServer
from repro.replica.catalog import ReplicaCatalog, ReplicaError
from repro.sim.core import Environment


class ReplicaManager:
    """Copy and verification operations over a :class:`ReplicaCatalog`."""

    def __init__(self, env: Environment, catalog: ReplicaCatalog,
                 client: Optional[GridFtpClient] = None):
        self.env = env
        self.catalog = catalog
        self.client = client
        self.copies_made = 0

    # -- replication -----------------------------------------------------------
    def replicate_file(self, control_host, collection: str,
                       logical_file: str, dest_location: str,
                       dest_server: GridFtpServer):
        """Simulation process: copy one file to a new location.

        Picks any existing replica as the source, performs a third-party
        GridFTP copy, and registers the new copy (creating the location
        entry if needed). Returns the TransferStats.
        """
        if self.client is None:
            raise ReplicaError("no GridFTP client configured")
        replicas = yield from self.catalog.find_replicas(collection,
                                                         logical_file)
        if not replicas:
            raise ReplicaError(f"no replica of {logical_file!r}")
        src = replicas[0]
        stats = yield from self.client.third_party_copy(
            control_host, src.hostname, dest_server.hostname, logical_file)
        existing = {l.name for l in self.catalog.locations(collection)}
        if dest_location not in existing:
            self.catalog.register_location(
                collection, dest_location, protocol="gsiftp",
                hostname=dest_server.hostname, port=2811, path="/data",
                files=[logical_file])
        else:
            self.catalog.add_file_to_location(collection, dest_location,
                                              logical_file)
        self.copies_made += 1
        return stats

    # -- verification ---------------------------------------------------------------
    def verify_location(self, collection: str, location: str,
                        server: GridFtpServer) -> List[str]:
        """Files the catalog claims are at a location but are not there."""
        locs = {l.name: l for l in self.catalog.locations(collection)}
        info = locs.get(location)
        if info is None:
            raise ReplicaError(f"no location {location!r}")
        return [f for f in info.files if not server.exists(f)]

    def coverage(self, collection: str) -> dict:
        """logical file → number of locations holding it."""
        counts: dict = {}
        for loc in self.catalog.locations(collection):
            for f in loc.files:
                counts[f] = counts.get(f, 0) + 1
        return counts
