"""The replica catalog: collections, locations, optional logical files.

DIT layout (cf. the paper's Figure 6 example)::

    rc=<catalog>
      lc=<collection>                   logical collection
        loc=<location>                  one physical copy (maybe partial)
        lf=<logical file>               optional per-file entry (size...)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ldap.directory import DirectoryServer, Entry, Scope, SharedValues
from repro.ldap.dn import DN
from repro.ldap.filters import Predicate, conjunction, equal
from repro.sim.core import Environment


_COLLECTION = equal("objectclass", "logicalcollection")
_LOCATION = equal("objectclass", "location")


def holding(logical_file: str) -> Predicate:
    """The filter of a replica lookup: locations holding ``logical_file``."""
    return conjunction(_LOCATION, equal("filename", logical_file))


class ReplicaError(Exception):
    """Catalog inconsistency or missing entry."""


@dataclass(frozen=True, slots=True)
class LocationInfo:
    """One physical copy of (part of) a collection.

    Attributes mirror the paper: "protocol, hostname, port, path —
    required to map from logical names for files to URLs". ``files`` is
    the location entry's own ``filename`` tuple, shared, not copied.
    """

    name: str
    protocol: str
    hostname: str
    port: int
    path: str
    files: Tuple[str, ...]

    def url_for(self, logical_file: str) -> str:
        """Transfer URL for a file held at this location."""
        if logical_file not in self.files:
            raise ReplicaError(f"{logical_file!r} not at location "
                               f"{self.name!r}")
        return (f"{self.protocol}://{self.hostname}:{self.port}"
                f"{self.path}/{logical_file}")

    def holds(self, logical_file: str) -> bool:
        return logical_file in self.files


def _location_info(entry: Entry) -> LocationInfo:
    """The :class:`LocationInfo` a ``loc=`` entry describes: one object
    per version of the entry, kept as its ``view`` until a write drops
    it."""
    info = entry.view
    if info is None:
        info = entry.view = LocationInfo(
            name=entry.dn.rdn[1],
            protocol=entry.first("protocol", "gsiftp"),
            hostname=entry.first("hostname", ""),
            port=int(entry.first("port", "2811")),
            path=entry.first("path", "/"),
            files=entry.get("filename"))
    return info


@dataclass(frozen=True)
class CollectionInfo:
    """A logical collection summary."""

    name: str
    description: str
    file_count: int
    location_count: int


class ReplicaCatalog:
    """LDAP-backed replica catalog.

    Parameters
    ----------
    env:
        Simulation environment.
    directory:
        Backing :class:`DirectoryServer` (created if not supplied).
    name:
        Catalog name (root entry ``rc=<name>``).
    """

    def __init__(self, env: Environment,
                 directory: Optional[DirectoryServer] = None,
                 name: str = "esg"):
        self.env = env
        # Explicit None test: an empty DirectoryServer is falsy (len 0),
        # and a caller-supplied backing store must never be discarded.
        self.directory = (directory if directory is not None
                          else DirectoryServer(env, name=f"rc-{name}"))
        self.name = name
        self.root = DN.parse(f"rc={name}")
        # collection -> its entry's DN, for collections that exist
        self._collection_dns: Dict[str, DN] = {}
        if not self.directory.exists(self.root):
            self.directory.add(self.root, {"objectclass": "replicacatalog"})

    # -- registration (setup-time, immediate) -----------------------------
    def create_collection(self, collection: str,
                          description: str = "") -> None:
        """Register a logical collection."""
        dn = self.root.child("lc", collection)
        if self.directory.exists(dn):
            raise ReplicaError(f"collection {collection!r} exists")
        self.directory.add(dn, {"objectclass": "logicalcollection",
                                "description": description})

    def register_location(self, collection: str, location: str,
                          protocol: str, hostname: str, port: int,
                          path: str, files: Iterable[str]) -> None:
        """Register a (possibly partial) physical copy of a collection.

        ``files`` may be :class:`SharedValues`, stored (and folded) as
        the one tuple it carries.
        """
        if not isinstance(files, SharedValues):
            files = tuple(files)
        cdn = self._collection_dn(collection)
        dn = cdn.child("loc", location)
        if self.directory.exists(dn):
            raise ReplicaError(f"location {location!r} exists in "
                               f"{collection!r}")
        self.directory.add(dn, {
            "objectclass": "location",
            "protocol": protocol, "hostname": hostname,
            "port": str(port), "path": path,
            "filename": files})

    def register_logical_file(self, collection: str, logical_file: str,
                              size: float,
                              attributes: Optional[Dict] = None) -> None:
        """Optionally register a per-file entry (size etc.)."""
        cdn = self._collection_dn(collection)
        dn = cdn.child("lf", logical_file)
        if self.directory.exists(dn):
            raise ReplicaError(f"logical file {logical_file!r} exists")
        attrs = {"objectclass": "logicalfile", "size": str(size)}
        attrs.update(attributes or {})
        self.directory.add(dn, attrs)

    def add_file_to_location(self, collection: str, location: str,
                             logical_file: str) -> None:
        """Extend a location's filename list (after a copy completes)."""
        dn = self._location_dn(collection, location)
        self.directory.modify(dn, add_values={"filename": logical_file})

    def remove_file_from_location(self, collection: str, location: str,
                                  logical_file: str) -> None:
        """Drop one file from a location (replica deleted)."""
        dn = self._location_dn(collection, location)
        entry = self.directory.lookup(dn)
        files = [f for f in entry.get("filename") if f != logical_file]
        self.directory.modify(dn, replace={"filename": files})

    def delete_location(self, collection: str, location: str) -> None:
        """Unregister a physical copy."""
        self.directory.delete(self._location_dn(collection, location))

    # -- immediate queries --------------------------------------------------------
    def collections(self) -> List[CollectionInfo]:
        """All registered collections."""
        out = []
        for entry in self.directory.search(
                self.root, Scope.ONELEVEL, _COLLECTION):
            coll = entry.dn.rdn[1]
            locs = self.locations(coll)
            files = {f for l in locs for f in l.files}
            out.append(CollectionInfo(coll,
                                      entry.first("description", ""),
                                      len(files), len(locs)))
        return out

    def locations(self, collection: str) -> List[LocationInfo]:
        """Every physical copy of a collection."""
        cdn = self._collection_dn(collection)
        return [_location_info(e) for e in self.directory.search(
            cdn, Scope.ONELEVEL, _LOCATION)]

    def logical_file_size(self, collection: str,
                          logical_file: str) -> Optional[float]:
        """Registered size, or None (logical file entries are optional)."""
        dn = self._collection_dn(collection).child("lf", logical_file)
        if not self.directory.exists(dn):
            return None
        return float(self.directory.lookup(dn).first("size", "0"))

    def logical_file_digest(self, collection: str,
                            logical_file: str) -> Optional[str]:
        """Publish-time content digest, or None if never recorded.

        The digest is written once when the pristine copy is registered;
        verification compares every delivered copy against it.
        """
        dn = self._collection_dn(collection).child("lf", logical_file)
        if not self.directory.exists(dn):
            return None
        return self.directory.lookup(dn).first("digest", "") or None

    # -- timed query (what the request manager calls) ------------------------------
    def find_replicas(self, collection: str, logical_file: str):
        """Simulation process: locations holding ``logical_file``.

        This is RM step (1): "it finds all replicas for the file from the
        Replica Catalog using an LDAP protocol".
        """
        return self.find_locations(collection, holding(logical_file))

    def find_locations(self, collection: str, predicate: Predicate):
        """Simulation process: the locations of ``collection`` that
        ``predicate`` (built by :func:`holding`) matches."""
        cdn = self._collection_dn(collection)
        entries = yield from self.directory.query(cdn, Scope.ONELEVEL,
                                                  predicate)
        return [_location_info(e) for e in entries]

    # -- internals ------------------------------------------------------------------
    def _collection_dn(self, collection: str) -> DN:
        """The collection entry's own DN, built once per collection."""
        dn = self._collection_dns.get(collection)
        if dn is None or not self.directory.exists(dn):
            dn = self.root.child("lc", collection)
            if not self.directory.exists(dn):
                self._collection_dns.pop(collection, None)
                raise ReplicaError(f"no collection {collection!r}")
            dn = self._collection_dns[collection] = \
                self.directory.lookup(dn).dn
        return dn

    def _location_dn(self, collection: str, location: str) -> DN:
        dn = self._collection_dn(collection).child("loc", location)
        if not self.directory.exists(dn):
            raise ReplicaError(f"no location {location!r} in "
                               f"{collection!r}")
        return dn

    def __repr__(self) -> str:
        return f"ReplicaCatalog({self.name!r}, {len(self.directory)} entries)"
