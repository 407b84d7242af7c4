"""Globus-style replica catalog and replica management (paper §6.2).

Three entry types, exactly as the paper describes:

- **logical collections** — user-defined groups of files ("users will
  often find it convenient ... to register and manipulate groups of
  files as a collection");
- **locations** — a complete or partial copy of a collection on one
  storage system, carrying everything needed to build transfer URLs
  (protocol, hostname, port, path) plus the filename list;
- **logical files** — *optional* per-file entries with globally unique
  names ("we chose to make logical file entries optional to improve
  catalog scalability for large collections").

:class:`ReplicaCatalog` stores these in an LDAP directory;
:class:`ReplicaManager` layers copy and verification operations;
``repro.replica.selection`` provides the selection policies the request
manager chooses among (NWS-best, random, round-robin).
"""

from repro.replica.catalog import (
    CollectionInfo,
    LocationInfo,
    ReplicaCatalog,
    ReplicaError,
)
from repro.replica.federation import (
    FederatedReplicaCatalog,
    QueryMeta,
    ShardRouter,
    SiteCatalog,
)
from repro.replica.manager import ReplicaManager
from repro.replica.selection import (
    NwsBestPolicy,
    NwsSpreadPolicy,
    RandomPolicy,
    ReplicaCandidate,
    RoundRobinPolicy,
    SelectionPolicy,
)

__all__ = [
    "CollectionInfo",
    "FederatedReplicaCatalog",
    "LocationInfo",
    "NwsBestPolicy",
    "NwsSpreadPolicy",
    "QueryMeta",
    "RandomPolicy",
    "ReplicaCandidate",
    "ReplicaCatalog",
    "ReplicaError",
    "ReplicaManager",
    "RoundRobinPolicy",
    "SelectionPolicy",
    "ShardRouter",
    "SiteCatalog",
]
