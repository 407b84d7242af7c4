"""Federated, sharded replica catalog with stale-tolerant reads.

The paper's replica catalog (§6.2) is one LDAP tree; production ESG
federated many *site* catalogs — the ESG follow-on paper and Magda both
describe the same evolution to distributed, database-backed catalogs
with cross-site search. This module supplies that tier:

- :class:`ShardRouter` — consistent-hash placement of logical
  collections onto site catalogs (with explicit affinity pins), total
  and stable: every collection routes, and removing a site only moves
  the collections it homed;
- :class:`SiteCatalog` — one site's :class:`ReplicaCatalog` over its own
  :class:`~repro.ldap.directory.DirectoryServer`;
- :class:`FederatedReplicaCatalog` — the federation facade. Writes go
  to a collection's *home* shard and replicate asynchronously (bounded
  propagation lag, version-gated conflict resolution) to the other
  shards on its preference list. Timed lookups fan out to the
  preference shards concurrently, merge version-newest-first, dedupe,
  and sort by DN; a downed shard degrades the answer to *partial*
  (flagged, circuit-breaker guarded) instead of failing it. A
  client-side result cache (TTL) lets replica selection act on stale
  entries at zero catalog cost — the request manager verifies on open
  and calls :meth:`FederatedReplicaCatalog.demote` on a mismatch, which
  hides the entry until the collection is refreshed.

The facade implements the full :class:`ReplicaCatalog` surface, so the
request manager, campaign planner, portal, and replica manager run
against a federation without change.

ULM lifeline events: ``catalog.federated_query`` (every fan-out, with
``partial``/``stale`` flags), ``catalog.stale_hit`` (a lookup served
from the cache or a lagging shard), ``catalog.demote`` (an entry hidden
after a verify-on-open mismatch), ``catalog.sync`` (a replication
round that moved ops).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ldap.directory import (
    DirectoryError,
    DirectoryServer,
    DirectoryUnavailable,
    SharedValues,
)
from repro.ldap.filters import Predicate
from repro.obs import Observability
from repro.replica.catalog import (
    CollectionInfo,
    LocationInfo,
    ReplicaCatalog,
    ReplicaError,
    holding,
)
from repro.rm.resilience import CircuitBreaker
from repro.sim.core import Environment

# Points each site contributes to the consistent-hash ring.
VNODES = 64
# Each shard's client-side circuit breaker.
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_RESET_TIMEOUT = 60.0


def _h(text: str) -> int:
    """Deterministic 32-bit hash (no PYTHONHASHSEED dependence)."""
    return zlib.crc32(text.encode("utf-8"))


class ShardRouter:
    """Consistent-hash placement of collections onto catalog sites.

    Each site contributes ``VNODES`` points on a 32-bit ring; a
    collection's *home* is the owner of the first point at or after the
    collection's hash, and its *preference list* is the home plus the
    next ``replicas - 1`` distinct sites clockwise. Routing is total
    (every name maps) and stable (removing a site only moves the
    collections whose points it owned). A router's sites are fixed, so
    each collection's preference tuple is computed once.
    """

    def __init__(self, sites: Iterable[str], replicas: int = 2):
        self.sites = list(sites)
        if not self.sites:
            raise ValueError("need at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate site names")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = min(replicas, len(self.sites))
        ring = []
        for site in self.sites:
            for v in range(VNODES):
                ring.append((_h(f"{site}#{v}"), site))
        # hash ties broken by site name: deterministic everywhere
        self._ring = sorted(ring)
        self._preferences: Dict[str, Tuple[str, ...]] = {}

    def _successors(self, key: int) -> List[str]:
        """Distinct sites clockwise from ``key`` on the ring."""
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        out: List[str] = []
        for i in range(len(self._ring)):
            site = self._ring[(lo + i) % len(self._ring)][1]
            if site not in out:
                out.append(site)
                if len(out) == len(self.sites):
                    break
        return out

    def home(self, collection: str) -> str:
        """The shard that owns writes for ``collection``."""
        return self.preference(collection)[0]

    def preference(self, collection: str) -> Tuple[str, ...]:
        """Home + successor shards holding ``collection``'s subtree."""
        prefs = self._preferences.get(collection)
        if prefs is None:
            prefs = self._preferences[collection] = tuple(
                self._successors(_h(collection))[:self.replicas])
        return prefs

    def __repr__(self) -> str:
        return (f"ShardRouter({len(self.sites)} sites, "
                f"replicas={self.replicas})")


@dataclass
class SiteCatalog:
    """One site's replica catalog shard."""

    name: str
    catalog: ReplicaCatalog
    directory: DirectoryServer


@dataclass(frozen=True)
class QueryMeta:
    """How a federated lookup was answered."""

    served_by: Tuple[str, ...]   # shards (or ("cache",)) that answered
    winner: str                  # shard whose result set was taken
    partial: bool                # some preference shard was unreachable
    stale: bool                  # answer may lag the home's truth
    version: int                 # collection version of the answer
    queried: int                 # shards actually queried (0 = cache)


class FederatedReplicaCatalog:
    """Sharded replica catalog federated across site catalogs.

    Parameters
    ----------
    env:
        Simulation environment.
    sites:
        Site names; one :class:`SiteCatalog` (own directory server) is
        built per site. Every shard uses the same catalog root name so
        entry DNs are identical across sites and merge by DN.
    name:
        Catalog root name (``rc=<name>`` on every shard).
    replication:
        Shards holding each collection (home + ``replication - 1``).
    sync_interval:
        Async replication period, seconds — the bounded propagation lag
        between a home write and the peers seeing it.
    cache_ttl:
        Client-side lookup cache TTL in seconds (0 disables). Cache
        hits cost no simulated time; they may be stale, which the
        request manager's verify-on-open + :meth:`demote` tolerate.
    obs:
        :class:`~repro.obs.Observability` bundle (unwired when omitted).

    Each shard's client-side breaker opens after
    ``BREAKER_FAILURE_THRESHOLD`` consecutive failures and half-opens
    ``BREAKER_RESET_TIMEOUT`` seconds later.
    """

    def __init__(self, env: Environment, sites: Iterable[str],
                 name: str = "esg", replication: int = 2,
                 sync_interval: float = 30.0, cache_ttl: float = 0.0,
                 obs=None):
        if sync_interval <= 0:
            raise ValueError("sync_interval must be positive")
        if cache_ttl < 0:
            raise ValueError("cache_ttl must be >= 0")
        self.env = env
        self.name = name
        self.sync_interval = sync_interval
        self.cache_ttl = cache_ttl
        self.obs = obs or Observability()
        self.router = ShardRouter(sites, replicas=replication)
        self.sites: Dict[str, SiteCatalog] = {}
        for site in self.router.sites:
            directory = DirectoryServer(env, f"rc-{name}-{site}")
            self.sites[site] = SiteCatalog(
                site, ReplicaCatalog(env, directory=directory, name=name),
                directory)
        self._site_order = list(self.router.sites)
        self._breakers = {
            site: CircuitBreaker(f"catalog:{site}",
                                 BREAKER_FAILURE_THRESHOLD,
                                 BREAKER_RESET_TIMEOUT, obs=self.obs)
            for site in self._site_order}
        # per-collection monotonic version (bumped by every home write)
        self._version: Dict[str, int] = {}
        # (site, collection) -> last version applied at that site
        self._applied: Dict[Tuple[str, str], int] = {}
        # site -> ordered replication log of (version, collection, op, args)
        self._pending: Dict[str, List[tuple]] = {s: []
                                                 for s in self._site_order}
        # (collection, logical_file, location) -> version at demotion;
        # the entry is hidden until the collection moves past it.
        self._demoted: Dict[Tuple[str, str, str], int] = {}
        # collection -> logical_file -> (expires_at, version, locations)
        self._cache: Dict[str, Dict[str, tuple]] = {}
        self._running = False
        # instrumentation
        self.queries = 0
        self.cache_hits = 0
        self.stale_hits = 0
        self.partial_queries = 0
        self.demotes = 0
        self.refreshes = 0
        self.replicated_ops = 0
        self.conflicts_resolved = 0
        self.syncs = 0

    # -- replication machinery --------------------------------------------
    def start(self) -> None:
        """Begin the periodic replication pump (idempotent)."""
        if not self._running and len(self._site_order) > 1:
            self._running = True
            self.env.process(self._sync_loop())

    def _sync_loop(self):
        while True:
            yield self.env.timeout(self.sync_interval)
            self.sync_now()

    def sync_now(self) -> int:
        """Push pending ops to every *reachable* peer; returns count.

        A shard inside an outage window receives nothing (its log keeps
        accumulating), so an outage widens that shard's staleness
        instead of wedging the pump. Conflict resolution is
        version-gated last-writer-wins: an op at or below the version a
        shard has already applied for that collection is discarded (the
        idempotent-replay path real multi-master catalogs need).
        """
        applied = 0
        for site_name in self._site_order:
            queue = self._pending[site_name]
            if not queue:
                continue
            site = self.sites[site_name]
            if not site.directory.available:
                continue
            for version, collection, opname, args in queue:
                if version <= self._applied.get((site_name, collection),
                                                -1):
                    self.conflicts_resolved += 1
                    continue
                self._apply(site.catalog, opname, args)
                self._applied[(site_name, collection)] = version
                self.replicated_ops += 1
                applied += 1
            queue.clear()
        self.syncs += 1
        if applied:
            self.obs.event("catalog.sync", prog="replica-catalog",
                           ops=applied)
            self.obs.count("catalog.replicated_ops_total", applied)
        return applied

    @staticmethod
    def _apply(catalog: ReplicaCatalog, opname: str, args: tuple) -> None:
        try:
            getattr(catalog, opname)(*args)
        except (ReplicaError, DirectoryError):
            # Replays against an already-converged shard are no-ops.
            pass

    @property
    def lag(self) -> int:
        """Writes not yet propagated to some peer shard."""
        return sum(len(q) for q in self._pending.values())

    def _write(self, collection: str, opname: str, *args) -> None:
        """Apply a write at the home shard and log it for the peers."""
        prefs = self.router.preference(collection)
        home = self.sites[prefs[0]]
        getattr(home.catalog, opname)(*args)
        version = self._version.get(collection, 0) + 1
        self._version[collection] = version
        self._applied[(prefs[0], collection)] = version
        for peer in prefs[1:]:
            self._pending[peer].append((version, collection, opname, args))
        # Any write refreshes the collection: cached results are
        # invalidated so the next lookup re-queries the shards.
        self._cache.pop(collection, None)

    # -- registration (the ReplicaCatalog write surface) -------------------
    def create_collection(self, collection: str,
                          description: str = "") -> None:
        """Register a logical collection at its home shard."""
        self._write(collection, "create_collection", collection,
                    description)

    def register_location(self, collection: str, location: str,
                          protocol: str, hostname: str, port: int,
                          path: str, files: Iterable[str]) -> None:
        """Register a physical copy of a collection.

        Every shard stores the one ``files`` tuple, folded once: the
        home folds it and the op in the replication log carries that
        fold to the peers.
        """
        self._write(collection, "register_location", collection, location,
                    protocol, hostname, port, path, SharedValues(files))

    def register_logical_file(self, collection: str, logical_file: str,
                              size: float,
                              attributes: Optional[Dict] = None) -> None:
        """Optionally register a per-file entry (size, digest...)."""
        self._write(collection, "register_logical_file", collection,
                    logical_file, size, attributes)

    def add_file_to_location(self, collection: str, location: str,
                             logical_file: str) -> None:
        """Extend a location's filename list."""
        self._write(collection, "add_file_to_location", collection,
                    location, logical_file)

    def remove_file_from_location(self, collection: str, location: str,
                                  logical_file: str) -> None:
        """Drop one file from a location (replica deleted)."""
        self._write(collection, "remove_file_from_location", collection,
                    location, logical_file)

    def delete_location(self, collection: str, location: str) -> None:
        """Unregister a physical copy."""
        self._write(collection, "delete_location", collection, location)

    # -- immediate reads (setup / planning plane: home-authoritative) ------
    def _home(self, collection: str) -> SiteCatalog:
        return self.sites[self.router.home(collection)]

    def collections(self) -> List[CollectionInfo]:
        """All collections, federated across every shard and deduped.

        Each collection is reported from its home shard (authoritative);
        results are sorted by name so iteration order never depends on
        shard order.
        """
        out: Dict[str, CollectionInfo] = {}
        for site_name in self._site_order:
            site = self.sites[site_name]
            for info in site.catalog.collections():
                if info.name not in out \
                        or self.router.home(info.name) == site_name:
                    out[info.name] = info
        return [out[name] for name in sorted(out)]

    def locations(self, collection: str) -> List[LocationInfo]:
        """Every physical copy of a collection (home-authoritative)."""
        return sorted(self._home(collection).catalog.locations(collection),
                      key=lambda loc: loc.name)

    def logical_file_size(self, collection: str,
                          logical_file: str) -> Optional[float]:
        """Registered size, or None."""
        return self._home(collection).catalog.logical_file_size(
            collection, logical_file)

    def logical_file_digest(self, collection: str,
                            logical_file: str) -> Optional[str]:
        """Publish-time content digest, or None."""
        return self._home(collection).catalog.logical_file_digest(
            collection, logical_file)

    # -- stale-tolerant selection support ---------------------------------
    def demote(self, collection: str, logical_file: str,
               location: str, ticket: Optional[str] = None) -> None:
        """Hide one (file, location) entry after a verify-on-open
        mismatch; it is not re-offered until the collection is
        refreshed (any home write bumps the version past the demotion).
        The cached lookup for the file is invalidated so the caller's
        re-selection sees the demotion immediately. ``ticket`` names the
        request that found the mismatch, so the ``catalog.demote``
        record joins that ticket's lifeline only.
        """
        self._demoted[(collection, logical_file, location)] = \
            self._version.get(collection, 0)
        cached = self._cache.get(collection)
        if cached is not None:
            cached.pop(logical_file, None)
        self.demotes += 1
        self.obs.event("catalog.demote", prog="replica-catalog",
                       **({} if ticket is None else {"ticket": ticket}),
                       collection=collection, file=logical_file,
                       location=location)
        self.obs.count("catalog.demotes_total")

    def is_demoted(self, collection: str, logical_file: str,
                   location: str) -> bool:
        """True while a demoted entry is hidden (not yet refreshed)."""
        version = self._demoted.get((collection, logical_file, location))
        if version is None:
            return False
        if self._version.get(collection, 0) > version:
            # The collection moved on: the entry is refreshed, offer it.
            del self._demoted[(collection, logical_file, location)]
            self.refreshes += 1
            return False
        return True

    def _offerable(self, collection: str, logical_file: str,
                   locations: List[LocationInfo]) -> List[LocationInfo]:
        return [loc for loc in locations
                if not self.is_demoted(collection, logical_file, loc.name)]

    def _note_stale(self, collection: str, logical_file: str,
                    source: str) -> None:
        self.stale_hits += 1
        self.obs.event("catalog.stale_hit", prog="replica-catalog",
                       collection=collection, file=logical_file,
                       source=source)
        self.obs.count("catalog.stale_hits_total", source=source)

    # -- timed federated lookup (what the request manager calls) -----------
    def find_replicas(self, collection: str, logical_file: str):
        """Simulation process: locations holding ``logical_file``."""
        locations, _meta = yield from self.find_replicas_meta(
            collection, logical_file)
        return locations

    def find_replicas_meta(self, collection: str, logical_file: str):
        """Simulation process: ``(locations, QueryMeta)``.

        Serves from the client cache when fresh enough (zero cost, may
        be stale); otherwise fans out to the collection's preference
        shards concurrently, takes the version-newest answer, flags the
        result ``partial`` when a shard was unreachable (breaker open or
        outage) and ``stale`` when the answer lags the home's version.
        Results are deduplicated and sorted by DN (location name) so
        downstream iteration is deterministic. Raises
        :class:`DirectoryUnavailable` when no shard could answer, and
        :class:`ReplicaError` when every healthy shard agrees the
        collection does not exist.
        """
        self.queries += 1
        env = self.env
        current = self._version.get(collection, 0)
        cached = self._cache.get(collection, {}).get(logical_file)
        if cached is not None and env.now < cached[0]:
            _expires, version, locations = cached
            self.cache_hits += 1
            stale = version < current
            if stale:
                self._note_stale(collection, logical_file, "cache")
            self._emit_query(collection, logical_file, served=1,
                             winner="cache", partial=False, stale=stale)
            return (self._offerable(collection, logical_file, locations),
                    QueryMeta(("cache",), "cache", False, stale, version,
                              0))
        prefs = self.router.preference(collection)
        procs = {}
        skipped = 0
        predicate = holding(logical_file)  # one filter for every shard
        for site in prefs:
            if self._breakers[site].allow(env.now):
                procs[site] = env.process(
                    self._site_query(site, collection, predicate))
            else:
                skipped += 1
        if procs:
            yield env.all_of(list(procs.values()))
        responders = []           # (version, -pref_index, site, locations)
        failed = skipped
        absent = 0
        for index, site in enumerate(prefs):
            proc = procs.get(site)
            if proc is None:
                continue
            status, locations = proc.value
            if status == "down":
                self._breakers[site].record_failure(env.now)
                failed += 1
                continue
            self._breakers[site].record_success()
            if status == "absent":
                absent += 1
                continue
            responders.append(
                (self._applied.get((site, collection), -1), -index, site,
                 locations))
        partial = failed > 0
        if partial:
            self.partial_queries += 1
            self.obs.count("catalog.partial_queries_total")
        if not responders:
            if failed > 0:
                self._emit_query(collection, logical_file, served=0,
                                 winner="none", partial=True, stale=True)
                raise DirectoryUnavailable(
                    f"federated catalog: no reachable shard holds "
                    f"{collection!r} ({failed} shard(s) down)")
            raise ReplicaError(f"no collection {collection!r}")
        version, _neg, winner, locations = max(responders)
        stale = version < current
        if stale:
            self._note_stale(collection, logical_file, "shard")
        locations = sorted(locations, key=lambda loc: loc.name)
        if self.cache_ttl > 0:
            self._cache.setdefault(collection, {})[logical_file] = (
                env.now + self.cache_ttl, version, locations)
        self._emit_query(collection, logical_file, served=len(responders),
                         winner=winner, partial=partial, stale=stale)
        return (self._offerable(collection, logical_file, locations),
                QueryMeta(tuple(site for _v, _n, site, _l
                                in sorted(responders, key=lambda r: r[2])),
                          winner, partial, stale, version, len(procs)))

    def _site_query(self, site_name: str, collection: str,
                    predicate: Predicate):
        """One shard's timed lookup of the locations ``predicate``
        matches; never raises.

        Returns ``("ok", locations)``, ``("absent", [])`` when the shard
        is healthy but has never seen the collection, or
        ``("down", [])`` when it is unreachable.
        """
        site = self.sites[site_name]
        try:
            locations = yield from site.catalog.find_locations(
                collection, predicate)
        except DirectoryUnavailable:
            return "down", []
        except ReplicaError:
            return "absent", []
        except DirectoryError:
            return "down", []
        return "ok", locations

    def _emit_query(self, collection: str, logical_file: str, served: int,
                    winner: str, partial: bool, stale: bool) -> None:
        self.obs.event("catalog.federated_query", prog="replica-catalog",
                       collection=collection, file=logical_file,
                       served=served, winner=winner,
                       partial=int(partial), stale=int(stale))
        self.obs.count("catalog.federated_queries_total")

    # -- fault injection ---------------------------------------------------
    def add_outage(self, start: float, duration: float,
                   mode: str = "fail") -> None:
        """Whole-federation outage: a window on every shard directory
        (the fault injector's generic "catalog" target). Per-shard
        windows go through ``sites[name].directory.add_outage``."""
        for site in self.sites.values():
            site.directory.add_outage(start, duration, mode=mode)

    # -- introspection ----------------------------------------------------
    def shard_map(self) -> Dict[str, Tuple[str, ...]]:
        """collection -> preference list (routing snapshot)."""
        return {info.name: self.router.preference(info.name)
                for info in self.collections()}

    def stats(self) -> Dict[str, object]:
        """Federation health counters (CLI / bench reporting)."""
        return {
            "sites": {name: len(site.directory)
                      for name, site in self.sites.items()},
            "pending": {name: len(queue)
                        for name, queue in self._pending.items()},
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "stale_hits": self.stale_hits,
            "partial_queries": self.partial_queries,
            "demotes": self.demotes,
            "refreshes": self.refreshes,
            "replicated_ops": self.replicated_ops,
            "conflicts_resolved": self.conflicts_resolved,
            "syncs": self.syncs,
            "breakers": {site: breaker.state.value
                         for site, breaker in self._breakers.items()},
        }

    def __repr__(self) -> str:
        entries = {name: len(site.directory)
                   for name, site in self.sites.items()}
        return (f"FederatedReplicaCatalog({self.name!r}, "
                f"{len(self.sites)} shards, entries={entries}, "
                f"lag={self.lag})")
