"""The directory server: a DN-keyed tree with scoped, filtered search."""

from __future__ import annotations

import enum
from bisect import bisect_left
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.ldap.dn import DN
from repro.ldap.filters import ANY_ENTRY, Filter, compile_filter, fold
from repro.sim.core import Environment

# Seconds a search costs per entry it examines.
SCAN_COST = 2e-6


class DirectoryError(Exception):
    """Directory operation failed (missing entry, duplicate, orphan...)."""


class DirectoryUnavailable(DirectoryError):
    """The server is inside a scheduled outage window (transient)."""


class Scope(enum.Enum):
    """LDAP search scopes."""

    BASE = "base"        # the base entry only
    ONELEVEL = "one"     # immediate children
    SUBTREE = "sub"      # base and every descendant


def _with_fold(vs: tuple) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(vs, fold(vs))``; a non-str value sends every value through
    ``str()`` first."""
    try:
        return vs, fold(vs)
    except TypeError:
        vs = tuple([str(v) for v in vs])
        return vs, fold(vs)


class SharedValues:
    """One value tuple that several directories store, folded once.

    A federation hands the same object to the home shard and, through
    its replication log, to every peer: the first :meth:`Entry._set`
    that stores it folds it, and every later one takes that fold. The
    entries keep ``values`` and ``folded`` themselves, so the object
    lives only as long as the op that carries it.
    """

    __slots__ = ("values", "folded")

    def __init__(self, values: Iterable[str]):
        self.values = tuple(values)
        self.folded: Optional[Tuple[str, ...]] = None


class Entry:
    """One directory entry: a DN plus multi-valued attributes.

    Each attribute's values are one immutable tuple in publish order,
    shared, not copied: a tuple given to :meth:`_set` is stored as that
    object. ``folded`` is the view of ``attributes`` that search filters
    read: each attribute's values lowercased and sorted, so that equality
    can bisect them. It is the same tuple as the stored one when that is
    already lowercase and sorted, and costs one pointer per value when it
    is not. Both are written only by :meth:`_set` and :meth:`_add` and
    dropped only by :meth:`_delete`. ``view`` is one value a layer above
    derives from the attributes (the replica catalog's ``LocationInfo``);
    every write drops it.
    """

    __slots__ = ("dn", "attributes", "folded", "view")

    def __init__(self, dn: DN, attributes: Dict[str, Iterable[str]]):
        self.dn = dn
        self.attributes: Dict[str, Tuple[str, ...]] = {}
        self.folded: Dict[str, Tuple[str, ...]] = {}
        self.view = None
        for k, vs in attributes.items():
            self._set(k.lower(), vs)

    def _set(self, attr: str, vs) -> None:
        """Store ``vs`` (one value, a list/tuple/set or
        :class:`SharedValues`) under ``attr``.

        ``tuple()`` keeps a tuple as that object and copies a list or set
        into one; a non-str value sends every value through ``str()``.
        """
        if type(vs) is SharedValues:
            if vs.folded is None:
                vs.values, vs.folded = _with_fold(vs.values)
            vs, folded = vs.values, vs.folded
        else:
            vs, folded = _with_fold(
                tuple(vs) if isinstance(vs, (list, tuple, set)) else (vs,))
        self.attributes[attr] = vs
        self.folded[attr] = folded
        self.view = None

    def _add(self, attr: str, vs) -> None:
        """Append the values of ``vs`` that ``attr`` does not yet match.

        Each value is looked up in the sorted fold by bisection and, when
        new, inserted there, so no stored value is hashed or lowercased
        again.
        """
        values = self.attributes.get(attr, ())
        folded = self.folded.get(attr, ())
        merged = list(folded)
        added = []
        for v in vs if isinstance(vs, (list, tuple, set)) else [vs]:
            v = str(v)
            low = v.lower()
            i = bisect_left(merged, low)
            if i == len(merged) or merged[i] != low:
                merged.insert(i, low)
                added.append(v)
        if added:
            was_values = folded is values
            values += tuple(added)
            folded = tuple(merged)
            if was_values and folded == values:
                folded = values
        self.attributes[attr] = values
        self.folded[attr] = folded
        self.view = None

    def _delete(self, attr: str) -> None:
        self.attributes.pop(attr, None)
        self.folded.pop(attr, None)
        self.view = None

    def get(self, attr: str) -> Tuple[str, ...]:
        """All values of ``attr``: the stored tuple (``()`` if absent)."""
        return self.attributes.get(attr.lower(), ())

    def first(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        """First value of ``attr`` or ``default``."""
        values = self.get(attr)
        return values[0] if values else default

    def __repr__(self) -> str:
        return f"Entry({str(self.dn)!r})"


class DirectoryServer:
    """An in-memory LDAP-like server with a simulated cost model.

    Parameters
    ----------
    env:
        Simulation environment (operations are generators costing time).
    name:
        Server label.
    base_latency:
        Per-operation round-trip cost, seconds.

    A search costs ``SCAN_COST`` more per entry examined.

    All mutation requires the parent entry to exist (except for roots),
    mirroring real directory semantics; deletion refuses non-leaf entries
    unless ``recursive=True``.

    Each parent lazily keeps its children in DN order and an index from
    each folded ``objectclass`` value to them, dropped when a child is
    added, deleted or has its ``objectclass`` modified. A one-level
    search with a tagged filter (see :mod:`repro.ldap.filters`) tests
    only the filter's rest, and only on that index slot; one with the
    default ``(objectclass=*)`` takes the children carrying any class
    as the index lists them. The cost model
    is unchanged: :meth:`query` charges ``SCAN_COST`` for, and
    ``entries_scanned`` counts, every child in scope; a timed query
    answers from the scope it captured on arrival and reads the index
    only while that scope is still current.
    """

    def __init__(self, env: Environment, name: str = "ldap",
                 base_latency: float = 0.005):
        self.env = env
        self.name = name
        self.base_latency = base_latency
        self._entries: Dict[DN, Entry] = {}
        self._children: Dict[DN, set] = {}
        self._indexes: Dict[DN, tuple] = {}  # parent -> see _index
        self.operations = 0  # instrumentation
        self.entries_scanned = 0
        self._outages: List[tuple] = []  # (start, end, mode)
        self.outage_hits = 0

    # -- fault injection ---------------------------------------------------------
    def add_outage(self, start: float, duration: float,
                   mode: str = "fail") -> None:
        """Schedule an unavailability window in absolute simulation time.

        mode="fail": timed operations pay their latency then raise
        :class:`DirectoryUnavailable`. mode="hang": they block until the
        window ends, then proceed normally (a wedged server that
        eventually recovers).
        """
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        if mode not in ("fail", "hang"):
            raise ValueError("outage mode must be 'fail' or 'hang'")
        self._outages.append((float(start), float(start) + float(duration),
                              mode))

    def _outage_at(self, now: float):
        for start, end, mode in self._outages:
            if start <= now < end:
                return end, mode
        return None

    @property
    def available(self) -> bool:
        """True when no outage window covers the current instant."""
        return self._outage_at(self.env.now) is None

    def _outage_gate(self):
        """Generator prelude applying any active outage window."""
        window = self._outage_at(self.env.now)
        if window is None:
            return
        end, mode = window
        self.outage_hits += 1
        if mode == "hang":
            yield self.env.timeout(end - self.env.now)
            return
        yield self.env.timeout(self.base_latency)
        raise DirectoryUnavailable(
            f"{self.name}: directory unavailable until t={end:.1f}")

    # -- immediate (non-process) API: used by setup code -----------------------
    def add(self, dn: Union[str, DN], attributes: Dict) -> Entry:
        """Create an entry (parent must exist unless this is a root)."""
        dn = DN.of(dn)
        if dn in self._entries:
            raise DirectoryError(f"{self.name}: entry exists: {dn}")
        parent = dn.parent
        if parent is not None and parent not in self._entries:
            raise DirectoryError(f"{self.name}: no parent for {dn}")
        entry = Entry(dn, attributes)
        self._entries[dn] = entry
        self._children.setdefault(dn, set())
        if parent is not None:
            self._children[parent].add(dn)
            self._indexes.pop(parent, None)
        return entry

    def modify(self, dn: Union[str, DN], replace: Optional[Dict] = None,
               add_values: Optional[Dict] = None,
               delete_attrs: Optional[Iterable[str]] = None) -> Entry:
        """Replace / extend / delete attributes on an entry."""
        entry = self.lookup(dn)
        delete_attrs = [a.lower() for a in delete_attrs or ()]
        touched = [*(replace or ()), *(add_values or ()), *delete_attrs]
        if any(k.lower() == "objectclass" for k in touched):
            self._indexes.pop(entry.dn.parent, None)
        if replace:
            for k, vs in replace.items():
                entry._set(k.lower(), vs)
        if add_values:
            for k, vs in add_values.items():
                entry._add(k.lower(), vs)
        for attr in delete_attrs:
            entry._delete(attr)
        return entry

    def delete(self, dn: Union[str, DN], recursive: bool = False) -> None:
        """Remove an entry (and optionally its subtree)."""
        dn = DN.of(dn)
        if dn not in self._entries:
            raise DirectoryError(f"{self.name}: no entry {dn}")
        kids = self._children.get(dn, set())
        if kids and not recursive:
            raise DirectoryError(f"{self.name}: {dn} has children")
        for kid in list(kids):
            self.delete(kid, recursive=True)
        del self._entries[dn]
        del self._children[dn]
        self._indexes.pop(dn, None)
        parent = dn.parent
        if parent is not None and parent in self._children:
            self._children[parent].discard(dn)
            self._indexes.pop(parent, None)

    def lookup(self, dn: Union[str, DN]) -> Entry:
        """Fetch one entry by DN."""
        dn = DN.of(dn)
        entry = self._entries.get(dn)
        if entry is None:
            raise DirectoryError(f"{self.name}: no entry {dn}")
        return entry

    def exists(self, dn: Union[str, DN]) -> bool:
        """True if the DN names an entry."""
        return DN.of(dn) in self._entries

    def children(self, dn: Union[str, DN]) -> List[Entry]:
        """Immediate children of an entry."""
        dn = DN.of(dn)
        if dn not in self._entries:
            raise DirectoryError(f"{self.name}: no entry {dn}")
        return list(self._index(dn)[0])

    def _index(self, dn: DN) -> tuple:
        """(children in DN order, folded objectclass -> those children,
        the children that carry an objectclass: the first list itself
        unless one carries none)."""
        index = self._indexes.get(dn)
        if index is None:
            kids = [self._entries[c] for c in sorted(
                self._children[dn], key=attrgetter("_str"))]
            by_class: Dict[str, List[Entry]] = {}
            classed = kids
            for e in kids:
                classes = e.folded.get("objectclass")
                if not classes:
                    classed = None
                for oc in dict.fromkeys(classes or ()):
                    by_class.setdefault(oc, []).append(e)
            if classed is None:
                classed = [e for e in kids if e.folded.get("objectclass")]
            index = self._indexes[dn] = (kids, by_class, classed)
        return index

    def search(self, base: Union[str, DN], scope: Scope = Scope.SUBTREE,
               flt: Filter = ANY_ENTRY) -> List[Entry]:
        """Scoped, filtered search (immediate form).

        ``flt`` is filter text or a predicate built by
        :mod:`repro.ldap.filters`."""
        base = DN.of(base)
        candidates = (self._candidates(base, scope)
                      if base in self._entries else [])
        return self._filter(base, candidates, flt)

    def _filter(self, base: DN, candidates: List[Entry],
                flt: Filter) -> List[Entry]:
        if base not in self._entries:
            raise DirectoryError(f"{self.name}: search base {base} absent")
        predicate = compile_filter(flt) if isinstance(flt, str) else flt
        self.entries_scanned += len(candidates)
        index = self._indexes.get(base)
        if index is not None and index[0] is candidates:
            if predicate is ANY_ENTRY:
                return list(index[2])
            tag = getattr(predicate, "objectclass", None)
            if tag is not None:
                # The slot holds exactly the children that carry the tag.
                rest = predicate.rest
                slot = index[1].get(tag, ())
                if rest is None:
                    return list(slot)
                return [e for e in slot if rest(e.folded)]
        return [e for e in candidates if predicate(e.folded)]

    def _candidates(self, base: DN, scope: Scope) -> List[Entry]:
        if scope is Scope.BASE:
            return [self._entries[base]]
        if scope is Scope.ONELEVEL:
            return self._index(base)[0]
        out = [self._entries[base]]
        stack = list(self._children[base])
        while stack:
            dn = stack.pop()
            out.append(self._entries[dn])
            stack.extend(self._children[dn])
        return out

    # -- timed (process) API: used by simulated components -----------------------
    def query(self, base: Union[str, DN], scope: Scope = Scope.SUBTREE,
              flt: Filter = ANY_ENTRY):
        """Simulation process: a search costing latency + scan time."""
        self.operations += 1
        yield from self._outage_gate()
        base = DN.of(base)
        # One scan, charged before and filtered after the latency: the
        # answer is the subtree as the query found it on arrival.
        candidates = (self._candidates(base, scope)
                      if base in self._entries else [])
        yield self.env.timeout(self.base_latency
                               + SCAN_COST * len(candidates))
        return self._filter(base, candidates, flt)

    def read(self, dn: Union[str, DN]):
        """Simulation process: a single-entry lookup costing latency."""
        self.operations += 1
        yield from self._outage_gate()
        yield self.env.timeout(self.base_latency)
        return self.lookup(dn)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"DirectoryServer({self.name!r}, {len(self)} entries)"
