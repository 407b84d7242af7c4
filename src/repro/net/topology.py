"""Network topology: nodes, links, and latency-weighted routing.

A :class:`Topology` is a directed multigraph. :meth:`Topology.duplex_link`
creates the common case of a symmetric pair. Paths are computed by
Dijkstra over link latency, one tree per source, and cached; there is
no other routing path.

Links carry *live* capacity that fault injection can change; the fluid
allocator reads ``Link.capacity`` at every reallocation, so a link taken
down mid-transfer immediately stalls the flows crossing it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple


class Node:
    """A network attachment point (router, switch, or host interface)."""

    __slots__ = ("name", "site", "kind")

    def __init__(self, name: str, site: str = "", kind: str = "router"):
        self.name = name
        self.site = site or name
        self.kind = kind

    def __repr__(self) -> str:
        return f"Node({self.name!r})"


class Link:
    """A unidirectional link with capacity (bytes/s) and latency (s).

    ``capacity`` may be changed at runtime (fault injection, bonding);
    users must call :meth:`FluidNetwork.link_updated` with the link
    afterwards — the :class:`~repro.net.faults.FaultInjector` does this
    automatically. Until then, rates may still reflect the old capacity.

    Outage and degradation state is *reference-counted* so that
    overlapping faults compose: each :meth:`set_down` stacks one outage
    hold, each :meth:`degrade_hold` stacks one capacity fraction, and the
    link only returns to nominal once every hold has been released. The
    effective capacity is 0 while any outage holds, otherwise nominal ×
    the most severe held fraction.
    """

    __slots__ = ("name", "src", "dst", "nominal_capacity", "capacity",
                 "latency", "site", "_groups", "_down_holds",
                 "_degrade_holds", "_corrupt_holds", "_topology")

    def __init__(self, name: str, src: Node, dst: Node, capacity: float,
                 latency: float, topology: "Topology", site: str = ""):
        if capacity < 0:
            raise ValueError(f"link {name!r}: negative capacity")
        if latency < 0:
            raise ValueError(f"link {name!r}: negative latency")
        self.name = name
        self.src = src
        self.dst = dst
        self.nominal_capacity = float(capacity)
        self.capacity = float(capacity)
        self.latency = float(latency)
        self.site = site or src.site
        # The fluid allocator's path groups crossing this link.
        self._groups: set = set()
        self._down_holds = 0
        self._degrade_holds: list = []
        self._corrupt_holds = 0
        self._topology = topology

    @property
    def is_up(self) -> bool:
        """True while the link has nonzero capacity."""
        return self.capacity > 0

    @property
    def faulted(self) -> bool:
        """True while any outage or degradation hold is active."""
        return self._down_holds > 0 or bool(self._degrade_holds)

    def _recompute(self) -> None:
        if self._down_holds > 0:
            self.capacity = 0.0
        elif self._degrade_holds:
            self.capacity = self.nominal_capacity * min(self._degrade_holds)
        else:
            self.capacity = self.nominal_capacity

    def set_down(self) -> None:
        """Fail the link (capacity → 0); stacks with concurrent faults."""
        self._down_holds += 1
        self._recompute()

    def degrade_hold(self, fraction: float) -> None:
        """Hold the link at ``fraction`` of nominal until released."""
        if not (0.0 <= fraction < 1.0):
            raise ValueError("degrade fraction must be in [0, 1)")
        self._degrade_holds.append(float(fraction))
        self._recompute()

    def release_degrade(self, fraction: float) -> None:
        """Release one :meth:`degrade_hold` of the given fraction."""
        try:
            self._degrade_holds.remove(float(fraction))
        except ValueError:
            pass
        self._recompute()

    def corrupt_hold(self) -> None:
        """Open a bit-flip window: bytes crossing the link are suspect.

        Capacity is untouched — corruption is silent by nature — so no
        reallocation is needed; the GridFTP client samples
        :attr:`corrupting` per delivered block and marks the delivered
        file. Holds are reference-counted like outage holds; the
        topology counts the links holding any
        (:attr:`Topology.corrupting_links`).
        """
        if not self._corrupt_holds:
            self._topology.corrupting_links += 1
        self._corrupt_holds += 1

    def release_corrupt(self) -> None:
        """Close one bit-flip window (idempotent at zero)."""
        if self._corrupt_holds:
            self._corrupt_holds -= 1
            if not self._corrupt_holds:
                self._topology.corrupting_links -= 1

    @property
    def corrupting(self) -> bool:
        """True while any corrupt-transfer fault window holds the link."""
        return self._corrupt_holds > 0

    def restore(self, capacity: Optional[float] = None) -> None:
        """Release one outage hold; back to nominal once all are gone.

        With an explicit ``capacity``, all fault holds are discarded and
        the link is forced to that capacity (the capacity-override form
        used by bonding/upgrade scenarios).
        """
        if capacity is not None:
            self._down_holds = 0
            self._degrade_holds.clear()
            self.capacity = float(capacity)
            return
        self._down_holds = max(0, self._down_holds - 1)
        self._recompute()

    def __repr__(self) -> str:
        return (f"Link({self.name!r} {self.src.name}->{self.dst.name} "
                f"{self.capacity * 8 / 1e6:.0f}Mb/s {self.latency * 1e3:.1f}ms)")


class Topology:
    """A directed multigraph of :class:`Node` and :class:`Link`.

    A pair's route list is built once, from its source's kept
    shortest-path tree, and kept, so it is always the same object (path
    groups key on its ``id``).
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self._adj: Dict[str, List[Link]] = {}
        # (src, dst) -> (route, the sum of its link latencies in order)
        self._path_cache: Dict[Tuple[str, str],
                               Tuple[List[Link], float]] = {}
        self._trees: Dict[str, Dict[str, Link]] = {}  # src -> _tree(src)
        # Links with an open corrupt-transfer hold (Link.corrupt_hold):
        # while it is 0 no block needs its path sampled.
        self.corrupting_links = 0

    # -- construction -------------------------------------------------------
    def add_node(self, name: str, site: str = "", kind: str = "router") -> Node:
        """Create (or return the existing) node called ``name``."""
        node = self.nodes.get(name)
        if node is None:
            node = Node(name, site=site, kind=kind)
            self.nodes[name] = node
            self._adj[name] = []
        return node

    def add_link(self, src: str, dst: str, capacity: float, latency: float,
                 name: Optional[str] = None) -> Link:
        """Add a unidirectional link between existing or new nodes."""
        s = self.add_node(src)
        d = self.add_node(dst)
        link_name = name or f"{src}->{dst}"
        if link_name in self.links:
            raise ValueError(f"duplicate link name {link_name!r}")
        link = Link(link_name, s, d, capacity, latency, self)
        self.links[link_name] = link
        self._adj[src].append(link)
        self._path_cache.clear()
        self._trees.clear()
        return link

    def duplex_link(self, a: str, b: str, capacity: float, latency: float,
                    name: Optional[str] = None) -> Tuple[Link, Link]:
        """Add a symmetric pair of links between ``a`` and ``b``."""
        base = name or f"{a}<->{b}"
        fwd = self.add_link(a, b, capacity, latency, name=f"{base}:fwd")
        rev = self.add_link(b, a, capacity, latency, name=f"{base}:rev")
        return fwd, rev

    # -- queries -------------------------------------------------------------
    def path(self, src: str, dst: str) -> List[Link]:
        """Links from ``src`` to ``dst`` along the min-latency route.

        Routing ignores *current* capacity on purpose: real IP routing
        does not reroute around a congested or dead link at this
        timescale, which is exactly why the paper needed restartable
        transfers.
        """
        if src == dst:
            return []
        return self._route(src, dst)[0]

    def latency(self, src: str, dst: str) -> float:
        """One-way propagation latency along :meth:`path`."""
        if src == dst:
            return 0  # the sum over no links
        return self._route(src, dst)[1]

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip time between two nodes."""
        return self.latency(src, dst) + self.latency(dst, src)

    def bottleneck_capacity(self, src: str, dst: str) -> float:
        """Smallest nominal capacity on the path."""
        path = self.path(src, dst)
        if not path:
            return float("inf")
        return min(link.nominal_capacity for link in path)

    # -- internals -------------------------------------------------------------
    def _route(self, src: str, dst: str) -> Tuple[List[Link], float]:
        cached = self._path_cache.get((src, dst))
        if cached is None:
            if src not in self.nodes or dst not in self.nodes:
                raise KeyError(f"unknown node in path {src!r} -> {dst!r}")
            prev = self._trees.get(src)
            if prev is None:
                prev = self._trees[src] = self._tree(src)
            if dst not in prev:
                raise ValueError(f"no path {src!r} -> {dst!r}")
            path: List[Link] = []
            cur = dst
            while cur != src:
                link = prev[cur]
                path.append(link)
                cur = link.src.name
            path.reverse()
            cached = (path, sum(link.latency for link in path))
            self._path_cache[(src, dst)] = cached
        return cached

    def _tree(self, src: str) -> Dict[str, Link]:
        """Dijkstra from ``src`` to every reachable node: each node's
        last link on its min-latency route (``src`` itself has none).

        A node is pushed only when its distance strictly falls, so it is
        popped once at its final distance and every other entry of it is
        stale. Its last link is final from then on (latencies are
        non-negative), so running on past any ``dst`` leaves its route,
        ties included, as a search stopping at ``dst`` finds it.
        """
        adj = self._adj
        dist: Dict[str, float] = {src: 0.0}
        prev: Dict[str, Link] = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        inf = math.inf
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            for link in adj[u]:
                v = link.dst.name
                nd = d + link.latency
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    prev[v] = link
                    push(heap, (nd, v))
        return prev

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}, {len(self.nodes)} nodes, "
                f"{len(self.links)} links)")
