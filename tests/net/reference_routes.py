"""Early-exit Dijkstra per pair: the test-side oracle for routing.

:func:`reference_path` is the router :class:`repro.net.Topology` used
before it kept one shortest-path tree per source: a search from ``src``
over link latency that stops as soon as ``dst`` is popped. The trees
must give every pair exactly the route it gives, ties included
(``tests/net/test_route_trees.py``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.net.topology import Link, Topology


def reference_path(topo: Topology, src: str,
                   dst: str) -> Optional[List[Link]]:
    """The min-latency route ``src`` -> ``dst`` (``None`` when there is
    none), searched afresh and stopped at ``dst``."""
    if src not in topo.nodes or dst not in topo.nodes:
        raise KeyError(f"unknown node in path {src!r} -> {dst!r}")
    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, Link] = {}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    visited = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in visited:
            continue
        if u == dst:
            break
        visited.add(u)
        for link in topo._adj[u]:
            v = link.dst.name
            nd = d + link.latency
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = link
                heapq.heappush(heap, (nd, v))
    if dst not in prev and src != dst:
        return None
    path: List[Link] = []
    cur = dst
    while cur != src:
        link = prev[cur]
        path.append(link)
        cur = link.src.name
    path.reverse()
    return path
