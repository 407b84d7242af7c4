"""Routes against the early-exit search per pair they replaced
(``tests/net/reference_routes.py``).

A route is built from its source's kept shortest-path tree, a Dijkstra
search run to completion. On random multigraphs with zero and tied latencies, parallel links, cycles
and unreachable nodes, asked in random order, every ordered pair must
get the reference's link list, ties included; a repeated query must
return the same list object (path groups key on its ``id``); and a link
added after queries must be routed over.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Topology, mbps

from tests.net.reference_routes import reference_path

# Few distinct latencies, zero among them, so equal-length routes tie;
# 0.1 + 0.2 != 0.3 in floating point, so sums that tie on paper may not.
LATENCY = st.sampled_from([0.0, 0.0, 0.001, 0.002, 0.003, 0.005,
                           0.1, 0.2, 0.3])
NODES = 7
PAIRS = [(a, b) for a in range(NODES) for b in range(NODES)]
LINK = st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1),
                 LATENCY)
# Self-loops and repeated endpoints give parallel links and cycles;
# nodes no link reaches stay unreachable.
LINKS = st.lists(LINK, min_size=0, max_size=24)


def build(links, nodes=NODES):
    topo = Topology()
    for i in range(nodes):
        topo.add_node(f"n{i}")
    for k, (a, b, lat) in enumerate(links):
        topo.add_link(f"n{a}", f"n{b}", mbps(100), lat, name=f"l{k}")
    return topo


def assert_routes_match(topo, order=PAIRS):
    got = {}
    for a, b in list(order) * 2:
        src, dst = f"n{a}", f"n{b}"
        if src == dst:
            assert topo.path(src, dst) == []
            continue
        want = reference_path(topo, src, dst)
        if want is None:
            with pytest.raises(ValueError, match="no path"):
                topo.path(src, dst)
            continue
        path = topo.path(src, dst)
        assert path == want, (src, dst)
        assert got.setdefault((a, b), path) is path
        assert topo.latency(src, dst) == sum(l.latency for l in want)


@settings(max_examples=300, deadline=None)
@given(links=LINKS, order=st.permutations(PAIRS))
def test_routes_match_the_early_exit_search(links, order):
    assert_routes_match(build(links), order)


@settings(max_examples=100, deadline=None)
@given(links=LINKS, more=st.lists(LINK, min_size=1, max_size=4),
       order=st.permutations(PAIRS))
def test_routes_are_rebuilt_after_add_link(links, more, order):
    topo = build(links)
    assert_routes_match(topo, order)
    for k, (a, b, lat) in enumerate(more):
        topo.add_link(f"n{a}", f"n{b}", mbps(100), lat, name=f"x{k}")
        assert_routes_match(topo, order)


def test_a_shorter_link_added_later_takes_the_route():
    topo = build([(0, 1, 0.005), (1, 2, 0.005)])
    old = topo.path("n0", "n2")
    assert [l.name for l in old] == ["l0", "l1"]
    topo.add_link("n0", "n2", mbps(100), 0.001, name="short")
    new = topo.path("n0", "n2")
    assert [l.name for l in new] == ["short"]
    assert topo.path("n0", "n2") is new


def test_unknown_node_raises_before_any_search():
    topo = build([(0, 1, 0.001)])
    with pytest.raises(KeyError):
        topo.path("n0", "nowhere")
    with pytest.raises(KeyError):
        topo.path("nowhere", "n0")
    assert topo._trees == {}


def test_one_tree_per_source_serves_every_destination():
    """A fleet's shape: hub h, endpoint e, PoPs p0..p3. Each source is
    searched once, whatever it asks for; a link added drops the trees."""
    links = [("e", "h", 0.012), ("h", "e", 0.012)]
    for p in range(4):
        links += [(f"p{p}", "h", 0.010), ("h", f"p{p}", 0.010)]
    topo = Topology()
    for a, b, lat in links:
        topo.add_link(a, b, mbps(100), lat)
    searched = []
    tree = topo._tree
    topo._tree = lambda src: (searched.append(src), tree(src))[1]
    for p in range(4):
        assert [l.name for l in topo.path(f"p{p}", "e")] == [
            f"p{p}->h", "h->e"]
        assert [l.name for l in topo.path("e", f"p{p}")] == [
            "e->h", f"h->p{p}"]
        assert [l.name for l in topo.path(f"p{p}", "h")] == [f"p{p}->h"]
    assert searched == ["p0", "e", "p1", "p2", "p3"]
    assert sorted(topo._trees) == ["e", "p0", "p1", "p2", "p3"]
    topo.add_link("p0", "e", mbps(100), 0.001)
    assert topo._trees == {}
    assert [l.name for l in topo.path("p0", "e")] == ["p0->e"]


def test_route_sums_in_path_order():
    """The route's latency is summed along it, (0.1 + 0.2) + 0.3, one ulp
    above 0.1 + (0.2 + 0.3), as the per-pair search summed it."""
    topo = Topology()
    for a, b, lat in [("n0", "n1", 0.1), ("n1", "n2", 0.2),
                      ("n2", "n3", 0.3), ("m", "n3", 1.0)]:
        topo.add_link(a, b, mbps(100), lat)
    assert (0.1 + 0.2) + 0.3 > 0.1 + (0.2 + 0.3)
    topo.path("m", "n3")
    assert [l.dst.name for l in topo.path("n0", "n3")] == ["n1", "n2", "n3"]
    assert topo.latency("n0", "n3") == (0.1 + 0.2) + 0.3
