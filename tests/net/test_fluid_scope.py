"""The recompute scope of the incremental fluid allocator.

``FluidNetwork._scope`` returns the connected closure of the dirty flows
and of every flow on a dirty link, one list of path groups (the flows
sharing one route list) per connected component. These tests check that
partition, expanded to flows, against a brute-force union-find over the
whole network, and bound the work: each link's group set is expanded at
most once per flush, so a link carrying k groups costs O(k), not O(k²).
"""

import math
import random

import pytest

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment


def _brute_force_scope(net, dirty_flows, dirty_links):
    """Union-find over every active flow: the components touched by the
    active dirty flows and by the flows on the dirty links, each as a
    sorted list of flow ids, in sorted order."""
    parent = {f: f for f in net._flow_map.values()}

    def find(f):
        while parent[f] is not f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    first_on_link = {}
    for f in net._flow_map.values():
        for link in f.path:
            g = first_on_link.setdefault(link, f)
            parent[find(f)] = find(g)
    seeds = [f for f in dirty_flows if f.active]
    for link in dirty_links:
        seeds.extend(f for f in net._flow_map.values() if link in f.path)
    components = {find(f): [] for f in seeds}
    for f in net._flow_map.values():
        if find(f) in components:
            components[find(f)].append(f.id)
    return sorted(sorted(ids) for ids in components.values())


@pytest.mark.parametrize("seed", range(12))
def test_scope_equals_union_find_components(seed):
    rng = random.Random(seed)
    env = Environment(seed=seed)
    topo = Topology()
    links = [topo.add_link(f"n{i}", f"n{i + 1}", mbps(100), 0.001)
             for i in range(40)]
    net = FluidNetwork(env, topo)
    flows = []
    for i in range(rng.randint(20, 80)):
        path = rng.sample(links, rng.randint(1, 3))
        flow = net.transfer("n0", "n1", 1e12, cap=mbps(rng.uniform(1, 50)),
                            name=f"f{i}", path=path)
        flow.done.defuse()
        flows.append(flow)
    env.run(until=1.0)
    for flow in rng.sample(flows, 5):
        flow.abort("gone")
    env.run(until=2.0)

    for _ in range(10):
        dirty_flows = set(rng.sample(flows, rng.randint(0, 4)))
        # Links with and without flows, most of them carrying no
        # dirty flow.
        dirty_links = set(rng.sample(links, rng.randint(0, 4)))
        net._dirty_flows = set(dirty_flows)
        net._dirty_links = set(dirty_links)
        got = net._scope(env.now)
        want = _brute_force_scope(net, dirty_flows, dirty_links)
        assert sorted(sorted(f.id for g in comp for f in g.flows.values())
                      for comp in got) == want


class _CountingSet(set):
    """A link's group set that counts full iterations over it."""

    def __init__(self, items=()):
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_flush_expands_each_link_once():
    """One set_cap on a 500-flow uplink star (50 path groups, one per
    leaf route): every link's groups are iterated at most once, so the
    closure is linear, not quadratic.

    The new cap (1 Mb/s) is below the flow's 2 Mb/s fair share, so it
    must move rates; a cap at or above that share would be skipped as
    unable to move any rate."""
    env = Environment()
    topo = Topology()
    topo.duplex_link("server", "hub", mbps(1000), 0.001, name="uplink")
    for leaf in range(50):
        topo.duplex_link("hub", f"leaf{leaf}", mbps(100), 0.002)
    net = FluidNetwork(env, topo)
    flows = []
    for i in range(500):
        flow = net.transfer("server", f"leaf{i % 50}", 1e15,
                            cap=(math.inf if i % 3 else mbps(1 + i % 7)))
        flow.done.defuse()
        flows.append(flow)
    env.run(until=1.0)
    assert len(net._groups) == 50
    for link in topo.links.values():
        link._groups = _CountingSet(link._groups)
    before = net.flows_recomputed
    flows[7].set_cap(mbps(1))
    env.run(until=2.0)
    assert net.flows_recomputed - before == 500
    iterations = {name: link._groups.iterations
                  for name, link in topo.links.items()}
    assert iterations["uplink:fwd"] == 1
    assert max(iterations.values()) <= 1


def _assert_group_index(net, links):
    """Each active flow is in exactly one group (its own ``_group``),
    under its own route list; no group is empty; each group is on
    exactly the links of its route."""
    groups = list(net._groups.values())
    for key, g in net._groups.items():
        assert key == id(g.path)
        assert g.flows, "empty group"
        for fid, f in g.flows.items():
            assert fid == f.id and f.active and f._group is g
            assert f.path is g.path
    members = [f for g in groups for f in g.flows.values()]
    assert len(members) == len(set(members))
    assert set(members) == set(net._flow_map.values())
    for link in links:
        assert link._groups == {g for g in groups if link in g.path}


def _assert_done_iff_finished(handles):
    """``active`` reads ``finished_at`` alone: every path that triggers
    a flow's ``done`` sets ``finished_at`` first."""
    for h in handles:
        assert h.done.triggered == (h.finished_at is not None)


@pytest.mark.parametrize("aggregate", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_group_index_holds_through_random_scripts(seed, aggregate):
    """Random starts, cap changes, aborts, completions and (with a
    threshold) aggregates keep the path-group index exact."""
    rng = random.Random(seed)
    env = Environment(seed=seed)
    topo = Topology()
    links = [topo.add_link(f"n{i}", f"n{i + 1}", mbps(100), 0.001)
             for i in range(10)]
    net = FluidNetwork(env, topo,
                       aggregation_threshold=2 if aggregate else None)
    routes = [rng.sample(links, rng.randint(1, 5)) for _ in range(6)]
    routes.append(topo.path("n0", "n10"))
    handles = []
    for step in range(60):
        action = rng.random()
        live = [h for h in handles if h.active]
        if action < 0.45 or not live:
            h = net.transfer("n0", "n10", rng.uniform(1e5, 5e6),
                             cap=rng.choice([mbps(5), mbps(20), math.inf]),
                             path=rng.choice(routes))
            h.done.defuse()
            handles.append(h)
        elif action < 0.7:
            rng.choice(live).set_cap(rng.choice([0.0, mbps(1), mbps(40)]))
        elif action < 0.85:
            rng.choice(live).abort("gone")
        _assert_group_index(net, links)
        _assert_done_iff_finished(handles)
        env.run(until=env.now + rng.choice([0.0, 0.05, 0.5]))
        _assert_group_index(net, links)
        _assert_done_iff_finished(handles)
    for h in handles:
        h.set_cap(mbps(40))  # a zero cap would hold its flow forever
    env.run(until=env.now + 1e4)
    _assert_group_index(net, links)
    _assert_done_iff_finished(handles)
    assert net._groups == {}
    assert all(not link._groups for link in links)
