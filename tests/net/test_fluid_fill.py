"""``FluidNetwork._fill`` against plain progressive filling, bit for bit.

The allocator's fill keeps lean bookkeeping: set-up per path group (the
flows sharing one route list), one link per class of links crossed by
the same groups, shares given back per group, and one shared rate for
every unfrozen plain flow taken in cap order. None of that may change a
float: each rate must equal, exactly, what the straightforward
algorithm below computes — every unfrozen flow rising by the same
per-share increment until a link saturates or its cap binds. The link
classes are decoded from group bit sets, so one component shape has
more than 64 groups on one shared link.
"""

import math
import random

import pytest

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment

_EPS = 1e-9


def progressive_filling(flows):
    """Rates and link-bound flags by scanning every link and flow on
    every iteration (the allocator's original arithmetic)."""
    rates = dict.fromkeys(flows, 0.0)
    residual = {}
    for f in flows:
        for link in f.path:
            residual.setdefault(link, link.capacity)
    users = {link: set() for link in residual}
    shares = dict.fromkeys(residual, 0)
    unfrozen = set()
    for f in flows:
        if f.cap <= _EPS or any(residual[l] <= _EPS for l in f.path):
            continue
        unfrozen.add(f)
        for link in f.path:
            users[link].add(f)
            shares[link] += f._nshares
    link_bound = set()
    while unfrozen:
        delta = math.inf
        for link, on in users.items():
            if on:
                delta = min(delta, residual[link] / shares[link])
        for f in unfrozen:
            delta = min(delta, (f.cap - rates[f]) / f._nshares)
        if not math.isfinite(delta):
            break
        delta = max(delta, 0.0)
        for f in unfrozen:
            rates[f] += delta * f._nshares
        for link, on in users.items():
            if on:
                residual[link] -= delta * shares[link]
        frozen = set()
        for link, on in users.items():
            if on and residual[link] <= _EPS:
                frozen |= on
                link_bound |= on
        for f in unfrozen:
            if rates[f] >= f.cap - _EPS:
                frozen.add(f)
        if not frozen and delta <= _EPS:
            frozen = set(unfrozen)
        for f in frozen:
            unfrozen.discard(f)
            for link in f.path:
                users[link].discard(f)
                shares[link] -= f._nshares
    return rates, link_bound


def _random_component(rng, aggregate):
    """One connected group of flows over a small random topology with
    dead, infinite and duplicate-capacity links, tied and zero caps."""
    env = Environment(seed=rng.randrange(1 << 30))
    topo = Topology()
    capacities = [0.0, math.inf, mbps(30), mbps(30), mbps(100),
                  mbps(rng.uniform(5, 500)), mbps(rng.uniform(5, 500))]
    links = [topo.add_link(f"n{i}", f"n{i + 1}", rng.choice(capacities),
                           0.001) for i in range(rng.randint(2, 7))]
    net = FluidNetwork(env, topo,
                       aggregation_threshold=2 if aggregate else None)
    paths = [rng.sample(links, rng.randint(1, len(links)))
             for _ in range(rng.randint(1, 4))]
    tied = mbps(rng.uniform(1, 80))
    for i in range(rng.randint(1, 14)):
        cap = rng.choice([math.inf, 0.0, tied, mbps(rng.uniform(1, 80)),
                          mbps(rng.uniform(1, 80))])
        if aggregate and math.isinf(cap):
            cap = tied
        flow = net.transfer("n0", "n1", 1e12, cap=cap, name=f"f{i}",
                            path=rng.choice(paths))
        flow.done.defuse()
    return net


def _campaign_component(rng, aggregate):
    """The shape of a replication campaign's component: 2-7 routes of
    8-10 links that all end on one shared downlink, several parallel
    streams per route (one path group each), many links of one capacity
    (tied link classes), TCP slow-start caps (a window doubling per
    round trip, so few distinct values), and sometimes a dead shared
    link."""
    env = Environment(seed=rng.randrange(1 << 30))
    topo = Topology()
    capacity = mbps(rng.choice([100, 155, 622]))
    shared = [topo.add_link(f"d{i}", f"d{i + 1}",
                            rng.choice([capacity, capacity, mbps(45)]),
                            0.001) for i in range(rng.randint(3, 5))]
    if rng.random() < 0.2:
        rng.choice(shared).capacity = 0.0
    net = FluidNetwork(env, topo,
                       aggregation_threshold=2 if aggregate else None)
    rtt = rng.uniform(0.02, 0.08)
    windows = [8 * 1024 * 2 ** k / rtt for k in range(rng.randint(1, 7))]
    for r in range(rng.randint(2, 7)):
        own = [topo.add_link(f"r{r}.{i}", f"r{r}.{i + 1}",
                             rng.choice([capacity, capacity, mbps(622)]),
                             0.001)
               for i in range(rng.randint(8, 10) - len(shared))]
        route = own + shared
        for s in range(rng.randint(1, 8)):
            cap = rng.choice(windows + [0.0] * (not aggregate))
            flow = net.transfer("d0", "d1", 1e12, cap=cap,
                                name=f"r{r}s{s}", path=route)
            flow.done.defuse()
    return net


def _fleet_component(rng):
    """The aggregated fleet's shape: more than 64 PoPs, each with its own
    downlink route and one aggregate (members on a few window caps), all
    ending on one shared uplink. Random regional links are crossed by
    random subsets of PoPs, so class masks span more than 64 bits and
    are not runs of adjacent groups; a few PoPs also carry an uncapped
    plain flow, and a few have a dead link of their own."""
    env = Environment(seed=rng.randrange(1 << 30))
    topo = Topology()
    uplink = topo.add_link("u0", "u1", mbps(rng.choice([622, 2488])),
                           0.001)
    regions = [topo.add_link(f"g{i}", f"g{i}.", mbps(rng.choice([155, 622])),
                             0.001) for i in range(rng.randint(2, 5))]
    net = FluidNetwork(env, topo, aggregation_threshold=1)
    windows = [mbps(rng.uniform(0.5, 8)) for _ in range(3)]
    for p in range(rng.randint(65, 100)):
        own = [topo.add_link(f"p{p}.{i}", f"p{p}.{i + 1}",
                             rng.choice([mbps(45), mbps(100), mbps(100)]),
                             0.001) for i in range(rng.randint(1, 3))]
        if rng.random() < 0.05:
            own[0].capacity = 0.0
        route = own + [g for g in regions if rng.random() < 0.4] + [uplink]
        for u in range(rng.randint(1, 6)):
            member = net.transfer("u0", "u1", 1e9, cap=rng.choice(windows),
                                  name=f"p{p}u{u}", path=route)
            member.done.defuse()
        if rng.random() < 0.2:
            flow = net.transfer("u0", "u1", 1e9, name=f"p{p}x", path=route)
            flow.done.defuse()
    assert len(net._aggregates) > 64
    return net


def _assert_fill_matches(net):
    flows = list(net._flow_map.values())
    want, bound = progressive_filling(flows)
    net._fill(list(net._groups.values()), net.env.now)
    for f in flows:
        assert f.rate == want[f], f"{f.name}: {f.rate!r} != {want[f]!r}"
        assert f._link_bound == (f in bound), f.name


@pytest.mark.parametrize("aggregate", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_fill_matches_progressive_filling_bit_for_bit(seed, aggregate):
    _assert_fill_matches(_random_component(random.Random(seed), aggregate))


@pytest.mark.parametrize("aggregate", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_campaign_shaped_fill_matches_bit_for_bit(seed, aggregate):
    _assert_fill_matches(
        _campaign_component(random.Random(seed), aggregate))


@pytest.mark.parametrize("seed", range(12))
def test_fleet_shaped_fill_matches_bit_for_bit(seed):
    _assert_fill_matches(_fleet_component(random.Random(seed)))


def test_uncapped_flow_keeps_the_level_reached_before_the_fill_stops():
    """A capped and an uncapped flow on an infinite-capacity link: the
    fill raises both to the cap, freezes the capped one, then stops on a
    non-finite increment. The uncapped flow keeps the rate reached."""
    env = Environment()
    topo = Topology()
    topo.add_link("a", "b", math.inf, 0.001)
    net = FluidNetwork(env, topo)
    capped = net.transfer("a", "b", 1e12, cap=mbps(10))
    free = net.transfer("a", "b", 1e12)
    env.run(until=1.0)
    assert capped.rate == free.rate == mbps(10)
