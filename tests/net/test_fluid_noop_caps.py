"""Cap changes that cannot move a rate schedule nothing.

``FluidNetwork.set_cap`` skips the recompute when the cap is unchanged,
or when the flow froze on a saturated link in its last fill and the new
cap is still >= its rate: the current rates are then still the max-min
allocation. These tests check that every skip is safe — a forced full
``reallocate()`` right after it moves no rate — that the skip really
happens, that a flow whose rate no link bounds (an infinite-capacity
path) is never skipped, and that the incremental allocator still agrees
with the full-recompute oracle on scripts rich in no-op caps.
"""

import math
import random

import numpy as np
import pytest

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment
from tests.net.reference_fluid import ReferenceFluidNetwork
from tests.net.test_fluid_incremental import clustered_topology


def _random_network(seed):
    """Flows over random 1–3 link paths of shared bottlenecks: plenty of
    link-bound flows, plus cap-bound and uncapped ones."""
    rng = random.Random(seed)
    env = Environment(seed=seed)
    topo = Topology()
    links = [topo.add_link(f"n{i}", f"n{i + 1}",
                           mbps(rng.choice([20, 50, 100, 400])), 0.001)
             for i in range(12)]
    net = FluidNetwork(env, topo)
    flows = []
    for i in range(rng.randint(15, 40)):
        cap = (math.inf if rng.random() < 0.4
               else mbps(rng.uniform(1, 60)))
        flow = net.transfer("n0", "n1", 1e15, cap=cap, name=f"f{i}",
                            path=rng.sample(links, rng.randint(1, 3)))
        flow.done.defuse()
        flows.append(flow)
    env.run(until=1.0)
    return rng, net, flows


def _new_cap(rng, flow):
    """A cap change of one of four kinds, and whether it must be a
    no-op: the same cap; a link-bound flow's cap raised, or lowered but
    kept >= its rate; or a change on a cap-bound flow."""
    kind = rng.choice(["same", "raise", "lower", "other"])
    if kind == "same":
        return flow.cap, True
    if flow._link_bound and kind == "raise":
        return rng.choice([math.inf, flow.rate * rng.uniform(1.0, 4.0)]), True
    if flow._link_bound and kind == "lower":
        return flow.rate * rng.uniform(1.0, 1.2), True
    return mbps(rng.uniform(0.5, 120)), False


@pytest.mark.parametrize("seed", range(8))
def test_skipped_cap_changes_leave_max_min_rates(seed):
    rng, net, flows = _random_network(seed)
    skipped = 0
    for _ in range(150):
        flow = rng.choice(flows)
        cap, noop = _new_cap(rng, flow)
        flushes = net.flushes
        flow.set_cap(cap)
        net._flush_now()  # runs the flush the change scheduled, if any
        if noop:
            assert net.flushes == flushes, "a no-op cap scheduled a flush"
            skipped += 1
        rates = [f.rate for f in flows]
        net.reallocate()
        for f, rate in zip(flows, rates):
            assert f.rate == pytest.approx(rate, rel=1e-9, abs=1e-6), \
                f"{f.name} moved after a forced reallocate"
    assert skipped > 0


def test_flow_on_infinite_capacity_link_is_never_skipped():
    """An uncapped flow on an unconstrained path stops the fill on a
    non-finite increment, so its rate (0) is below its cap without any
    link holding it there: a finite cap must still be applied."""
    env = Environment()
    topo = Topology()
    topo.add_link("a", "b", math.inf, 0.001)
    net = FluidNetwork(env, topo)
    flow = net.transfer("a", "b", 1e15)
    flow.done.defuse()
    env.run(until=1.0)
    assert not flow._link_bound
    flow.set_cap(mbps(10))
    env.run(until=2.0)
    assert flow.rate == mbps(10)
    flow.set_cap(mbps(30))  # a raise above its rate: still applied
    env.run(until=3.0)
    assert flow.rate == mbps(30)


def test_finite_link_behind_infinite_one_still_skips():
    """A flow whose path also crosses a finite, saturated link is link
    bound: raising its cap moves nothing and schedules nothing."""
    env = Environment()
    topo = Topology()
    fast = topo.add_link("a", "b", math.inf, 0.001)
    slow = topo.add_link("b", "c", mbps(100), 0.001)
    net = FluidNetwork(env, topo)
    flows = [net.transfer("a", "c", 1e15, path=[fast, slow])
             for _ in range(4)]
    for f in flows:
        f.done.defuse()
    env.run(until=1.0)
    assert all(f._link_bound for f in flows)
    flushes = net.flushes
    flows[0].set_cap(mbps(40))
    env.run(until=2.0)
    assert net.flushes == flushes
    assert [f.rate for f in flows] == [mbps(25)] * 4


def noop_rich_script(seed, n_actions=150, horizon=120.0):
    """Like the incremental differential's scripts, but most cap actions
    cannot move a rate: re-issuing the current cap, or raising it."""
    rng = np.random.default_rng(seed)
    actions = []
    t = 0.0
    for i in range(n_actions):
        t += float(rng.exponential(horizon / n_actions))
        kind = rng.choice(["start", "start", "same", "same", "raise",
                           "cap", "abort", "link"])
        cluster = int(rng.integers(8))
        target = int(rng.integers(max(i, 1)))
        if kind == "start":
            a, b = rng.choice(3, size=2, replace=False)
            actions.append((t, "start", {
                "src": f"c{cluster}h{a}", "dst": f"c{cluster}h{b}",
                "size": float(rng.uniform(1, 40)) * 1e6,
                "cap": (math.inf if rng.random() < 0.4
                        else mbps(float(rng.uniform(5, 150)))),
                "name": f"w{i}",
            }))
        elif kind == "same":
            actions.append((t, "scale", {"target": target, "factor": 1.0}))
        elif kind == "raise":
            actions.append((t, "scale", {
                "target": target, "factor": float(rng.uniform(1.0, 3.0))}))
        elif kind == "cap":
            actions.append((t, "cap", {
                "target": target,
                "cap": mbps(float(rng.uniform(5, 200)))}))
        elif kind == "abort":
            actions.append((t, "abort", {"target": target}))
        else:
            actions.append((t, "link", {
                "link": str(rng.choice([f"c{cluster}h0<->c{cluster}core:fwd",
                                        "backbone:fwd"])),
                "frac": float(rng.uniform(0.2, 1.0))}))
    return actions


def replay(network_cls, seed, actions):
    """Run one script; ``scale`` multiplies the target's current cap."""
    env = Environment(seed=seed)
    topo = clustered_topology()
    net = network_cls(env, topo)
    flows = {}

    def driver(env):
        last = 0.0
        for t, kind, arg in actions:
            if t > last:
                yield env.timeout(t - last)
            last = t
            if kind == "start":
                flow = net.transfer(arg["src"], arg["dst"], arg["size"],
                                    cap=arg["cap"], name=arg["name"])
                flow.done.defuse()
                flows[arg["name"]] = flow
            elif kind == "link":
                link = topo.links[arg["link"]]
                link.capacity = link.nominal_capacity * arg["frac"]
                net.link_updated(link)
            elif flows:
                flow = list(flows.values())[arg["target"] % len(flows)]
                if kind == "scale":
                    flow.set_cap(flow.cap * arg["factor"])
                elif kind == "cap":
                    flow.set_cap(arg["cap"])
                elif flow.active:
                    flow.abort("chaos")

    env.process(driver(env))
    return env, net, flows


@pytest.mark.parametrize("seed", [5, 23, 77, 1234])
def test_differential_vs_reference_on_noop_rich_scripts(seed):
    actions = noop_rich_script(seed)
    env_i, net_i, flows_i = replay(FluidNetwork, seed, actions)
    env_r, net_r, flows_r = replay(ReferenceFluidNetwork, seed, actions)
    horizon = max(t for t, _k, _a in actions) + 60.0
    for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
        t = horizon * frac
        env_i.run(until=t)
        env_r.run(until=t)
        assert flows_i.keys() == flows_r.keys()
        for name, fi in flows_i.items():
            fr = flows_r[name]
            assert fi.cap == fr.cap
            assert fi.rate == pytest.approx(fr.rate, rel=1e-6, abs=1e-3), \
                f"{name} rate diverged at t={t}"
            assert fi.remaining == pytest.approx(fr.remaining, rel=1e-6,
                                                 abs=1.0), \
                f"{name} remaining diverged at t={t}"
            assert (fi.finished_at is None) == (fr.finished_at is None)
            if fi.finished_at is not None:
                assert fi.finished_at == pytest.approx(fr.finished_at,
                                                       rel=1e-9, abs=1e-6)
    # The oracle refilled on every cap action; the incremental
    # allocator skipped the ones that could not move a rate.
    assert net_i.flushes < net_r.flushes
