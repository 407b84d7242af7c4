"""Differential and hygiene tests for the incremental fluid allocator.

The incremental allocator (component-scoped recompute, same-instant
coalescing, completion heap) must be *observationally equivalent* to the
``ReferenceFluidNetwork`` full-recompute oracle: identical rates (to
1e-6), identical completion times, identical snapshots. These tests
replay randomized workload scripts against both allocators and compare,
assert the max-min optimality certificate on the incremental results,
and pin down the event-queue hygiene properties (no superseded-timer
pile-up).
"""

import math

import numpy as np
import pytest

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment
from tests.net.reference_fluid import ReferenceFluidNetwork

SEEDS = [3, 17, 29, 101, 4242, 90210]

# (flushes, flows_recomputed) of the full-recompute allocator replaying
# each seed's script to its horizon, recorded when it was still
# ``FluidNetwork(mode="reference")`` inside the library.
_REFERENCE_COUNTERS = {3: (162, 242), 17: (154, 283), 29: (151, 268),
                       101: (145, 224), 4242: (142, 243),
                       90210: (135, 136)}


def clustered_topology():
    """8 disjoint star clusters plus one shared two-cluster backbone —
    plenty of independent components, and one that actually couples."""
    topo = Topology()
    for c in range(8):
        for h in range(3):
            topo.duplex_link(f"c{c}h{h}", f"c{c}core", mbps(200 + 50 * c),
                             0.001)
    topo.duplex_link("c0core", "c1core", mbps(120), 0.005, name="backbone")
    return topo


def script_workload(seed, n_actions=120, horizon=120.0):
    """A deterministic action trace both allocators replay identically."""
    rng = np.random.default_rng(seed)
    actions = []
    t = 0.0
    for i in range(n_actions):
        t += float(rng.exponential(horizon / n_actions))
        kind = rng.choice(["start", "start", "start", "cap", "abort",
                           "link"])
        cluster = int(rng.integers(8))
        if kind == "start":
            a, b = rng.choice(3, size=2, replace=False)
            actions.append((t, "start", {
                "src": f"c{cluster}h{a}", "dst": f"c{cluster}h{b}",
                "size": float(rng.uniform(1, 40)) * 1e6,
                "cap": (math.inf if rng.random() < 0.4
                        else mbps(float(rng.uniform(5, 150)))),
                "name": f"w{i}",
            }))
        elif kind == "cap":
            actions.append((t, "cap", {
                "target": int(rng.integers(max(i, 1))),
                "cap": mbps(float(rng.uniform(5, 200))),
            }))
        elif kind == "abort":
            actions.append((t, "abort",
                            {"target": int(rng.integers(max(i, 1)))}))
        else:
            name = rng.choice([f"c{cluster}h0<->c{cluster}core:fwd",
                               "backbone:fwd"])
            actions.append((t, "link",
                            {"link": str(name),
                             "frac": float(rng.uniform(0.2, 1.0))}))
    return actions


def replay(network_cls, seed, actions):
    """Run one scripted workload; returns (net, flows-by-name)."""
    env = Environment(seed=seed)
    topo = clustered_topology()
    net = network_cls(env, topo)
    flows = {}
    order = []

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
                order.append(arg["name"])
            elif kind == "cap" and order:
                flows[order[arg["target"] % len(order)]].set_cap(arg["cap"])
            elif kind == "abort" and order:
                flow = flows[order[arg["target"] % len(order)]]
                if flow.active:
                    flow.abort("chaos")
            elif kind == "link":
                link = topo.links[arg["link"]]
                link.capacity = link.nominal_capacity * arg["frac"]
                net.link_updated(link)

    env.process(driver(env))
    return env, net, flows


def assert_max_min(net, topo):
    """Feasibility + the max-min optimality certificate."""
    flows = list(net._flow_map.values())
    for link in topo.links.values():
        used = sum(f.rate for f in net.flows_on(link))
        assert used <= link.capacity * (1 + 1e-6) + 1e-9
    for f in flows:
        assert f.rate <= f.cap * (1 + 1e-9)
        if f.rate >= f.cap * (1 - 1e-6):
            continue  # cap-limited
        blocked = False
        for link in f.path:
            used = sum(g.rate for g in net.flows_on(link))
            if used >= link.capacity * (1 - 1e-6):
                biggest = max(g.rate for g in net.flows_on(link))
                if f.rate >= biggest * (1 - 1e-6):
                    blocked = True
                    break
        assert blocked, (f"flow {f.name} at {f.rate:.0f} B/s has headroom "
                         f"everywhere on its path")


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_incremental_vs_reference(seed):
    """Both allocators replay the same script and agree at every checkpoint."""
    actions = script_workload(seed)
    env_i, net_i, flows_i = replay(FluidNetwork, seed, actions)
    env_r, net_r, flows_r = replay(ReferenceFluidNetwork, seed, actions)
    horizon = max(t for t, _k, _a in actions) + 60.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        t = horizon * frac
        env_i.run(until=t)
        env_r.run(until=t)
        assert flows_i.keys() == flows_r.keys()
        for name, fi in flows_i.items():
            fr = flows_r[name]
            assert fi.rate == pytest.approx(fr.rate, rel=1e-6, abs=1e-3), \
                f"{name} rate diverged at t={t}"
            assert fi.remaining == pytest.approx(fr.remaining, rel=1e-6,
                                                 abs=1.0), \
                f"{name} remaining diverged at t={t}"
            assert (fi.finished_at is None) == (fr.finished_at is None)
            if fi.finished_at is not None:
                assert fi.finished_at == pytest.approx(fr.finished_at,
                                                       rel=1e-9, abs=1e-6)
    # The incremental allocator did dramatically less filling work.
    assert net_i.reallocations <= net_r.reallocations


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_oracle_reproduces_library_counters(seed):
    """The oracle must still refill the *whole* network on every flush.

    Rates alone cannot tell: an oracle that recomputes only the dirty
    components (say, one missing the ``_scope`` override) matches every
    differential above with the same flush count, but recomputes fewer
    flows than the full-recompute allocator it stands in for.
    """
    actions = script_workload(seed)
    env, net, _ = replay(ReferenceFluidNetwork, seed, actions)
    env.run(until=max(t for t, _k, _a in actions) + 60.0)
    assert (net.flushes, net.flows_recomputed) == _REFERENCE_COUNTERS[seed]


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_differential_snapshot_and_bottlenecks_agree(seed):
    actions = script_workload(seed, n_actions=60, horizon=60.0)
    env_i, net_i, _ = replay(FluidNetwork, seed, actions)
    env_r, net_r, _ = replay(ReferenceFluidNetwork, seed, actions)
    for t in (20.0, 45.0):
        env_i.run(until=t)
        env_r.run(until=t)
        links_i, links_r = _carried(net_i), _carried(net_r)
        assert links_i.keys() == links_r.keys()
        for name, (used_i, cap_i, n_i) in links_i.items():
            used_r, cap_r, n_r = links_r[name]
            assert n_i == n_r
            assert cap_i == cap_r
            assert used_i == pytest.approx(used_r, rel=1e-6, abs=1e-3)
        assert _bottlenecks(links_i) == _bottlenecks(links_r)


def _carried(net):
    """Link name -> (carried bytes/s, capacity, flows) for every link
    that carries traffic, after the pending flush."""
    out = {}
    for link in net.topology.links.values():
        flows = net.flows_on(link)
        if flows:
            out[link.name] = (sum(f.rate for f in flows), link.capacity,
                              len(flows))
    return out


def _bottlenecks(links, threshold=0.98):
    return sorted(name for name, (used, cap, _n) in links.items()
                  if cap > 0 and used >= threshold * cap)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_incremental_allocation_is_max_min(seed):
    """Property: mid-run incremental allocations satisfy the max-min
    certificate on seeded random workloads."""
    actions = script_workload(seed, n_actions=80, horizon=80.0)
    env, net, _ = replay(FluidNetwork, seed, actions)
    topo = net.topology
    for t in (15.0, 40.0, 70.0):
        env.run(until=t)
        net._flush_now()  # run the pending flush before inspecting rates
        assert_max_min(net, topo)


def test_disjoint_components_do_not_pay_for_each_other():
    """A cap change in one cluster recomputes only that component."""
    env = Environment()
    topo = clustered_topology()
    net = FluidNetwork(env, topo)
    flows = []
    for c in range(8):
        for i in range(4):
            f = net.transfer(f"c{c}h{i % 3}", f"c{c}core", 1e15,
                             cap=mbps(10 + i))
            f.done.defuse()
            flows.append(f)
    env.run(until=1.0)
    before = net.flows_recomputed
    flows[0].set_cap(mbps(55))   # cluster 0 only
    env.run(until=2.0)
    recomputed = net.flows_recomputed - before
    # Cluster 0+1 share the backbone: at most those two clusters' flows
    # (8) are touched, never all 32.
    assert 0 < recomputed <= 8


def test_same_instant_cap_changes_coalesce():
    """N same-instant set_cap calls collapse into one filling pass."""
    env = Environment()
    topo = Topology()
    topo.duplex_link("A", "B", mbps(1000), 0.001)
    net = FluidNetwork(env, topo)
    flows = [net.transfer("A", "B", 1e15, cap=mbps(10)) for _ in range(32)]
    for f in flows:
        f.done.defuse()
    env.run(until=1.0)
    before = net.reallocations

    def burst(env):
        yield env.timeout(0.5)
        for i, f in enumerate(flows):   # 32 calls at one instant
            f.set_cap(mbps(12 + i))

    env.process(burst(env))
    env.run(until=2.0)
    assert net.reallocations - before == 1
    assert sum(f.rate for f in flows) == pytest.approx(
        sum(mbps(12 + i) for i in range(32)))


def test_event_queue_stays_bounded_under_cap_churn():
    """The original allocator heap-pushed a fresh completion timer on
    every reallocation; superseded timers piled up for long runs. With
    cancellation + skip-if-unchanged the queue stays O(active work)."""
    env = Environment()
    topo = Topology()
    topo.duplex_link("A", "B", mbps(100), 0.001)
    net = FluidNetwork(env, topo)
    flow = net.transfer("A", "B", 1e15)
    flow.done.defuse()

    def churner(env):
        k = 0
        while True:
            yield env.timeout(0.0146)
            k += 1
            # Bounce the cap so the predicted completion instant moves
            # every step — the worst case for timer rescheduling.
            flow.set_cap(mbps(40 + (k % 13) * 5))

    env.process(churner(env))
    peak = 0
    for step in range(1, 201):
        env.run(until=step * 1.0)
        peak = max(peak, env.queue_depth())
    assert net.reallocations > 10_000
    # The kernel compacts once cancelled entries outnumber live ones
    # past its 64-entry watermark, so the peak sits just above it. The
    # old allocator left every superseded timer in the heap: this same
    # run used to peak above 10,000 entries.
    assert peak < 150, f"event queue grew to {peak} entries"


def test_completion_heap_stays_bounded_under_cap_churn():
    """Every fill pushes one predicted completion per flow, and stale
    ones only leave from the top of the heap: long-lived flows under
    cap churn would grow it without bound. It is compacted once it
    exceeds 4 entries per active flow plus 256."""
    env = Environment()
    topo = Topology()
    topo.duplex_link("A", "B", mbps(1000), 0.001)
    net = FluidNetwork(env, topo)
    flows = [net.transfer("A", "B", 1e15, cap=mbps(10 + i))
             for i in range(16)]
    for f in flows:
        f.done.defuse()

    def churner(env, flow, lo):
        k = 0
        while True:
            yield env.timeout(0.0146)
            k += 1
            flow.set_cap(mbps(lo + (k % 2) * 40))

    for i, f in enumerate(flows):
        env.process(churner(env, f, 10 + i))
    peak = 0
    for step in range(1, 41):
        env.run(until=step * 0.5)
        peak = max(peak, len(net._completion_heap))
    assert net.flows_recomputed > 20_000
    assert peak <= 4 * len(flows) + 256, f"heap grew to {peak} entries"
    assert [f.rate for f in flows] == pytest.approx([f.cap for f in flows])


def test_steady_state_reschedules_nothing():
    """Recomputes that do not move the next completion instant must not
    create new simulator timers (hygiene for modulator/idle ticks)."""
    env = Environment()
    topo = Topology()
    topo.duplex_link("A", "B", mbps(100), 0.001)
    topo.duplex_link("C", "D", mbps(100), 0.001)
    net = FluidNetwork(env, topo)
    short = net.transfer("A", "B", mbps(100) * 5)     # completes at 5 s
    slow = net.transfer("C", "D", 1e15, cap=mbps(1))  # far-future
    short.done.defuse()
    slow.done.defuse()
    env.run(until=1.0)
    before = net.timer_reschedules
    # Churn the slow component; the earliest completion (short, t=5)
    # never moves, so no timer may be created.
    def churner(env):
        for k in range(50):
            yield env.timeout(0.05)
            slow.set_cap(mbps(1 + 0.01 * (k % 3)))

    env.process(churner(env))
    env.run(until=4.0)
    assert net.timer_reschedules == before


def test_idle_link_update_is_free():
    """Capacity changes on links carrying no flows skip the allocator."""
    env = Environment()
    topo = Topology()
    topo.duplex_link("A", "B", mbps(100), 0.001)
    topo.duplex_link("C", "D", mbps(100), 0.001)
    net = FluidNetwork(env, topo)
    flow = net.transfer("A", "B", 1e12)
    flow.done.defuse()
    env.run(until=1.0)
    before = net.reallocations
    idle = topo.links["C<->D:fwd"]
    for frac in (0.5, 0.7, 0.9):
        idle.capacity = idle.nominal_capacity * frac
        net.link_updated(idle)
    env.run(until=2.0)
    assert net.reallocations == before


def test_abort_vs_completion_knife_edge():
    """Aborting at the exact completion instant must not crash (the old
    implementation could double-trigger the done event)."""
    env = Environment()
    topo = Topology()
    topo.duplex_link("A", "B", mbps(100), 0.001)
    net = FluidNetwork(env, topo)
    flow = net.transfer("A", "B", mbps(100) * 5.0)  # completes at t=5

    def aborter(env):
        yield env.timeout(5.0)
        if flow.active:
            flow.abort("tie")

    env.process(aborter(env))
    flow.done.defuse()
    env.run()
    assert flow.finished_at == pytest.approx(5.0)
