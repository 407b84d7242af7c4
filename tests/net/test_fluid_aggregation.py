"""Flow aggregation: many same-path transfers as one fluid class.

Covers activation (threshold, eligibility), the statistical demux
(per-member byte progress and completion instants), weighted max-min
fairness against exact flows, mid-flight cap changes, aborts, and the
differential contract: for members with equal caps the aggregate model
reproduces the exact per-flow model to float precision.
"""

import heapq
import math

import pytest

from repro.net.fluid import AggregateFlow, FlowError, FluidNetwork
from repro.net.recorder import RateRecorder
from repro.net.topology import Topology
from repro.sim.core import Environment

MB = 1e6  # bytes; keep rate arithmetic in round decimal numbers


def make_net(threshold, capacity=10 * MB):
    env = Environment(seed=1)
    topo = Topology()
    topo.duplex_link("a", "b", capacity, 0.001)
    net = FluidNetwork(env, topo, aggregation_threshold=threshold)
    return env, net


def test_threshold_gates_activation():
    env, net = make_net(threshold=3)
    f1 = net.transfer("a", "b", 100 * MB, cap=2 * MB)
    f2 = net.transfer("a", "b", 100 * MB, cap=2 * MB)
    assert net.aggregates_created == 0      # below threshold: exact
    m3 = net.transfer("a", "b", 100 * MB, cap=2 * MB)
    assert net.aggregates_created == 1      # third same-path flow joins
    assert net.aggregate_joins == 1
    m4 = net.transfer("a", "b", 100 * MB, cap=2 * MB)
    assert net.aggregates_created == 1      # same aggregate, new member
    assert net.aggregate_joins == 2
    for f in (f1, f2, m3, m4):
        f.done.defuse()
        assert f.active


def test_ineligible_transfers_stay_exact():
    env, net = make_net(threshold=1)
    # Zero-byte: completes instantly, never aggregated.
    z = net.transfer("a", "b", 0.0)
    assert not z.active
    # Recorded flows carry a per-flow rate series: exact path only.
    r = net.transfer("a", "b", MB, cap=MB, recorder=RateRecorder("r"))
    r.done.defuse()
    # Cap-less flows have no demux weight: exact path only.
    u = net.transfer("a", "b", MB)
    u.done.defuse()
    assert net.aggregates_created == 0
    # An eligible transfer on the same path still aggregates.
    m = net.transfer("a", "b", MB, cap=MB)
    m.done.defuse()
    assert net.aggregates_created == 1


def test_homogeneous_members_match_exact_model_exactly():
    """Equal-cap members: the statistical demux is not approximate."""
    done_agg, done_exact = {}, {}
    for threshold, out in ((1, done_agg), (None, done_exact)):
        env, net = make_net(threshold)
        for i in range(8):
            f = net.transfer("a", "b", 10 * MB, cap=2 * MB, name=f"u{i}")
            f.done.add_callback(
                lambda ev, i=i, env=env: out.setdefault(i, env.now))
        env.run()
    assert done_agg == done_exact
    # 8 flows x 2 MB/s caps over a 10 MB/s link -> 1.25 MB/s each.
    assert all(abs(t - 8.0) < 1e-9 for t in done_agg.values())


def test_heterogeneous_member_completions_follow_weights():
    """Members drain in proportion to their caps; completions land at
    the aggregate's virtual-time thresholds (the documented statistical
    approximation)."""
    env, net = make_net(threshold=1)
    finished = {}
    for name, cap in (("m2a", 2 * MB), ("m2b", 2 * MB), ("m6", 6 * MB)):
        f = net.transfer("a", "b", 10 * MB, cap=cap, name=name)
        f.done.add_callback(
            lambda ev, name=name, env=env: finished.setdefault(name, env.now))
    env.run()
    # W = 10 MB/s fills the link: member rates equal their caps, so m6
    # finishes at 10/6 s; its weight then redistributes and the two
    # 2 MB/s members (cap-bound again at W = 4) finish together at 5 s.
    assert abs(finished["m6"] - 10 / 6) < 1e-9
    assert abs(finished["m2a"] - 5.0) < 1e-9
    assert finished["m2a"] == finished["m2b"]


def test_member_views_and_progress():
    env, net = make_net(threshold=1)
    m = net.transfer("a", "b", 10 * MB, cap=4 * MB, name="m")
    m.done.defuse()
    env.run(until=1.0)
    assert m.active
    assert abs(m.rate - 4 * MB) < 1e-6
    assert abs(m.progress() - 4 * MB) < 1e-6
    assert abs(m.transferred - 4 * MB) < 1e-6
    assert abs(m.remaining - 6 * MB) < 1e-6
    env.run(until=2.5)
    assert not m.active
    assert m.remaining == 0.0
    assert abs(m.finished_at - 2.5) < 1e-9


def test_member_set_cap_reweights_mid_flight():
    env, net = make_net(threshold=1)
    m1 = net.transfer("a", "b", 10 * MB, cap=4 * MB, name="m1")
    m2 = net.transfer("a", "b", 10 * MB, cap=4 * MB, name="m2")
    m1.done.defuse(), m2.done.defuse()
    env.run(until=1.0)      # 4 MB each delivered
    m1.set_cap(1 * MB)
    env.run(until=2.0)      # m1 +1 MB, m2 +4 MB
    assert abs(m1.transferred - 5 * MB) < 1e-6
    assert abs(m2.transferred - 8 * MB) < 1e-6
    env.run()
    assert abs(m2.finished_at - 2.5) < 1e-9
    # m1 held 5.5 MB when m2 finished; the tail drains at its 1 MB/s cap.
    assert abs(m1.finished_at - 7.0) < 1e-9


def test_member_abort_fails_only_that_member():
    env, net = make_net(threshold=1)
    m1 = net.transfer("a", "b", 10 * MB, cap=5 * MB, name="m1")
    m2 = net.transfer("a", "b", 10 * MB, cap=5 * MB, name="m2")
    failures = []
    m1.done.add_callback(
        lambda ev: failures.append(ev.exception) if not ev.ok else None)
    m1.done.defuse()
    m2.done.defuse()
    env.run(until=1.0)
    m1.abort("user hit ^C")
    assert not m1.active
    assert abs(m1.transferred - 5 * MB) < 1e-6  # bytes settled at abort
    env.run()
    assert len(failures) == 1 and isinstance(failures[0], FlowError)
    # The survivor inherits the whole link (still cap-bound at 5 MB/s).
    assert abs(m2.finished_at - 2.0) < 1e-9


def test_network_abort_of_aggregate_fails_every_member():
    env, net = make_net(threshold=1)
    members = [net.transfer("a", "b", 10 * MB, cap=2 * MB, name=f"u{i}")
               for i in range(4)]
    outcomes = []
    for m in members:
        m.done.add_callback(lambda ev: outcomes.append(not ev.ok))
        m.done.defuse()
    agg = next(iter(net._aggregates.values()))
    agg.done.defuse()
    env.run(until=0.5)
    net.abort(agg, "path lost")
    env.run()
    assert outcomes == [True] * 4
    assert not net._aggregates


def test_aggregate_shares_link_by_member_count():
    """Weighted max-min: an aggregate of k members takes k shares, so a
    mixed exact/aggregate link converges to the exact allocation."""
    env, net = make_net(threshold=3, capacity=8 * MB)
    exact = [net.transfer("a", "b", 1e12, cap=100 * MB, name=f"e{i}")
             for i in range(2)]
    members = [net.transfer("a", "b", 1e12, cap=100 * MB, name=f"m{i}")
               for i in range(2)]
    for f in exact + members:
        f.done.defuse()
    assert net.aggregates_created == 1
    env.run(until=0.1)
    # 4 logical users on an 8 MB/s link -> 2 MB/s each, regardless of
    # how they are batched into fluid classes.
    for f in exact:
        assert abs(f.rate - 2 * MB) < 1e-6
    for m in members:
        assert abs(m.rate - 2 * MB) < 1e-6


def test_aggregate_retires_and_path_count_resets():
    env, net = make_net(threshold=2)
    a = net.transfer("a", "b", MB, cap=MB, name="a")
    b = net.transfer("a", "b", MB, cap=MB, name="b")
    a.done.defuse(), b.done.defuse()
    assert net.aggregates_created == 1
    env.run()
    assert not net._aggregates            # drained aggregate retired
    assert not a.active and not b.active
    # A fresh wave behaves like the first: one exact, then a new class.
    c = net.transfer("a", "b", MB, cap=MB, name="c")
    d = net.transfer("a", "b", MB, cap=MB, name="d")
    c.done.defuse(), d.done.defuse()
    assert net.aggregates_created == 2
    env.run()
    assert not c.active and not d.active


def test_threshold_validation():
    env = Environment()
    topo = Topology()
    topo.duplex_link("a", "b", MB, 0.001)
    with pytest.raises(ValueError):
        FluidNetwork(env, topo, aggregation_threshold=0)


def test_infinite_cap_member_is_rejected_from_aggregation():
    """A capless transfer cannot carry a demux weight — it must take
    the exact path even when an aggregate already exists."""
    env, net = make_net(threshold=1)
    m = net.transfer("a", "b", 10 * MB, cap=2 * MB)
    m.done.defuse()
    assert net.aggregates_created == 1
    u = net.transfer("a", "b", 10 * MB, cap=math.inf)
    u.done.defuse()
    assert net.aggregate_joins == 1       # u did not join
    env.run()
    assert not m.active and not u.active


def _cap_churn():
    """Twenty members of one aggregate, every live member re-capped each
    0.05 s until all finish. Returns (completion instants, largest
    member heap seen)."""
    env, net = make_net(threshold=1)
    members = [net.transfer("a", "b", (4 + i) * MB, cap=MB, name=f"u{i}")
               for i in range(20)]
    agg = members[0]._agg
    assert all(m._agg is agg for m in members)
    done = {}
    for i, m in enumerate(members):
        m.done.add_callback(lambda _ev, i=i: done.setdefault(i, env.now))
    peak = [0]

    def churn():
        k = 0
        while any(m.active for m in members):
            yield env.timeout(0.05)
            for i, m in enumerate(members):
                if m.active:
                    k += 1
                    m.set_cap((1 + (k + i) % 3) * 0.5 * MB)
            peak[0] = max(peak[0], len(agg._mheap))

    env.process(churn())
    env.run()
    return done, peak[0]


def test_member_heap_stays_bounded_under_cap_churn(monkeypatch):
    """Every cap change pushes a fresh prediction and stale ones leave
    only from the top; compaction keeps the heap O(members) and changes
    no completion instant against an uncompacted heap."""
    bounded, bounded_peak = _cap_churn()

    def unbounded_push(self, member, v_star):
        heapq.heappush(self._mheap, (v_star, member._pred_version,
                                     member.id, member))

    monkeypatch.setattr(AggregateFlow, "_push", unbounded_push)
    reference, reference_peak = _cap_churn()
    assert len(bounded) == 20
    assert bounded == reference
    assert reference_peak > 1000         # the churn does pile entries up
    assert bounded_peak <= 2 * 20 + 9
