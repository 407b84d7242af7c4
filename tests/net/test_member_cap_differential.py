"""``FluidNetwork.member_set_cap`` against the full cap change it
replaced (``tests/net/reference_member_cap.py``), bit for bit.

Random scripts on two aggregates sharing a link: members join, have
their caps set to the value they hold or to another (zero and a hard
limit included), are aborted and are watched for stalls, many of these
at one shared instant. Sizes and caps come from short lists, so members
reach equal virtual finish lines and finish together. Both networks
must deliver the same bytes at every step, finish every member at the
same instant and fire ``done`` events and stall signals in the same
order. Stall signals of one flush come group by group in the iteration
order of the shared link's set of path groups, which follows object
addresses and so differs between the two networks; signals sent at one
instant with nothing between them are compared as a sorted run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment

from tests.net.reference_member_cap import ReferenceMemberCapNetwork

SIZE = st.sampled_from([1e6, 2e6, 2e6, 3e6, 4e6])
CAP = st.sampled_from([0.0, 5e5, 1e6, 2e6, 2e6, 3e6])
LIMIT = st.sampled_from([math.inf, math.inf, 1.5e6])
DT = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0])
OP = st.one_of(
    st.tuples(st.just("join"), SIZE, CAP.filter(bool), LIMIT,
              st.integers(0, 1)),
    st.tuples(st.just("same"), st.integers(0, 63)),
    st.tuples(st.just("cap"), st.integers(0, 63), CAP),
    st.tuples(st.just("abort"), st.integers(0, 63)),
    st.tuples(st.just("watch"), st.integers(0, 63)),
)
SCRIPT = st.lists(st.tuples(DT, OP), min_size=4, max_size=60)


class Watcher:
    """A stall watcher that logs what it is told."""

    def __init__(self, log, name):
        self.moving = None
        self.log, self.name = log, name

    def settle(self, moving, now):
        self.moving = moving
        self.log.append(("stall", self.name, moving, now))

    def close(self):
        self.log.append(("closed", self.name))


def replay(network_cls, script):
    env = Environment(seed=1)
    topo = Topology()
    shared = topo.add_link("a", "b", mbps(40), 0.001)
    routes = [[shared, topo.add_link("b", f"c{i}", mbps(30), 0.001)]
              for i in range(2)]
    net = network_cls(env, topo, aggregation_threshold=1)
    members, log = [], []

    def finished(ev, name):
        log.append(("done", name, env.now, ev.ok))

    for dt, op in script:
        if dt:
            env.run(until=env.now + dt)
            log.append(("bytes", env.now,
                        tuple(m.transferred for m in members)))
        kind = op[0]
        if kind == "join":
            _, size, cap, limit, route = op
            m = net.transfer("a", f"c{route}", size, cap=cap, limit=limit,
                             name=f"m{len(members)}", path=routes[route])
            m.done.add_callback(lambda ev, name=m.name: finished(ev, name))
            m.done.defuse()
            members.append(m)
        elif members:
            m = members[op[1] % len(members)]
            if kind == "same":
                m.set_cap(m.cap)
            elif kind == "cap":
                m.set_cap(op[2])
            elif kind == "abort":
                m.abort()
            elif m.active and m._stall is None:
                net.watch_rate(m, Watcher(log, m.name))
    env.run(until=env.now + 60.0)
    log.append(("end", tuple((m.name, m.finished_at, m._served0, m.cap)
                             for m in members)))
    return by_instant(log)


def by_instant(log):
    """``log`` with each run of stall signals at one instant sorted."""
    out, run = [], []
    for rec in log + [None]:
        if rec is not None and rec[0] == "stall" and (
                not run or run[-1][3] == rec[3]):
            run.append(rec)
            continue
        out += sorted(run)
        run = []
        if rec is not None and rec[0] == "stall":
            run.append(rec)
        elif rec is not None:
            out.append(rec)
    return out


@settings(max_examples=400, deadline=None)
@given(script=SCRIPT)
def test_member_cap_changes_match_the_full_change_bit_for_bit(script):
    assert replay(FluidNetwork, script) == replay(
        ReferenceMemberCapNetwork, script)


def test_first_window_cap_renews_only_the_completion_entry():
    """The window driver's first cap equals the transfer's: the member
    keeps its settle point and weight, the aggregate is not advanced
    again, and only the member's completion entry is renewed."""
    env = Environment()
    topo = Topology()
    link = topo.add_link("a", "b", mbps(40), 0.001)
    net = FluidNetwork(env, topo, aggregation_threshold=1)
    m = net.transfer("a", "b", 2e6, cap=1e6, path=[link])
    m.done.defuse()
    agg = m._agg
    advances = []
    advance = net._advance
    net._advance = lambda flow, now: (advances.append(flow),
                                      advance(flow, now))
    entry, w = agg._mheap[0], agg._W
    m.set_cap(1e6)
    assert advances == [] and agg._W == w and m._v0 == agg._v
    assert agg._head_entry() == (entry[0], entry[1] + 1, m.id, m)
    m.set_cap(2e6)  # a real change at the same instant: still no advance
    assert advances == [] and agg._W == 2e6
    env.run()
    assert m.finished_at == 1.0
