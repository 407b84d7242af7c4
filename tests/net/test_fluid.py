"""Tests for the fluid max-min fair allocator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowError, FluidNetwork, RateRecorder, Topology, mbps
from repro.sim import Environment


def simple_net(capacity=mbps(100), latency=0.01):
    env = Environment(seed=1)
    topo = Topology()
    topo.duplex_link("A", "B", capacity=capacity, latency=latency)
    return env, topo, FluidNetwork(env, topo)


def test_single_flow_gets_full_capacity():
    env, topo, net = simple_net()
    flow = net.transfer("A", "B", mbps(100) * 10)  # 10 s of data
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)
    assert flow.finished_at == pytest.approx(10.0)


def test_two_flows_share_fairly():
    env, topo, net = simple_net()
    f1 = net.transfer("A", "B", mbps(100) * 10)
    f2 = net.transfer("A", "B", mbps(100) * 10)
    env.run()
    assert f1.finished_at == pytest.approx(20.0)
    assert f2.finished_at == pytest.approx(20.0)


def test_short_flow_releases_bandwidth_to_long_flow():
    env, topo, net = simple_net()
    long = net.transfer("A", "B", mbps(100) * 10)
    short = net.transfer("A", "B", mbps(100) * 1)
    env.run()
    # short: 1 unit at half rate → 2 s. long: 2 s at half + 8 units full.
    assert short.finished_at == pytest.approx(2.0)
    assert long.finished_at == pytest.approx(11.0)


def test_per_flow_cap_respected():
    env, topo, net = simple_net()
    capped = net.transfer("A", "B", mbps(10) * 10, cap=mbps(10))
    env.run()
    assert capped.finished_at == pytest.approx(10.0)


def test_capped_flow_leaves_rest_to_others():
    env, topo, net = simple_net()
    capped = net.transfer("A", "B", mbps(10) * 100, cap=mbps(10))
    greedy = net.transfer("A", "B", mbps(90) * 10)
    env.run()
    assert greedy.finished_at == pytest.approx(10.0)  # gets the other 90
    assert capped.finished_at == pytest.approx(100.0)


def test_opposite_directions_do_not_contend():
    env, topo, net = simple_net()
    ab = net.transfer("A", "B", mbps(100) * 10)
    ba = net.transfer("B", "A", mbps(100) * 10)
    env.run()
    assert ab.finished_at == pytest.approx(10.0)
    assert ba.finished_at == pytest.approx(10.0)


def test_bottleneck_shared_across_multihop():
    env = Environment()
    topo = Topology()
    topo.add_link("A", "M", mbps(100), 0.001)
    topo.add_link("B", "M", mbps(100), 0.001)
    topo.add_link("M", "C", mbps(100), 0.001)  # shared bottleneck
    net = FluidNetwork(env, topo)
    f1 = net.transfer("A", "C", mbps(100) * 5)
    f2 = net.transfer("B", "C", mbps(100) * 5)
    env.run()
    assert f1.finished_at == pytest.approx(10.0)
    assert f2.finished_at == pytest.approx(10.0)


def test_max_min_not_proportional():
    """A flow capped below fair share frees capacity for the others."""
    env = Environment()
    topo = Topology()
    topo.add_link("A", "B", mbps(90), 0.001)
    net = FluidNetwork(env, topo)
    small = net.transfer("A", "B", mbps(10) * 30, cap=mbps(10))
    big1 = net.transfer("A", "B", mbps(40) * 10)
    big2 = net.transfer("A", "B", mbps(40) * 10)
    net.reallocate()
    assert small.rate == pytest.approx(mbps(10))
    assert big1.rate == pytest.approx(mbps(40))
    assert big2.rate == pytest.approx(mbps(40))
    env.run()


def test_zero_byte_transfer_completes_immediately():
    env, topo, net = simple_net()
    flow = net.transfer("A", "B", 0)
    assert flow.done.triggered
    env.run()
    assert flow.finished_at == 0.0


def test_negative_bytes_rejected():
    env, topo, net = simple_net()
    with pytest.raises(ValueError):
        net.transfer("A", "B", -1)


def test_abort_fails_done_event():
    env, topo, net = simple_net()
    flow = net.transfer("A", "B", mbps(100) * 100)

    def aborter(env, flow):
        yield env.timeout(5.0)
        flow.abort("operator cancel")

    env.process(aborter(env, flow))
    with pytest.raises(FlowError, match="operator cancel"):
        env.run(until=flow.done)


def test_aborted_flow_reports_partial_progress():
    env, topo, net = simple_net()
    flow = net.transfer("A", "B", mbps(100) * 100)

    def aborter(env, flow):
        yield env.timeout(5.0)
        flow.abort()

    env.process(aborter(env, flow))
    flow.done.defuse()
    env.run()
    assert flow.transferred == pytest.approx(mbps(100) * 5)


def test_link_down_stalls_flow_and_restore_resumes():
    env, topo, net = simple_net()
    flow = net.transfer("A", "B", mbps(100) * 10)
    link = topo.links["A<->B:fwd"]

    def outage(env):
        yield env.timeout(5.0)
        link.set_down()
        net.reallocate()
        yield env.timeout(7.0)
        link.restore()
        net.reallocate()

    env.process(outage(env))
    env.run()
    # 5 s transferred + 7 s outage + 5 s remaining = 17 s
    assert flow.finished_at == pytest.approx(17.0)


def test_cap_change_midflight():
    env, topo, net = simple_net()
    flow = net.transfer("A", "B", mbps(100) * 10, cap=mbps(50))

    def raiser(env, flow):
        yield env.timeout(10.0)  # half the data at 50
        flow.set_cap(mbps(100))

    env.process(raiser(env, flow))
    env.run()
    assert flow.finished_at == pytest.approx(15.0)


def test_progress_is_current():
    env, topo, net = simple_net()
    flow = net.transfer("A", "B", mbps(100) * 10)

    def checker(env, flow):
        yield env.timeout(4.0)
        assert flow.progress() == pytest.approx(mbps(100) * 4)

    env.process(checker(env, flow))
    env.run()


def test_recorder_integration_total_bytes_matches_size():
    env, topo, net = simple_net()
    rec = RateRecorder("f")
    size = mbps(100) * 7.5
    net.transfer("A", "B", size, recorder=rec)
    env.run()
    series = rec.close(env.now)
    assert series.total_bytes == pytest.approx(size, rel=1e-9)


def test_many_flows_conservation():
    env = Environment()
    topo = Topology()
    topo.add_link("A", "B", mbps(100), 0.001)
    net = FluidNetwork(env, topo)
    flows = [net.transfer("A", "B", mbps(1) * (i + 1)) for i in range(20)]
    net.reallocate()
    assert sum(f.rate for f in flows) == pytest.approx(mbps(100))
    env.run()
    assert all(f.finished_at is not None for f in flows)


@given(st.lists(st.floats(0.1, 50.0), min_size=1, max_size=12),
       st.floats(10.0, 1000.0))
@settings(max_examples=60, deadline=None)
def test_property_allocation_feasible_and_work_conserving(caps_mb, cap_total):
    """Rates never exceed caps or link capacity; link is saturated
    whenever some flow is not cap-limited."""
    env = Environment()
    topo = Topology()
    link = topo.add_link("A", "B", mbps(cap_total), 0.001)
    net = FluidNetwork(env, topo)
    flows = [net.transfer("A", "B", 1e12, cap=mbps(c)) for c in caps_mb]
    net.reallocate()
    total = sum(f.rate for f in flows)
    assert total <= link.capacity * (1 + 1e-9)
    for f in flows:
        assert f.rate <= f.cap * (1 + 1e-9)
    cap_limited = all(f.rate >= f.cap * (1 - 1e-6) for f in flows)
    if not cap_limited:
        assert total == pytest.approx(link.capacity, rel=1e-6)


@given(st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_property_equal_flows_get_equal_rates(n):
    env = Environment()
    topo = Topology()
    topo.add_link("A", "B", mbps(100), 0.001)
    net = FluidNetwork(env, topo)
    flows = [net.transfer("A", "B", 1e12) for _ in range(n)]
    net.reallocate()
    rates = {round(f.rate, 3) for f in flows}
    assert len(rates) == 1
    assert flows[0].rate == pytest.approx(mbps(100) / n)
