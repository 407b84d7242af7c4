"""Tests for connections, DNS, and fault injection."""

import pytest

from repro.net import (
    ConnectionRefused,
    FaultInjector,
    FaultSchedule,
    FlowError,
    FluidNetwork,
    NameService,
    TcpParams,
    Topology,
    Transport,
    mbps,
)
from repro.netlogger import FaultWindow, NetLogger, extract_fault_windows
from repro.obs import Observability
from repro.sim import Environment


def fixture(capacity=mbps(100), latency=0.01):
    env = Environment(seed=3)
    topo = Topology()
    topo.duplex_link("A", "B", capacity=capacity, latency=latency)
    net = FluidNetwork(env, topo)
    ns = NameService(env)
    ns.register("b.host", "B")
    tr = Transport(env, net, ns)
    return env, topo, net, ns, tr


def test_connect_resolves_hostname_and_costs_handshake():
    env, topo, net, ns, tr = fixture()

    def main(env):
        conn = yield from tr.connect("A", "b.host")
        return (env.now, conn.dst)

    p = env.process(main(env))
    env.run()
    t, dst = p.value
    assert dst == "B"
    # DNS lookup (0.01) + 1.5 RTT (0.03)
    assert t == pytest.approx(0.04)
    assert ns.lookups == 1


def test_connect_by_node_name_skips_dns():
    env, topo, net, ns, tr = fixture()

    def main(env):
        conn = yield from tr.connect("A", "B")
        return env.now

    p = env.process(main(env))
    env.run()
    assert p.value == pytest.approx(0.03)
    assert ns.lookups == 0


def test_connect_unknown_destination_refused():
    env, topo, net, ns, tr = fixture()

    def main(env):
        with pytest.raises(ConnectionRefused):
            yield from tr.connect("A", "nowhere")
        yield env.timeout(0)

    env.process(main(env))
    env.run()


def start_flow(net, conn, nbytes):
    """A bulk flow on ``conn``, its window driven by the connection's TCP."""
    flow = net.transfer(conn.src, conn.dst, nbytes,
                        cap=conn.stream.window_cap)
    conn.stream.drive(flow)
    return flow


def test_watch_delivers_all_bytes():
    env, topo, net, ns, tr = fixture()
    size = mbps(100) * 5

    def main(env):
        conn = yield from tr.connect(
            "A", "B", TcpParams(buffer_bytes=2 * 2**20))
        flow = start_flow(net, conn, size)
        yield from conn.watch(flow)
        return flow.transferred

    p = env.process(main(env))
    env.run()
    assert p.value == pytest.approx(size)


def test_request_on_closed_connection_rejected():
    env, topo, net, ns, tr = fixture()

    def main(env):
        conn = yield from tr.connect("A", "B")
        conn.close()
        with pytest.raises(RuntimeError):
            yield from conn.request()

    env.process(main(env))
    env.run()


def test_request_costs_about_one_rtt():
    env, topo, net, ns, tr = fixture()

    def main(env):
        conn = yield from tr.connect("A", "B")
        t0 = env.now
        yield from conn.request(server_time=0.5)
        return env.now - t0

    p = env.process(main(env))
    env.run()
    assert p.value > 0.5 + 0.02  # RTT + server time
    assert p.value < 0.6


def test_stall_watchdog_aborts_dead_transfer():
    env, topo, net, ns, tr = fixture()
    link = topo.links["A<->B:fwd"]

    def outage(env):
        yield env.timeout(2.0)
        link.set_down()
        net.reallocate()

    def main(env):
        conn = yield from tr.connect(
            "A", "B", TcpParams(buffer_bytes=2**20, stall_timeout=10.0))
        flow = start_flow(net, conn, mbps(100) * 60)
        with pytest.raises(FlowError, match="stalled"):
            yield from conn.watch(flow)
        return env.now

    env.process(outage(env))
    p = env.process(main(env))
    env.run()
    # Aborted roughly stall_timeout after the outage began.
    assert 11.0 < p.value < 16.0


def test_dns_outage_refuses_connection():
    env, topo, net, ns, tr = fixture()
    ns.add_outage(start=0.0, duration=10.0)

    def main(env):
        with pytest.raises(ConnectionRefused):
            yield from tr.connect("A", "b.host")
        yield env.timeout(11.0)
        conn = yield from tr.connect("A", "b.host")  # recovered
        return conn.dst

    p = env.process(main(env))
    env.run()
    assert p.value == "B"
    assert ns.failures == 1


def test_connect_over_dead_path_times_out_then_refused():
    env, topo, net, ns, tr = fixture()
    topo.links["A<->B:fwd"].set_down()

    def main(env):
        with pytest.raises(ConnectionRefused):
            yield from tr.connect("A", "B", TcpParams(stall_timeout=30.0))
        return env.now

    p = env.process(main(env))
    env.run()
    assert p.value == pytest.approx(30.0)  # SYN timeout elapsed


# -- fault injector -----------------------------------------------------------

def test_fault_schedule_validation():
    s = FaultSchedule()
    with pytest.raises(ValueError):
        s.link_outage("l", start=-1, duration=5)
    with pytest.raises(ValueError):
        s.link_outage("l", start=0, duration=0)
    with pytest.raises(ValueError):
        s.degrade("l", start=0, duration=5, fraction=1.5)


def test_link_outage_stalls_then_recovers():
    env, topo, net, ns, tr = fixture()
    sched = FaultSchedule().link_outage("A<->B:fwd", start=3.0, duration=4.0)
    FaultInjector(env, net, ns).install(sched)
    flow = net.transfer("A", "B", mbps(100) * 10)
    env.run()
    assert flow.finished_at == pytest.approx(14.0)  # 3 + 4 outage + 7


def test_site_outage_takes_all_site_links_down():
    env = Environment()
    topo = Topology()
    topo.add_node("dallas-r", site="dallas")
    topo.add_node("wan", site="wan")
    topo.duplex_link("dallas-r", "wan", mbps(100), 0.01)
    topo.duplex_link("wan", "lbl", mbps(100), 0.01)
    net = FluidNetwork(env, topo)
    logger = NetLogger(env)
    inj = FaultInjector(env, net, obs=Observability(logger=logger))
    sched = FaultSchedule().site_outage("dallas", start=2.0, duration=3.0,
                                        description="power failure")
    inj.install(sched)
    flow = net.transfer("dallas-r", "lbl", mbps(100) * 4)
    env.run()
    assert flow.finished_at == pytest.approx(7.0)
    assert extract_fault_windows(logger) == [
        FaultWindow("site", "dallas", 2.0, 5.0, "power failure")]


def test_degrade_halves_throughput():
    env, topo, net, ns, tr = fixture()
    sched = FaultSchedule().degrade("A<->B:fwd", start=0.0, duration=100.0,
                                    fraction=0.5)
    FaultInjector(env, net, ns).install(sched)
    flow = net.transfer("A", "B", mbps(100) * 5)
    env.run()
    assert flow.finished_at == pytest.approx(10.0)


def test_dns_fault_requires_name_service():
    env, topo, net, ns, tr = fixture()
    inj = FaultInjector(env, net, name_service=None)
    with pytest.raises(ValueError):
        inj.install(FaultSchedule().dns_outage(0.0, 5.0))


def test_unknown_fault_target_raises():
    env, topo, net, ns, tr = fixture()
    inj = FaultInjector(env, net, ns)
    # Targets are validated eagerly at install time.
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().link_outage("nope", 1.0, 1.0))


def test_equal_tcp_settings_share_one_frozen_params_object():
    env, topo, net, ns, tr = fixture()
    a = tr.params(buffer_bytes=2**20, stall_timeout=30.0)
    b = tr.params(stall_timeout=30.0, buffer_bytes=2**20)
    assert a is b and a == TcpParams(buffer_bytes=2**20, stall_timeout=30.0)
    assert tr.params(buffer_bytes=2**20, stall_timeout=10.0) is not a
    with pytest.raises(AttributeError):
        a.stall_timeout = 5.0            # frozen: sharing is safe
    with pytest.raises(ValueError):
        tr.params(mss=0)


# -- the stall watchdog's edge cases, each against the polling oracle --------
# Every case runs on Connection.watch and on the polling loop it replaced
# (tests/net/reference_watchdog.py); both must give the expected outcome.
# Flows A->B at 25 B/s over the 60 B/s link R->B; a 6 s stall timeout on
# a 2 s tick grid from each watch's start.

def _watchdog_case(flows, actions, aggregate=False):
    from tests.net.test_watchdog_differential import twins
    ours, ref = twins(flows, actions, 6.0, 2.0, aggregate)
    assert ours == ref
    return ours["outcome"]


def test_watchdog_rate_hits_zero_exactly_on_a_tick():
    # The tick at 4 saw the bytes moved before the outage: last change
    # is 4, so the abort falls on the tick at 10.
    outcome = _watchdog_case([("A", "B", 2000.0, 25.0, 0.0)],
                             [("down", "R<->B:fwd", 4.0)])
    assert outcome == {0: ("aborted", 10.0, "stalled for 6s")}


def test_watchdog_rate_turns_positive_exactly_at_the_abort_instant():
    # Stalled from 1 (last change: the tick at 2, abort due at 8); the
    # link returns at 8 itself, too late for any byte to count.
    outcome = _watchdog_case([("A", "B", 2000.0, 25.0, 0.0)],
                             [("down", "R<->B:fwd", 1.0),
                              ("up", "R<->B:fwd", 8.0)])
    assert outcome == {0: ("aborted", 8.0, "stalled for 6s")}


def test_watchdog_flow_created_on_a_down_link():
    # Never moves: aborted on the first tick (3, 5, 7) 6 s past its start.
    outcome = _watchdog_case([("A", "B", 2000.0, 25.0, 1.0)],
                             [("down", "R<->B:fwd", 0.0)])
    assert outcome == {0: ("aborted", 7.0, "stalled for 6s")}


def test_watchdog_outage_shorter_than_the_stall_timeout():
    # A 4 s outage: no abort, and the flow ends 4 s late (80 s of data).
    outcome = _watchdog_case([("A", "B", 2000.0, 25.0, 0.0)],
                             [("down", "R<->B:fwd", 3.0),
                              ("up", "R<->B:fwd", 7.0)])
    assert outcome == {0: ("done", 84.0)}


def test_watchdog_aggregate_stalls_with_members_inside():
    # Flow 0 runs exact; flows 1 and 2 join one aggregate. The outage at
    # 5 stalls all three; each is aborted on its own grid (start 0.5 ->
    # last change 6.5, start 1 -> 5), so flow 2 leaves the aggregate at
    # 11 while flow 1 is still inside it.
    flows = [("A", "B", 2000.0, 25.0, 0.0), ("A", "B", 2000.0, 25.0, 0.5),
             ("A", "B", 2000.0, 25.0, 1.0)]
    outcome = _watchdog_case(flows, [("down", "R<->B:fwd", 5.0)],
                             aggregate=True)
    assert outcome == {2: ("aborted", 11.0, "stalled for 6s"),
                       0: ("aborted", 12.0, "stalled for 6s"),
                       1: ("aborted", 12.5, "stalled for 6s")}
