"""Tests for the TCP window model."""

import pytest

from repro.net import (
    FluidNetwork,
    RateRecorder,
    TcpParams,
    TcpStream,
    Topology,
    bdp_buffer_size,
    mbps,
)
from repro.sim import Environment


def net_fixture(capacity=mbps(1000), latency=0.025):
    env = Environment(seed=7)
    topo = Topology()
    topo.duplex_link("A", "B", capacity=capacity, latency=latency)
    return env, topo, FluidNetwork(env, topo)


def run_transfer(env, net, nbytes, params, rng=None):
    rec = RateRecorder("t")
    rtt = net.topology.rtt("A", "B")
    stream = TcpStream(env, rtt, params, rng=rng)
    flow = net.transfer("A", "B", nbytes, cap=stream.window_cap,
                        recorder=rec)
    stream.drive(flow)
    env.run(until=flow.done)
    return rec.close(env.now), stream


def test_bdp_formula():
    # 100 Mb/s at 50 ms → 625000 bytes in flight.
    assert bdp_buffer_size(mbps(100), 0.050) == pytest.approx(625000.0)
    with pytest.raises(ValueError):
        bdp_buffer_size(-1, 0.1)


def test_paper_buffer_rule_of_thumb():
    """§7: Buffer KB = Mb/s × ms × 1024/1000/8 → 1 MB covers 500 Mb/s @ 16 ms."""
    buf = bdp_buffer_size(mbps(500), 0.016)
    assert buf == pytest.approx(1_000_000, rel=0.01)  # ≈1 MB


def test_window_limited_throughput():
    """Steady-state rate equals buffer/RTT when the pipe is fatter."""
    env, topo, net = net_fixture(capacity=mbps(1000), latency=0.025)
    params = TcpParams(buffer_bytes=64 * 1024)
    series, stream = run_transfer(env, net, 50 * 2**20, params)
    expected = 64 * 1024 / 0.050
    # Tail of the transfer runs at the window cap (the final breakpoint is
    # the 0-rate mark at completion, so look just before the end).
    assert series.rate_at(series.t_end - 1e-6) == pytest.approx(
        expected, rel=1e-6)


def test_bigger_buffer_faster_transfer():
    results = {}
    for buf in (64 * 1024, 1024 * 1024):
        env, topo, net = net_fixture(capacity=mbps(622), latency=0.025)
        series, _ = run_transfer(env, net, 200 * 2**20,
                                 TcpParams(buffer_bytes=buf))
        results[buf] = series.average()
    assert results[1024 * 1024] > 5 * results[64 * 1024]


def test_slow_start_ramp_visible():
    env, topo, net = net_fixture()
    params = TcpParams(buffer_bytes=1024 * 1024)
    series, _ = run_transfer(env, net, 100 * 2**20, params)
    # Rate strictly grows over the first few segments (doubling per RTT).
    first_rates = series.rates[:4]
    assert all(b > a for a, b in zip(first_rates, first_rates[1:]))
    assert series.rates[0] == pytest.approx(params.init_cwnd / 0.050)


def test_short_transfer_never_reaches_cap():
    """A transfer smaller than the ramp never sees full window speed —
    the mechanism behind Figure 8's inter-transfer dips."""
    env, topo, net = net_fixture()
    params = TcpParams(buffer_bytes=4 * 2**20)
    series, stream = run_transfer(env, net, 256 * 1024, params)
    assert max(series.rates) < stream.max_window / 0.050


def test_warm_stream_skips_slow_start():
    """Reusing a stream (data-channel caching) starts at the warm window."""
    env, topo, net = net_fixture()
    params = TcpParams(buffer_bytes=1024 * 1024)
    rtt = topo.rtt("A", "B")
    stream = TcpStream(env, rtt, params)
    # First transfer warms the window.
    f1 = net.transfer("A", "B", 64 * 2**20, cap=stream.window_cap)
    stream.drive(f1)
    env.run(until=f1.done)
    assert stream.cwnd == pytest.approx(params.buffer_bytes)
    rec = RateRecorder("warm")
    f2 = net.transfer("A", "B", 16 * 2**20, cap=stream.window_cap,
                      recorder=rec)
    stream.drive(f2)
    env.run(until=f2.done)
    series = rec.close(env.now)
    assert series.rates[0] == pytest.approx(params.buffer_bytes / 0.050)


def test_losses_reduce_throughput():
    lossless = None
    lossy = None
    for loss_rate in (0.0, 2.0):
        env, topo, net = net_fixture(capacity=mbps(622))
        rng = env.rng.stream("tcp.loss")
        params = TcpParams(buffer_bytes=1024 * 1024, loss_rate=loss_rate)
        series, stream = run_transfer(env, net, 200 * 2**20, params, rng=rng)
        if loss_rate == 0:
            lossless = series.average()
        else:
            lossy = series.average()
            assert stream.losses > 0
    assert lossy < lossless


def test_loss_rate_without_rng_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        TcpStream(env, 0.05, TcpParams(loss_rate=1.0))


def test_params_validation():
    with pytest.raises(ValueError):
        TcpParams(mss=0)
    with pytest.raises(ValueError):
        TcpParams(buffer_bytes=100)  # smaller than MSS
    with pytest.raises(ValueError):
        TcpParams(loss_rate=-1)
    with pytest.raises(ValueError):
        TcpStream(Environment(), 0.0, TcpParams())


def test_parallel_streams_beat_single_under_loss():
    """The paper's core rationale for parallel transfers [15]: with random
    loss, N streams recover independently and keep aggregate rate high."""
    def run(n_streams):
        env = Environment(seed=11)
        topo = Topology()
        topo.duplex_link("A", "B", capacity=mbps(622), latency=0.030)
        net = FluidNetwork(env, topo)
        rtt = topo.rtt("A", "B")
        total = 400 * 2**20
        recs, flows = [], []
        for i in range(n_streams):
            params = TcpParams(buffer_bytes=1024 * 1024, loss_rate=0.5)
            stream = TcpStream(env, rtt, params,
                               rng=env.rng.spawn("loss", i))
            rec = RateRecorder(f"s{i}")
            flow = net.transfer("A", "B", total / n_streams,
                                cap=stream.window_cap, recorder=rec)
            stream.drive(flow)
            recs.append(rec)
            flows.append(flow)
        env.run()
        return max(f.finished_at for f in flows)

    t1 = run(1)
    t4 = run(4)
    assert t4 < t1
