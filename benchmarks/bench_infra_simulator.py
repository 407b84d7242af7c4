"""Infrastructure bench — simulator throughput (not a paper figure).

Regression guard for the two hot paths everything else stands on: the
event kernel (schedule/fire rate) and the fluid allocator
(reallocations per second at realistic flow counts). The guides' advice
("no optimization without measuring") applied to our own substrate: if
these numbers collapse, every experiment above gets slower.
"""

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment


def test_kernel_event_throughput(benchmark):
    """Fire 50k timeout events through the queue."""
    import time

    def run():
        env = Environment()
        count = [0]

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1.0)
                count[0] += 1

        for _ in range(10):
            env.process(ticker(env, 5000))
        t0 = time.perf_counter()
        env.run()
        wall = time.perf_counter() - t0
        return count[0], env.kernel_stats, wall

    total, stats, wall = benchmark(run)
    assert total == 50_000
    # The kernel's own accounting must agree with the workload: every
    # timeout plus the 10 process bootstraps, nothing cancelled, and no
    # compaction sweeps on a cancel-free run.
    assert stats["events_dispatched"] == stats["events_scheduled"]
    assert stats["events_dispatched"] >= 50_000
    assert stats["events_cancelled"] == 0
    assert stats["queue_compactions"] == 0
    # events/sec guard: pure timer dispatch must stay well above the
    # rate everything downstream was sized against.
    assert stats["events_dispatched"] / wall > 100_000, (
        f"kernel too slow: {stats['events_dispatched'] / wall:.0f} ev/s")


def test_allocator_throughput(benchmark):
    """Full reallocation of a 64-flow, 24-link network, 500 times."""
    env = Environment()
    topo = Topology()
    for i in range(8):
        topo.duplex_link(f"h{i}", "core", mbps(1000), 0.001)
        topo.duplex_link(f"g{i}", "edge", mbps(1000), 0.001)
    topo.duplex_link("core", "edge", mbps(2500), 0.005)
    net = FluidNetwork(env, topo)
    for i in range(64):
        net.transfer(f"h{i % 8}", f"g{(i * 3) % 8}", 1e15,
                     cap=mbps(50 + i))

    def run():
        for _ in range(500):
            net.reallocate()
        return net.reallocations

    benchmark(run)
    # Feasibility still holds after the hammering.
    for link in topo.links.values():
        used = sum(f.rate for f in net.flows_on(link))
        assert used <= link.capacity * (1 + 1e-6)


def test_allocator_reallocations_per_second(benchmark):
    """Guard: incremental reallocation rate under realistic cap churn.

    12 disjoint site components × 16 flows, every flow's cap stepping
    on its own ~15 ms clock (the 32-stream slow-start pattern). The
    component-scoped allocator must sustain well north of a thousand
    reallocations per wall-second at this scale — if this collapses,
    every experiment above gets slower.
    """
    env = Environment()
    topo = Topology()
    n_comp, per_comp = 12, 16
    for c in range(n_comp):
        for h in range(4):
            topo.duplex_link(f"c{c}h{h}", f"c{c}core", mbps(1000), 0.001)
    net = FluidNetwork(env, topo)
    flows = []
    for c in range(n_comp):
        for i in range(per_comp):
            flows.append(net.transfer(f"c{c}h{i % 4}",
                                      f"c{c}h{(i + 1) % 4}", 1e15,
                                      cap=mbps(20 + i)))

    def churner(env, flow, period, lo, hi):
        k = 0
        while True:
            yield env.timeout(period)
            k += 1
            flow.set_cap(mbps(lo + (k % 2) * (hi - lo)))

    for i, f in enumerate(flows):
        env.process(churner(env, f, 0.0146 + 1e-4 * (i % 7),
                            20 + i % 16, 120 + i % 16))

    def run():
        env.run(until=env.now + 20.0)
        return net.reallocations

    import time
    t0 = time.perf_counter()
    total = benchmark(run)
    wall = time.perf_counter() - t0
    assert total / wall > 1000, (
        f"allocator too slow: {total / wall:.0f} reallocations/s")


def test_recorder_analysis_throughput(benchmark):
    """Windowed-peak analysis over a 100k-breakpoint series."""
    import numpy as np

    from repro.net import RateSeries

    rng = np.random.default_rng(1)
    n = 100_000
    times = np.cumsum(rng.uniform(0.01, 0.2, n))
    rates = rng.uniform(0, mbps(500), n)
    series = RateSeries(times, rates, float(times[-1]) + 1.0)

    def run():
        return (series.peak_windowed(0.1), series.peak_windowed(5.0),
                series.average())

    peak01, peak5, avg = benchmark(run)
    assert peak01 >= peak5 >= avg
