"""Tests for link-load modulation (cross traffic as residual capacity)."""

import pytest

from repro.net import (
    FluidNetwork,
    LinkLoadModulator,
    Topology,
    mbps,
)
from repro.sim import Environment


def fixture(capacity=mbps(100)):
    env = Environment(seed=4)
    topo = Topology()
    topo.duplex_link("A", "B", capacity, 0.005)
    return env, topo, FluidNetwork(env, topo)


def test_modulator_varies_capacity_around_mean():
    env, topo, net = fixture()
    link = topo.links["A<->B:fwd"]
    mod = LinkLoadModulator(env, net, link, mean_load=0.6,
                            rng=env.rng.stream("mod"),
                            volatility=0.05, correlation=0.8,
                            interval=1.0)
    mod.start()
    mod.start()  # idempotent
    samples = []

    def sampler(env):
        while env.now < 300:
            samples.append(link.capacity)
            yield env.timeout(1.0)

    env.process(sampler(env))
    env.run(until=300.0)
    assert mod.samples >= 299
    mean_cap = sum(samples) / len(samples)
    # Mean residual ≈ (1 - mean_load) × nominal.
    assert mean_cap == pytest.approx(0.4 * link.nominal_capacity,
                                     rel=0.25)
    # It actually varies.
    assert max(samples) > min(samples) * 1.2
    # Clamps respected.
    assert max(samples) <= link.nominal_capacity * 0.95 + 1
    assert min(samples) >= link.nominal_capacity * 0.03 - 1


def test_modulator_squeezes_foreground_flow():
    env, topo, net = fixture()
    link = topo.links["A<->B:fwd"]
    flow = net.transfer("A", "B", mbps(100) * 100)
    mod = LinkLoadModulator(env, net, link, mean_load=0.5,
                            rng=env.rng.stream("mod"), interval=2.0)
    mod.start()
    rates = []

    def sampler(env):
        while flow.active and env.now < 100:
            rates.append(flow.rate)
            yield env.timeout(2.0)

    env.process(sampler(env))
    env.run(until=100.0)
    assert min(rates) < mbps(70)
    assert max(rates) > min(rates)


def test_modulator_validation():
    env, topo, net = fixture()
    link = topo.links["A<->B:fwd"]
    rng = env.rng.stream("x")
    with pytest.raises(ValueError):
        LinkLoadModulator(env, net, link, mean_load=1.5, rng=rng)
    with pytest.raises(ValueError):
        LinkLoadModulator(env, net, link, mean_load=0.5, rng=rng,
                          correlation=1.0)
    with pytest.raises(ValueError):
        LinkLoadModulator(env, net, link, mean_load=0.5, rng=rng,
                          interval=0)


def test_modulator_determinism():
    def run(seed):
        env, topo, net = fixture()
        env.rng.seed = seed
        link = topo.links["A<->B:fwd"]
        mod = LinkLoadModulator(env, net, link, mean_load=0.7,
                                rng=env.rng.stream("mod"), interval=1.0)
        mod.start()
        env.run(until=50.0)
        return link.capacity

    # Same construction (seed=4 inside fixture) → same trajectory.
    assert run(4) == run(4)
