"""Tests for NWS sensors and the service + MDS publication."""

import pytest

from repro.mds import MdsService
from repro.net import FluidNetwork, Topology, mbps
from repro.nws import NetworkSensor, NetworkWeatherService
from repro.sim import Environment


def net_fixture(capacity=mbps(100), latency=0.01):
    env = Environment(seed=2)
    topo = Topology()
    topo.duplex_link("A", "B", capacity, latency)
    return env, topo, FluidNetwork(env, topo)


def test_probe_measures_free_path():
    env, topo, net = net_fixture()
    sensor = NetworkSensor(env, net, "A", "B", probe_bytes=64 * 1024)

    def main():
        result = yield from sensor.probe_once()
        return result

    p = env.process(main())
    env.run(until=p)
    result = p.value
    # 64 KB on an empty 100 Mb/s path ≈ link rate.
    assert result.bandwidth == pytest.approx(mbps(100), rel=0.05)
    assert result.latency == pytest.approx(0.01, rel=0.3)
    assert not result.timed_out


def test_probe_sees_congestion():
    env, topo, net = net_fixture()
    # Saturate the path with a long-lived flow.
    net.transfer("A", "B", mbps(100) * 1000)
    sensor = NetworkSensor(env, net, "A", "B")

    def main():
        result = yield from sensor.probe_once()
        return result.bandwidth

    p = env.process(main())
    env.run(until=p)
    # Fair share: about half the link.
    assert p.value == pytest.approx(mbps(50), rel=0.1)


def test_probe_times_out_on_dead_path():
    env, topo, net = net_fixture()
    topo.links["A<->B:fwd"].set_down()
    sensor = NetworkSensor(env, net, "A", "B", timeout=5.0)

    def main():
        result = yield from sensor.probe_once()
        return result

    p = env.process(main())
    env.run(until=p)
    assert p.value.timed_out
    assert p.value.bandwidth == 0.0
    assert sensor.probes_timed_out == 1


def test_sensor_validation():
    env, topo, net = net_fixture()
    with pytest.raises(ValueError):
        NetworkSensor(env, net, "A", "B", period=0)
    with pytest.raises(ValueError):
        NetworkSensor(env, net, "A", "B", probe_bytes=0)


def test_periodic_sensor_feeds_service():
    env, topo, net = net_fixture()
    nws = NetworkWeatherService(env, net)
    nws.monitor("A", "B", period=10.0)
    env.run(until=65.0)
    fc = nws.forecast("A", "B")
    assert fc is not None
    assert fc.samples >= 6
    assert fc.bandwidth == pytest.approx(mbps(100), rel=0.1)
    assert nws.forecast("B", "A") is None  # not monitored


def test_monitor_idempotent():
    env, topo, net = net_fixture()
    nws = NetworkWeatherService(env, net)
    s1 = nws.monitor("A", "B")
    s2 = nws.monitor("A", "B")
    assert s1 is s2
    assert nws.monitored_pairs() == (("A", "B"),)


def test_observe_external_measurement():
    env, topo, net = net_fixture()
    nws = NetworkWeatherService(env, net)
    nws.observe("A", "B", bandwidth=mbps(42), latency=0.005)
    fc = nws.forecast("A", "B")
    assert fc.bandwidth == pytest.approx(mbps(42))


def test_forecast_tracks_outage_and_recovery():
    env, topo, net = net_fixture()
    nws = NetworkWeatherService(env, net)
    nws.monitor("A", "B", period=5.0)
    link = topo.links["A<->B:fwd"]

    def outage(env):
        yield env.timeout(30.0)
        link.set_down()
        net.reallocate()
        yield env.timeout(40.0)
        link.restore()
        net.reallocate()

    env.process(outage(env))
    env.run(until=60.0)
    fc_during = nws.forecast("A", "B")
    assert fc_during.bandwidth < mbps(100) * 0.8  # outage pulled it down
    env.run(until=200.0)
    fc_after = nws.forecast("A", "B")
    assert fc_after.bandwidth > fc_during.bandwidth


def test_nws_publishes_into_mds():
    env, topo, net = net_fixture()
    mds = MdsService(env)
    nws = NetworkWeatherService(env, net, mds=mds)
    nws.monitor("A", "B", period=10.0)
    env.run(until=35.0)

    def main():
        result = yield from mds.nws_forecast("A", "B")
        missing = yield from mds.nws_forecast("A", "Z")
        return result, missing

    p = env.process(main())
    env.run(until=p)
    (bw, lat), missing = p.value
    assert bw == pytest.approx(mbps(100), rel=0.1)
    assert missing is None
