"""Tests for the host model (CPU, disk, NIC bottleneck links)."""

import pytest

from repro.hosts import CpuModel, DiskArray, DiskSpec, Host, HostSpec
from repro.net import FluidNetwork, Topology, gbps, mbps, to_mbps
from repro.sim import Environment


# -- CpuModel -----------------------------------------------------------------

def test_cpu_cap_rises_with_coalescing():
    base = CpuModel(coalesce=1)
    coalesced = base.with_coalescing(8)
    assert coalesced.throughput_cap > 2 * base.throughput_cap


def test_cpu_cap_rises_with_jumbo_frames():
    base = CpuModel(coalesce=1)
    jumbo = base.with_jumbo_frames()
    assert jumbo.throughput_cap > base.throughput_cap
    assert jumbo.mtu == 9000.0


def test_default_cpu_matches_paper_regime():
    """Coalescing on: close to GbE line rate, CPU ~100%. Off: well below."""
    on = CpuModel()  # coalesce=8 default
    off = on.with_coalescing(1)
    assert mbps(700) < on.throughput_cap < gbps(1.3)
    assert off.throughput_cap < mbps(500)
    # At its own cap the CPU is saturated.
    assert on.utilization(on.throughput_cap) == pytest.approx(1.0)


def test_cpu_utilization_clamped_and_validated():
    cpu = CpuModel()
    assert cpu.utilization(0) == 0.0
    assert cpu.utilization(1e12) == 1.0
    with pytest.raises(ValueError):
        cpu.utilization(-1)


def test_cpu_validation():
    with pytest.raises(ValueError):
        CpuModel(copy_cost_per_byte=0)
    with pytest.raises(ValueError):
        CpuModel(mtu=0)
    with pytest.raises(ValueError):
        CpuModel(coalesce=0)


# -- DiskArray -----------------------------------------------------------------

def test_single_disk_has_no_raid_overhead():
    d = DiskArray(DiskSpec(rate=30 * 2**20), count=1)
    assert d.rate == 30 * 2**20


def test_raid_scales_with_overhead():
    d = DiskArray(DiskSpec(rate=30 * 2**20), count=4, raid_overhead=0.05)
    assert d.rate == pytest.approx(4 * 30 * 2**20 * 0.95)


def test_disk_validation():
    with pytest.raises(ValueError):
        DiskSpec(rate=0)
    with pytest.raises(ValueError):
        DiskArray(count=0)
    with pytest.raises(ValueError):
        DiskArray(raid_overhead=1.0)


# -- HostSpec -----------------------------------------------------------------

def test_line_rate_bonded_and_bus_capped():
    spec = HostSpec(nic_rate=gbps(1), nic_count=2, bus_rate=None)
    assert spec.line_rate == gbps(2)
    capped = HostSpec(nic_rate=gbps(1), nic_count=2, bus_rate=133 * 2**20)
    assert capped.line_rate == 133 * 2**20


def test_spec_validation():
    with pytest.raises(ValueError):
        HostSpec(nic_rate=0)
    with pytest.raises(ValueError):
        HostSpec(nic_count=0)
    with pytest.raises(ValueError):
        HostSpec(bus_rate=0)


# -- Host wiring ----------------------------------------------------------------

def two_hosts(spec_a=None, spec_b=None, wan=gbps(2.5), latency=0.008):
    env = Environment(seed=5)
    topo = Topology()
    a = Host(topo, "a", site="dallas", spec=spec_a)
    b = Host(topo, "b", site="berkeley", spec=spec_b)
    a.uplink("r-dallas")
    b.uplink("r-berkeley")
    topo.duplex_link("r-dallas", "r-berkeley", wan, latency, name="wan")
    return env, topo, FluidNetwork(env, topo), a, b


def test_duplicate_host_name_rejected():
    topo = Topology()
    Host(topo, "x")
    with pytest.raises(ValueError):
        Host(topo, "x")


def test_endpoint_names():
    topo = Topology()
    h = Host(topo, "w1")
    assert h.endpoint("store") == "host:w1:store"
    assert h.endpoint("app") == "host:w1:app"
    assert h.endpoint("net") == "w1"
    with pytest.raises(ValueError):
        h.endpoint("gpu")


def test_store_to_store_path_traverses_all_bottlenecks():
    env, topo, net, a, b = two_hosts()
    path = topo.path(a.store_node, b.store_node)
    names = [l.name for l in path]
    assert "host:a:disk:out" in names
    assert "host:a:cpu:out" in names
    assert "host:a:nic:out" in names
    assert "wan:fwd" in names
    assert "host:b:nic:in" in names
    assert "host:b:cpu:in" in names
    assert "host:b:disk:in" in names


def test_disk_limited_transfer():
    """A slow source disk caps an otherwise fast path (Figure 8 regime)."""
    slow_disk = HostSpec(nic_rate=mbps(100), bus_rate=None,
                         disk=DiskArray(DiskSpec(rate=10 * 2**20)))
    env, topo, net, a, b = two_hosts(spec_a=slow_disk)
    flow = net.transfer(a.store_node, b.store_node, 100 * 2**20)
    net.reallocate()
    assert flow.rate == pytest.approx(10 * 2**20)
    env.run()


def test_memory_transfer_skips_disk():
    slow_disk = HostSpec(nic_rate=mbps(100), bus_rate=None,
                         disk=DiskArray(DiskSpec(rate=10 * 2**20)))
    env, topo, net, a, b = two_hosts(spec_a=slow_disk, spec_b=slow_disk)
    flow = net.transfer(a.app_node, b.app_node, 100 * 2**20)
    net.reallocate()
    assert flow.rate == pytest.approx(mbps(100))
    env.run()


def test_cpu_limits_gigabit_host_without_coalescing():
    spec = HostSpec(nic_rate=gbps(1), bus_rate=None,
                    cpu=CpuModel(coalesce=1),
                    disk=DiskArray(DiskSpec(rate=100 * 2**20), count=4))
    env, topo, net, a, b = two_hosts(spec_a=spec, spec_b=spec)
    flow = net.transfer(a.app_node, b.app_node, 100 * 2**20)
    net.reallocate()
    assert flow.rate == pytest.approx(spec.cpu.throughput_cap)
    assert flow.rate < mbps(500)
    env.run()


def test_set_coalescing_updates_live_links():
    spec = HostSpec(nic_rate=gbps(1), bus_rate=None,
                    cpu=CpuModel(coalesce=1))
    env, topo, net, a, b = two_hosts(spec_a=spec)
    before = a.links["cpu:out"].capacity
    a.set_coalescing(8)
    after = a.links["cpu:out"].capacity
    assert after > 2 * before
    assert a.links["cpu:out"].nominal_capacity == after


def test_two_flows_share_host_disk():
    env, topo, net, a, b = two_hosts()
    disk_rate = a.spec.disk.rate
    f1 = net.transfer(a.store_node, b.store_node, disk_rate * 10)
    f2 = net.transfer(a.store_node, b.store_node, disk_rate * 10)
    net.reallocate()
    # Both flows read a's single disk array: it is the shared bottleneck.
    assert f1.rate + f2.rate == pytest.approx(min(disk_rate,
                                                  a.spec.cpu.throughput_cap,
                                                  gbps(2.5)))
    env.run()


def test_cpu_utilization_reporting():
    env, topo, net, a, b = two_hosts()
    assert a.spec.cpu.utilization(0) == 0.0
    cap = a.spec.cpu.throughput_cap
    assert a.spec.cpu.utilization(cap) == pytest.approx(1.0)
    assert 0.4 < a.spec.cpu.utilization(cap / 2) < 0.6
