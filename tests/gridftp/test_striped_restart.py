"""Tests for striped transfers, channel caching, and fault restart."""

import pytest

from repro.gridftp import (
    GridFtpConfig,
    GridFtpError,
    GridFtpServer,
    ReliabilityPolicy,
    StripedServer,
)
from repro.gridftp.channels import IDLE_TTL
from repro.hosts import CpuModel, DiskArray, DiskSpec, Host, HostSpec
from repro.net import (
    FaultInjector,
    FaultSchedule,
    aggregate_series,
    MB,
    gbps,
    mbps,
    to_mbps,
)
from repro.storage import FileSystem

from tests.gridftp.conftest import Grid


def make_striped(grid, n_backends=4, file_size=256 * MB):
    """Add n backend hosts at the server site, build a StripedServer."""
    spec = HostSpec(nic_rate=gbps(1), bus_rate=None,
                    cpu=CpuModel(coalesce=8),
                    disk=DiskArray(DiskSpec(rate=60 * 2**20), count=4))
    backends = []
    for i in range(n_backends):
        host = Host(grid.topo, f"stripe{i}", site="lbnl", spec=spec)
        host.uplink("r-lbnl")
        hostname = f"stripe{i}.lbl.gov"
        grid.ns.register(hostname, host.node)
        fs = FileSystem(grid.env, f"stripe{i}-fs")
        server = GridFtpServer(grid.env, host, fs, gsi=grid.gsi,
                               credential_chain=grid.server.credential_chain,
                               hostname=hostname)
        grid.registry[hostname] = server
        backends.append(server)
    striped = StripedServer("striped.lbl.gov", backends)
    striped.partition_file("big.dat", file_size)
    return striped


def test_striped_partitions_evenly():
    grid = Grid()
    striped = make_striped(grid, n_backends=4, file_size=100 * MB)
    layout = striped.layout("big.dat")
    assert len(layout) == 4
    assert sum(s for _, _, s in layout) == pytest.approx(100 * MB)
    for i, (idx, name, size) in enumerate(layout):
        assert idx == i
        assert striped.backends[i].fs.exists(name)


def test_striped_content_reassembled():
    grid = Grid()
    striped = make_striped(grid, n_backends=3, file_size=0)
    payload = bytes(range(90))
    striped.partition_file("c.bin", 90, content=payload)

    def main():
        return (yield from striped.striped_get(
            grid.client, grid.client_host, "c.bin", grid.client_fs))

    res = grid.run_process(main())
    assert res.total_bytes == 90
    assert grid.client_fs.stat("c.bin").content == payload


def test_striped_beats_single_server():
    """Striping across hosts lifts the per-host CPU/NIC ceiling."""
    # Single server (CPU-capped around 1 Gb/s per host, WAN at 2.5 Gb/s).
    single = Grid(wan=gbps(2.5))
    single.server_fs.create("big.dat", 512 * MB)

    def one():
        session = yield from single.client.connect(single.client_host,
                                                   "srv.lbl.gov")
        t0 = single.env.now
        yield from session.get("big.dat", single.client_fs,
                               single.client_host)
        return single.env.now - t0

    t_single = single.run_process(one())

    striped_grid = Grid(wan=gbps(2.5))
    # Beef up the client so the destination is not the bottleneck
    # (at SC'2000 the receive side was itself a striped 8-host cluster).
    striped_grid.client_host.spec.cpu = CpuModel(
        copy_cost_per_byte=1e-9, interrupt_cost=2e-6)
    striped_grid.client_host.set_coalescing(32)
    for l in ("nic:in", "uplink:in", "uplink:out", "disk:in"):
        striped_grid.client_host.links[l].restore(gbps(4))
        striped_grid.client_host.links[l].nominal_capacity = gbps(4)
    striped = make_striped(striped_grid, n_backends=4,
                           file_size=512 * MB)

    def many():
        t0 = striped_grid.env.now
        yield from striped.striped_get(striped_grid.client,
                                       striped_grid.client_host,
                                       "big.dat", striped_grid.client_fs)
        return striped_grid.env.now - t0

    t_striped = striped_grid.run_process(many())
    assert t_striped < t_single / 1.5


def test_striped_unknown_file():
    grid = Grid()
    striped = make_striped(grid)
    with pytest.raises(GridFtpError, match="not striped"):
        striped.layout("ghost.dat")


def test_striped_needs_backends():
    with pytest.raises(ValueError):
        StripedServer("empty", [])


# -- channel caching -----------------------------------------------------------

def run_back_to_back(grid, caching: bool, n=3, size=8 * MB):
    cfg = GridFtpConfig(parallelism=1, buffer_bytes=MB,
                        channel_caching=caching)
    for i in range(n):
        grid.server_fs.create(f"f{i}.nc", size)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        t0 = grid.env.now
        stats = []
        for i in range(n):
            s = yield from session.get(f"f{i}.nc", grid.client_fs,
                                       grid.client_host, config=cfg)
            stats.append(s)
        return grid.env.now - t0, stats

    return grid.run_process(main())


def test_channel_caching_speeds_repeated_transfers():
    t_cold, stats_cold = run_back_to_back(Grid(), caching=False)
    t_warm, stats_warm = run_back_to_back(Grid(), caching=True)
    assert t_warm < t_cold
    assert not any(s.channel_reused for s in stats_cold)
    assert any(s.channel_reused for s in stats_warm[1:])


def test_channel_cache_reuse_counter():
    grid = Grid()
    run_back_to_back(grid, caching=True, n=4)
    assert grid.client.channel_cache.reuses >= 3


def test_channel_cache_ttl_expires():
    grid = Grid()
    cfg = GridFtpConfig(channel_caching=True, buffer_bytes=MB)
    grid.server_fs.create("a.nc", MB)
    grid.server_fs.create("b.nc", MB)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        yield from session.get("a.nc", grid.client_fs, grid.client_host,
                               config=cfg)
        yield grid.env.timeout(2 * IDLE_TTL)  # longer than the ttl
        s = yield from session.get("b.nc", grid.client_fs, grid.client_host,
                                   config=cfg)
        return s

    stats = grid.run_process(main())
    assert not stats.channel_reused
    assert grid.client.channel_cache.expirations >= 1


# -- restart under faults ---------------------------------------------------------

def test_transfer_survives_wan_outage():
    grid = Grid()
    grid.server_fs.create("data.nc", 200 * MB)
    sched = FaultSchedule().link_outage("wan:fwd", start=2.0, duration=20.0,
                                        description="backbone problem")
    FaultInjector(grid.env, grid.net, grid.ns).install(sched)
    cfg = GridFtpConfig(parallelism=2, buffer_bytes=MB,
                        stall_timeout=5.0, retry_backoff=2.0)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        stats = yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg)
        return stats

    stats = grid.run_process(main())
    assert stats.restarts >= 1
    assert grid.client_fs.stat("data.nc").size == pytest.approx(200 * MB)
    # Interrupted transfers "continued as soon as the network was restored".
    assert stats.finished_at > 22.0


def test_transfer_gives_up_after_retry_limit():
    grid = Grid()
    grid.server_fs.create("data.nc", 200 * MB)
    # Permanent outage.
    grid.topo.links["wan:fwd"].set_down()
    grid.net.reallocate()
    cfg = GridFtpConfig(stall_timeout=3.0, retry_limit=2, retry_backoff=1.0)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        with pytest.raises(GridFtpError) as err:
            yield from session.get("data.nc", grid.client_fs,
                                   grid.client_host, config=cfg)
        return err.value

    err = grid.run_process(main())
    assert err.transient  # 426: retry later is legitimate


def test_restart_resumes_not_resends():
    """Bytes delivered before the outage are not transferred again."""
    grid = Grid()
    size = 100 * MB
    grid.server_fs.create("data.nc", size)
    sched = FaultSchedule().link_outage("wan:fwd", start=3.0, duration=10.0)
    FaultInjector(grid.env, grid.net, grid.ns).install(sched)
    cfg = GridFtpConfig(parallelism=1, buffer_bytes=MB, stall_timeout=4.0,
                        retry_backoff=1.0)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        stats = yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg,
                                       record=True)
        return stats

    stats = grid.run_process(main())
    # Total wire bytes equal the file size (only undelivered tails resent).
    agg = aggregate_series(stats.series)
    assert agg.bytes_between(agg.t_start, agg.t_end) == pytest.approx(
        size, rel=0.01)


# -- reliability policy ------------------------------------------------------

def test_reliability_policy_fires_after_consecutive_lows():
    policy = ReliabilityPolicy(min_rate=mbps(10), grace_period=10.0,
                               consecutive_samples=3)
    assert not policy.observe(5.0, 0.0)          # in grace period
    assert not policy.observe(11.0, mbps(1))
    assert not policy.observe(12.0, mbps(1))
    assert policy.observe(13.0, mbps(1))         # third low sample
    assert not policy.observe(14.0, mbps(1))     # counter reset after firing


def test_reliability_policy_reset_on_good_sample():
    policy = ReliabilityPolicy(min_rate=mbps(10), grace_period=0.0,
                               consecutive_samples=2)
    assert not policy.observe(1.0, mbps(1))
    assert not policy.observe(2.0, mbps(50))  # recovery resets the count
    assert not policy.observe(3.0, mbps(1))
    assert policy.observe(4.0, mbps(1))


def test_reliability_policy_validation():
    with pytest.raises(ValueError):
        ReliabilityPolicy(min_rate=0)
    with pytest.raises(ValueError):
        ReliabilityPolicy(min_rate=1, consecutive_samples=0)


def test_put_survives_wan_outage():
    """Uploads are restartable too (the shared block pump)."""
    grid = Grid()
    grid.client_fs.create("up.dat", 150 * MB)
    sched = FaultSchedule().link_outage("wan:rev", start=2.0,
                                        duration=15.0,
                                        description="uplink outage")
    FaultInjector(grid.env, grid.net, grid.ns).install(sched)
    cfg = GridFtpConfig(parallelism=2, buffer_bytes=MB,
                        stall_timeout=5.0, retry_backoff=2.0)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        stats = yield from session.put("up.dat", grid.client_fs,
                                       grid.client_host, config=cfg)
        return stats

    stats = grid.run_process(main())
    assert stats.restarts >= 1
    assert grid.server_fs.stat("up.dat").size == pytest.approx(150 * MB)
    assert stats.finished_at > 17.0
