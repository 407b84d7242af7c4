"""Unit coverage for GridFTP config, block planning, channel cache,
buffer negotiation, and HRM-backed serving."""

import pytest

from repro.gridftp import DataChannelCache, GridFtpConfig, GridFtpError
from repro.gridftp.channels import IDLE_TTL
from repro.gridftp.client import _make_blocks
from repro.gridftp.protocol import FtpReply
from repro.net import MB, TcpParams, mbps
from repro.sim import Environment

from tests.gridftp.conftest import Grid


# -- GridFtpConfig ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        GridFtpConfig(parallelism=0)
    with pytest.raises(ValueError):
        GridFtpConfig(buffer_bytes=0)
    with pytest.raises(ValueError):
        GridFtpConfig(retry_limit=-1)
    with pytest.raises(ValueError):
        GridFtpConfig(stall_timeout=0)
    with pytest.raises(ValueError):
        GridFtpConfig(progress_poll=0)
    with pytest.raises(ValueError):
        GridFtpConfig(loss_rate=-0.1)


def test_ftp_reply_classification():
    assert FtpReply(426).is_transient_error
    assert not FtpReply(226).is_transient_error
    assert not FtpReply(550).is_transient_error
    err = GridFtpError(FtpReply(425, "cannot open"))
    assert err.transient
    assert "425 cannot open" in str(err)
    assert not GridFtpError(FtpReply(550, "gone")).transient


# -- block planning ---------------------------------------------------------------

def test_make_blocks_sums_exactly():
    for nbytes in (1.0, 100.0, 10 * MB, 2**31 + 17.0):
        for parallelism in (1, 3, 8):
            blocks = _make_blocks(nbytes, parallelism)
            assert sum(length for _, length in blocks) \
                == pytest.approx(nbytes)
            assert all(length > 0 for _, length in blocks)
            # Offsets tile [0, nbytes) contiguously, in order.
            cursor = 0.0
            for offset, length in blocks:
                assert offset == pytest.approx(cursor)
                cursor += length


def test_make_blocks_min_size_respected():
    blocks = _make_blocks(300 * 1024.0, parallelism=8)
    # 300 KB cannot produce 32 blocks of >= 256 KB: collapses to 1.
    assert len(blocks) == 1


def test_make_blocks_more_blocks_than_channels():
    blocks = _make_blocks(64 * MB, parallelism=4)
    assert len(blocks) == 16  # 4x channels


def test_make_blocks_zero():
    assert _make_blocks(0.0, 4) == []


# -- channel cache -----------------------------------------------------------------

class FakeConn:
    def __init__(self, src="a", dst="b"):
        self.src, self.dst = src, dst
        self.open = True
        self.transfers = 0

    def close(self):
        self.open = False


def test_channel_cache_roundtrip():
    env = Environment()
    cache = DataChannelCache(env)
    conn = FakeConn()
    cache.release(conn)
    assert cache.idle_count("a", "b") == 1
    got = cache.acquire("a", "b")
    assert got is conn
    assert cache.reuses == 1
    assert cache.acquire("a", "b") is None


def test_channel_cache_ignores_closed_and_wrong_pair():
    env = Environment()
    cache = DataChannelCache(env)
    dead = FakeConn()
    dead.close()
    cache.release(dead)  # dropped silently
    assert cache.acquire("a", "b") is None
    cache.release(FakeConn("x", "y"))
    assert cache.acquire("a", "b") is None
    assert cache.acquire("x", "y") is not None


def test_channel_cache_ttl_and_drain():
    env = Environment()
    cache = DataChannelCache(env)
    cache.release(FakeConn())

    def later(env):
        yield env.timeout(2 * IDLE_TTL)

    p = env.process(later(env))
    env.run()
    assert cache.acquire("a", "b") is None
    assert cache.expirations == 1
    c1, c2 = FakeConn(), FakeConn()
    cache.release(c1)
    cache.release(c2)
    assert cache.drain() == 2
    assert not c1.open and not c2.open


def test_channel_cache_idle_ttl_boundary():
    """TTL is strict: alive at exactly IDLE_TTL, expired just past it,
    and a stale channel is closed at acquire time — never handed out."""
    env = Environment()
    cache = DataChannelCache(env)
    keeper = FakeConn()
    cache.release(keeper)

    def clock(env):
        yield env.timeout(IDLE_TTL)   # exactly the TTL: still reusable

    env.process(clock(env))
    env.run()
    assert cache.acquire("a", "b") is keeper and keeper.open
    cache.release(keeper)

    def clock2(env):
        yield env.timeout(IDLE_TTL + 1e-6)  # just past: expired

    env.process(clock2(env))
    env.run()
    assert cache.acquire("a", "b") is None
    assert not keeper.open            # torn down, not leaked
    assert cache.expirations == 1
    assert cache.reuses == 1          # the expiry did not count as reuse


def test_channel_cache_drain_reports_stale_channels():
    """A channel idling past its TTL still counts in drain(): expiry is
    lazy (checked at acquire), so teardown must sweep it too."""
    env = Environment()
    cache = DataChannelCache(env)
    stale, fresh = FakeConn(), FakeConn("x", "y")
    cache.release(stale)

    def clock(env):
        yield env.timeout(2 * IDLE_TTL)

    env.process(clock(env))
    env.run()
    cache.release(fresh)
    assert cache.drain() == 2
    assert not stale.open and not fresh.open
    assert cache.idle_count("a", "b") == 0
    assert cache.idle_count("x", "y") == 0


# -- buffer negotiation ------------------------------------------------------------

def test_negotiate_buffer_explicit_wins():
    grid = Grid()
    cfg = GridFtpConfig(buffer_bytes=123456.0)
    assert grid.client.negotiate_buffer("srv", "cli", cfg) == 123456.0


def test_negotiate_buffer_auto_uses_bdp():
    grid = Grid(wan=mbps(622), latency=0.008)
    cfg = GridFtpConfig(buffer_bytes=None)
    buf = grid.client.negotiate_buffer(
        grid.server_host.store_node, grid.client_host.store_node, cfg)
    # BDP of the bottleneck (~client cpu/nic) at RTT ~16ms, at least 64 KB.
    assert buf >= 64 * 1024
    rtt = grid.topo.rtt(grid.server_host.store_node,
                        grid.client_host.store_node)
    bottleneck = grid.topo.bottleneck_capacity(
        grid.server_host.store_node, grid.client_host.store_node)
    assert buf == pytest.approx(max(bottleneck * rtt, 64 * 1024))


# -- serving tape-backed files over GridFTP ----------------------------------------

def test_server_serves_from_hrm_transparently():
    """'The motivation for GridFTP is to provide a uniform interface to
    various storage systems' — a RETR against a tape-resident file
    stages then serves, same client code path."""
    from repro.storage import (FileObject, FileSystem,
                               HierarchicalResourceManager,
                               MassStorageSystem)
    grid = Grid()
    mss = MassStorageSystem(grid.env, cache_capacity=10 * 2**30, drives=1)
    grid.server.hrm = HierarchicalResourceManager(
        grid.env, mss, grid.server_fs)
    mss.archive(FileObject("cold.nc", 50 * MB), tape="T1", position=0.2)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        assert grid.server.exists("cold.nc")
        assert grid.server.size("cold.nc") == 50 * MB
        t0 = grid.env.now
        stats = yield from session.get("cold.nc", grid.client_fs,
                                       grid.client_host)
        return stats, grid.env.now - t0

    stats, elapsed = grid.run_process(main())
    assert stats.transferred_bytes == pytest.approx(50 * MB)
    assert grid.client_fs.exists("cold.nc")
    # Staging cost dominates (mount + seek + read at 14 MB/s).
    assert elapsed > 40.0
    assert mss.stage_count == 1


def test_server_store_overwrite_false_rejected():
    from repro.storage import FileExistsError_
    grid = Grid()
    grid.server.store("x.nc", 100)
    with pytest.raises(FileExistsError_):
        grid.server.store("x.nc", 100, overwrite=False)
    # Default overwrites.
    grid.server.store("x.nc", 200)
    assert grid.server_fs.stat("x.nc").size == 200


def test_put_missing_source_raises():
    from repro.storage import FileNotFoundError_
    grid = Grid()

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        with pytest.raises(FileNotFoundError_):
            yield from session.put("ghost.nc", grid.client_fs,
                                   grid.client_host)

    grid.run_process(main())


def test_transfer_stats_repr_and_mean_rate():
    from repro.gridftp import TransferStats
    s = TransferStats(path="x", requested_bytes=100.0,
                      transferred_bytes=100.0, started_at=1.0,
                      finished_at=3.0)
    assert s.duration == 2.0
    assert s.mean_rate == 50.0
    assert "x" in repr(s)
    instant = TransferStats(path="y", requested_bytes=0.0)
    assert instant.mean_rate == 0.0
