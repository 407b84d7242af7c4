"""Tests for GridFTP sessions, gets, puts, partial and plugin retrieval."""

import pytest

from repro.gridftp import GridFtpConfig, GridFtpError, TransferHandle
from repro.gsi.credentials import PROXY_LIFETIME
from repro.net import MB, mbps, to_mbps

GB = 2 ** 30


def test_connect_authenticates(grid):
    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        return session.subjects

    client_subj, server_subj = grid.run_process(main())
    assert client_subj == "/CN=climate-user"
    assert server_subj == "/CN=gridftp/srv.lbl.gov"
    assert grid.gsi.handshakes == 1


def test_client_delegates_once_while_its_proxy_is_valid(grid):
    def main():
        chains = []
        for _ in range(2):
            session = yield from grid.client.connect(grid.client_host,
                                                     "srv.lbl.gov")
            session.close()
            chains.append(grid.client.credential_chain)
            yield grid.env.timeout(60.0)
        return chains

    assert grid.client.credential_chain == ()
    first, second = grid.run_process(main())
    assert second is first
    assert first[0].subject == "/CN=climate-user/proxy"
    assert first[0].not_after > PROXY_LIFETIME  # delegated at the connect
    assert grid.gsi.handshakes == 2


def test_client_delegates_a_fresh_proxy_after_expiry(grid):
    """A connect past ``PROXY_LIFETIME`` presents a newly delegated
    chain instead of failing with 530."""
    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        session.close()
        first = grid.client.credential_chain
        yield grid.env.timeout(PROXY_LIFETIME)
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        return first, grid.client.credential_chain, session.subjects

    first, second, subjects = grid.run_process(main())
    assert first[0].is_expired(grid.env.now)
    assert second[0] != first[0]
    assert not second[0].is_expired(grid.env.now)
    assert second[1:] == first[1:]  # the same end-entity certificate
    assert subjects == ("/CN=climate-user", "/CN=gridftp/srv.lbl.gov")
    assert grid.gsi.rejections == 0


def test_connect_unknown_server(grid):
    def main():
        with pytest.raises(GridFtpError, match="unknown server"):
            yield from grid.client.connect(grid.client_host, "ghost.gov")
        yield grid.env.timeout(0)

    grid.run_process(main())


def test_size_and_missing_file(grid):
    grid.server_fs.create("data.nc", 123456)
    assert grid.server.size("data.nc") == 123456
    with pytest.raises(GridFtpError, match="no such file"):
        grid.server.size("ghost.nc")


def test_get_transfers_file(grid):
    grid.server_fs.create("data.nc", 100 * MB)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        stats = yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host)
        return stats

    stats = grid.run_process(main())
    assert stats.transferred_bytes == pytest.approx(100 * MB)
    assert grid.client_fs.exists("data.nc")
    assert grid.client_fs.stat("data.nc").size == pytest.approx(100 * MB)
    assert stats.mean_rate > mbps(50)
    assert grid.server.bytes_served == pytest.approx(100 * MB)


def test_get_preserves_content(grid):
    payload = bytes(range(256)) * 10
    grid.server_fs.create("small.bin", len(payload), content=payload)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        yield from session.get("small.bin", grid.client_fs,
                               grid.client_host)

    grid.run_process(main())
    assert grid.client_fs.stat("small.bin").content == payload


def test_partial_retrieval(grid):
    payload = bytes(range(100))
    grid.server_fs.create("part.bin", 100, content=payload)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        stats = yield from session.get("part.bin", grid.client_fs,
                                       grid.client_host,
                                       dest_name="part.mid",
                                       offset=10, length=20)
        return stats

    stats = grid.run_process(main())
    assert stats.transferred_bytes == 20
    assert grid.client_fs.stat("part.mid").content == payload[10:30]


def test_partial_validation(grid):
    grid.server_fs.create("p.bin", 100)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        with pytest.raises(GridFtpError, match="beyond size"):
            yield from session.get("p.bin", grid.client_fs,
                                   grid.client_host, offset=200)
        with pytest.raises(GridFtpError, match="negative"):
            yield from session.get("p.bin", grid.client_fs,
                                   grid.client_host, offset=-5)

    grid.run_process(main())


def test_eret_plugin_reduces_bytes(grid):
    """Server-side processing: ship the derived product, not the file."""
    payload = b"x" * 1000
    grid.server_fs.create("big.nc", 1000, content=payload)
    grid.server.register_plugin(
        "subset", lambda f, args: (args["n"], f.content[:args["n"]]))

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        stats = yield from session.get("big.nc", grid.client_fs,
                                       grid.client_host,
                                       dest_name="sub.nc",
                                       eret="subset", eret_args={"n": 100})
        return stats

    stats = grid.run_process(main())
    assert stats.transferred_bytes == 100
    assert grid.client_fs.stat("sub.nc").size == 100


def test_unknown_eret_plugin(grid):
    grid.server_fs.create("f.nc", 100)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        with pytest.raises(GridFtpError, match="no ERET plugin"):
            yield from session.get("f.nc", grid.client_fs,
                                   grid.client_host, eret="ghost")

    grid.run_process(main())


def test_parallel_streams_split_work(grid):
    from repro.net import aggregate_series
    grid.server_fs.create("data.nc", 200 * MB)

    def main():
        cfg = GridFtpConfig(parallelism=4, buffer_bytes=MB)
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        stats = yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, record=True,
                                       config=cfg)
        return stats

    stats = grid.run_process(main())
    assert stats.streams == 4
    assert stats.transferred_bytes == pytest.approx(200 * MB)
    agg = aggregate_series(stats.series)
    assert agg.bytes_between(agg.t_start, agg.t_end) == pytest.approx(200 * MB, rel=1e-6)


def test_window_limited_single_vs_parallel(grid):
    """With small buffers on a long path, N streams ≈ N× one stream —
    the paper's core reason for parallel transfers."""
    grid.server_fs.create("a.nc", 64 * MB)
    grid.server_fs.create("b.nc", 64 * MB)
    durations = {}

    def run(path, parallelism):
        cfg = GridFtpConfig(parallelism=parallelism, buffer_bytes=256 * 1024)
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        t0 = grid.env.now
        yield from session.get(path, grid.client_fs, grid.client_host,
                               config=cfg)
        durations[parallelism] = grid.env.now - t0

    grid.run_process(run("a.nc", 1))
    grid.run_process(run("b.nc", 4))
    assert durations[4] < durations[1] / 2.5


def test_put_uploads(grid):
    grid.client_fs.create("up.nc", 50 * MB, )

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        stats = yield from session.put("up.nc", grid.client_fs,
                                       grid.client_host)
        return stats

    stats = grid.run_process(main())
    assert stats.transferred_bytes == pytest.approx(50 * MB)
    assert grid.server_fs.exists("up.nc")


def test_insecure_grid_skips_auth(insecure_grid):
    g = insecure_grid
    g.server_fs.create("f.nc", MB)

    def main():
        session = yield from g.client.connect(g.client_host, "srv.lbl.gov")
        assert session.subjects == ("anonymous", "srv.lbl.gov")
        yield from session.get("f.nc", g.client_fs, g.client_host)

    g.run_process(main())
    assert g.client_fs.exists("f.nc")


def test_handle_reports_progress(grid):
    grid.server_fs.create("data.nc", 200 * MB)
    handle = TransferHandle(grid.env, "data.nc", 0.0)
    samples = []

    def monitor():
        while not handle.done.triggered:
            samples.append(handle.bytes_done())
            yield grid.env.timeout(0.5)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        grid.env.process(monitor())
        yield from session.get("data.nc", grid.client_fs, grid.client_host,
                               handle=handle)

    grid.run_process(main())
    assert samples[0] < 1 * MB
    assert any(0 < s < 200 * MB for s in samples)
    assert handle.bytes_done() == pytest.approx(200 * MB)
    assert handle.fraction == pytest.approx(1.0)


def test_handle_abort_cancels_transfer(grid):
    grid.server_fs.create("data.nc", 500 * MB)
    handle = TransferHandle(grid.env, "data.nc", 0.0)

    def aborter():
        yield grid.env.timeout(2.0)
        handle.abort("replica switch")

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        grid.env.process(aborter())
        with pytest.raises(GridFtpError):
            yield from session.get("data.nc", grid.client_fs,
                                   grid.client_host, handle=handle)
        return grid.env.now

    t = grid.run_process(main())
    assert t < 20.0  # did not run to completion


def test_third_party_copy(grid):
    """Client at ANL moves data between two other servers."""
    from repro.gridftp import GridFtpServer
    from repro.hosts import Host
    from repro.net import gbps
    from repro.storage import FileSystem

    third_host = Host(grid.topo, "third", site="ncar")
    third_host.uplink("r-ncar")
    grid.topo.duplex_link("r-ncar", "r-anl", mbps(622), 0.012,
                          name="wan-ncar")
    grid.ns.register("third.ncar.edu", "third")
    third_fs = FileSystem(grid.env, "third-fs")
    third_server = GridFtpServer(grid.env, third_host, third_fs,
                                 gsi=grid.gsi,
                                 credential_chain=grid.server.credential_chain,
                                 hostname="third.ncar.edu")
    grid.registry["third.ncar.edu"] = third_server
    grid.server_fs.create("data.nc", 20 * MB)

    def main():
        stats = yield from grid.client.third_party_copy(
            grid.client_host, "srv.lbl.gov", "third.ncar.edu", "data.nc")
        return stats

    stats = grid.run_process(main())
    assert stats.transferred_bytes == pytest.approx(20 * MB)
    assert third_fs.exists("data.nc")
    assert not grid.client_fs.exists("data.nc")  # data bypassed the client
