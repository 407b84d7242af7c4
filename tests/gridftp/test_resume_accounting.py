"""Regression: a reused TransferHandle must not double-count bytes.

Retrying a transfer on the same handle (the resume-after-failure
pattern) used to carry the failed attempt's ``_completed`` bytes and
in-flight taints forward, so schedulers saw phantom progress released
back to grants and clean copies arrived "tainted". ``begin_attempt``
resets per-attempt state on every get/put that reuses a handle.
"""

import pytest

from repro.data import ClimateModelRun, GridSpec
from repro.gridftp import GridFtpConfig, GridFtpError, TransferHandle
from repro.gridftp.plugins import install_standard_plugins
from repro.storage import FileObject

from .conftest import Grid

MB = 2**20

FAIL_FAST = GridFtpConfig(stall_timeout=3.0, retry_limit=1,
                          retry_backoff=1.0)


def outage(grid, at=2.0, links=("wan:fwd",), corrupt=False):
    """Open a corrupt window now, then hard-fail the WAN at ``at``."""
    for name in links:
        if corrupt:
            grid.topo.links[name].corrupt_hold()

    def faulter():
        yield grid.env.timeout(at)
        for name in links:
            grid.topo.links[name].set_down()
        grid.net.reallocate()

    grid.env.process(faulter())


def repair(grid, links=("wan:fwd",), corrupt=False):
    for name in links:
        if corrupt:
            grid.topo.links[name].release_corrupt()
        grid.topo.links[name].restore()
    grid.net.reallocate()


def test_reused_handle_does_not_double_count_or_carry_taints():
    grid = Grid()
    grid.server_fs.create("data.nc", 600 * MB)
    handle = TransferHandle(grid.env, "data.nc", 0.0)
    # One channel pumps blocks sequentially, so early blocks complete
    # inside the corrupt window (and get tainted) before the outage.
    cfg = GridFtpConfig(parallelism=1, stall_timeout=3.0, retry_limit=1,
                        retry_backoff=1.0)
    outage(grid, at=2.5, corrupt=True)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        with pytest.raises(GridFtpError):
            yield from session.get("data.nc", grid.client_fs,
                                   grid.client_host, handle=handle,
                                   config=cfg)
        partial = handle.bytes_done()
        stale_taints = len(handle.taints)
        repair(grid, corrupt=True)
        stats = yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, handle=handle,
                                       dest_name="retry.nc")
        return partial, stale_taints, stats

    partial, stale_taints, stats = grid.run_process(main())
    assert not handle.aborted               # failed, not user-aborted
    assert 0 < partial < 600 * MB           # the outage hit mid-flight
    assert stale_taints > 0                 # corrupt window really marked
    # Progress reflects THIS attempt only, not partial + full: the old
    # bug reported 200 MB + partial to anything polling the handle.
    assert handle.bytes_done() == pytest.approx(600 * MB)
    assert handle.fraction == pytest.approx(1.0)
    # The retry ran on a clean link, so the delivered copy must be
    # clean — stale taints no longer condemn it.
    assert not handle.taints
    assert stats.tainted_blocks == 0
    assert stats.transferred_bytes == pytest.approx(600 * MB)


def test_reused_handle_eret_accounting():
    """Same invariant when the retry is a small ERET request: stale
    bytes from the failed whole-file attempt would dwarf the derived
    product and push fraction far past 1."""
    grid = Grid()
    install_standard_plugins(grid.server)
    run = ClimateModelRun(grid=GridSpec(16, 32, 12), seed=11)
    blob = run.encode_year(1995, chunks={"time": 1, "lat": 8, "lon": 16})
    grid.server_fs.store(FileObject("year.nc", len(blob), content=blob))
    grid.server_fs.create("big.nc", 600 * MB)
    handle = TransferHandle(grid.env, "big.nc", 0.0)
    outage(grid)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", FAIL_FAST)
        with pytest.raises(GridFtpError):
            yield from session.get("big.nc", grid.client_fs,
                                   grid.client_host, handle=handle,
                                   config=FAIL_FAST)
        partial = handle.bytes_done()
        repair(grid)
        stats = yield from session.get(
            "year.nc", grid.client_fs, grid.client_host, handle=handle,
            dest_name="sub.nc", eret="subset",
            eret_args={"variable": "tas", "lat": (-30.0, 30.0)})
        return partial, stats

    partial, stats = grid.run_process(main())
    assert partial > 0
    assert stats.transferred_bytes < partial   # product ≪ stale bytes
    assert handle.bytes_done() == pytest.approx(stats.transferred_bytes)
    assert handle.fraction == pytest.approx(1.0)


def test_reused_handle_on_put():
    """Uploads reset per-attempt state too."""
    grid = Grid()
    grid.client_fs.create("up.nc", 600 * MB)
    handle = TransferHandle(grid.env, "up.nc", 0.0)
    links = ("wan:fwd", "wan:rev")
    outage(grid, links=links)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", FAIL_FAST)
        with pytest.raises(GridFtpError):
            yield from session.put("up.nc", grid.client_fs,
                                   grid.client_host, handle=handle,
                                   config=FAIL_FAST)
        partial = handle.bytes_done()
        repair(grid, links=links)
        yield from session.put("up.nc", grid.client_fs, grid.client_host,
                               handle=handle, dest_name="up2.nc")
        return partial

    partial = grid.run_process(main())
    assert partial > 0
    assert handle.bytes_done() == pytest.approx(600 * MB)
    assert handle.fraction == pytest.approx(1.0)
    assert grid.server_fs.stat("up2.nc").size == pytest.approx(600 * MB)
