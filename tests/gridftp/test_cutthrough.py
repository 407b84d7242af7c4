"""Stage/transfer cut-through: RETR against a still-staging tape file.

With ``GridFtpConfig.stage_watermark`` set, a whole-file RETR of a
tape-resident file starts moving bytes once the staged prefix crosses
the watermark instead of waiting for the full stage, with the transfer
rate capped at the tape drive rate so the stream can never overtake the
staged watermark.
"""

import pytest

from repro.gridftp import GridFtpConfig
from repro.netlogger import NetLogger
from repro.obs import Observability
from repro.storage import (
    FileObject,
    HierarchicalResourceManager,
    MassStorageSystem,
)

from .conftest import Grid

MB = 2**20


def tape_grid(cold_size=140 * MB, position=0.0, **grid_kw):
    """A Grid whose server fronts a single-drive MSS with one cold file."""
    grid = Grid(**grid_kw)
    mss = MassStorageSystem(grid.env, cache_capacity=10 * 2**30, drives=1)
    grid.server.hrm = HierarchicalResourceManager(
        grid.env, mss, grid.server_fs)
    mss.archive(FileObject("cold.nc", cold_size), tape="T1",
                position=position)
    return grid, mss


def fetch(grid, config=None, path="cold.nc"):
    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        t0 = grid.env.now
        stats = yield from session.get(path, grid.client_fs,
                                       grid.client_host, config=config)
        return stats, t0, grid.env.now

    return grid.run_process(main())


def test_cutthrough_starts_before_stage_completes():
    grid, mss = tape_grid()
    logger = NetLogger(grid.env)
    grid.server.hrm.obs = Observability(logger=logger)
    cfg = GridFtpConfig(stage_watermark=0.25)
    stats, t0, t_end = fetch(grid, cfg)
    assert grid.server.cutthrough_served == 1
    assert stats.transferred_bytes == pytest.approx(140 * MB)
    assert grid.client_fs.exists("cold.nc")
    # The stage alone takes mount 40 + 140 MB / 14 MBps = 50 s; the data
    # channel must open well before that.
    stage_done = logger.select("hrm.stage.done")[0].t
    assert t0 < stage_done
    assert t_end > stage_done        # capped stream cannot finish earlier
    # The stage pin was taken and balanced exactly.
    assert not mss.cache.is_pinned("cold.nc")


def test_cutthrough_lowers_ttfb_not_makespan():
    """Against the sequential baseline, cut-through moves the first byte
    far earlier and never finishes later."""
    from repro.gridftp import TransferHandle

    def run(watermark):
        grid, _mss = tape_grid()
        cfg = GridFtpConfig(stage_watermark=watermark)
        handle = TransferHandle(grid.env, "cold.nc", 0.0)

        def main():
            session = yield from grid.client.connect(grid.client_host,
                                                     "srv.lbl.gov")
            t0 = grid.env.now
            yield from session.get("cold.nc", grid.client_fs,
                                   grid.client_host, handle=handle,
                                   config=cfg)
            return t0, handle.first_byte_at, grid.env.now

        t0, first_byte, t_end = grid.run_process(main())
        return first_byte - t0, t_end - t0

    seq_ttfb, seq_elapsed = run(None)
    cut_ttfb, cut_elapsed = run(0.125)
    # Sequential: first byte after the full stage (mount 40 + 10 s
    # stream). Cut-through: after the 12.5% watermark (~41.3 s).
    assert seq_ttfb > 49.0
    assert cut_ttfb < 43.0
    # And the makespan is no worse: the overlap only helps.
    assert cut_elapsed <= seq_elapsed


def test_cutthrough_never_outruns_staged_watermark():
    """Sampled during the transfer, delivered bytes never exceed the
    staged prefix (rate cap at the tape rate + watermark head start)."""
    from repro.gridftp import TransferHandle
    grid, mss = tape_grid()
    cfg = GridFtpConfig(stage_watermark=0.25)
    handle = TransferHandle(grid.env, "cold.nc", 0.0)
    samples = []

    def sampler():
        req = None
        while not grid.client_fs.exists("cold.nc"):
            req = req or grid.server.hrm._inflight.get("cold.nc")
            if req is not None and req.progress is not None:
                samples.append((handle.bytes_done(),
                                req.progress.staged_bytes()))
            yield grid.env.timeout(1.0)

    grid.env.process(sampler())

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        yield from session.get("cold.nc", grid.client_fs,
                               grid.client_host, handle=handle,
                               config=cfg)

    grid.run_process(main())
    assert handle.cutthrough
    assert samples, "sampler never saw the in-flight stage"
    for delivered, staged in samples:
        assert delivered <= staged + 1e-6


def test_cutthrough_skipped_when_already_staged():
    grid, mss = tape_grid()
    cfg = GridFtpConfig(stage_watermark=0.25)
    fetch(grid, cfg)
    grid.client_fs.delete("cold.nc")
    stats, t0, t_end = fetch(grid, cfg)   # warm: served from disk
    assert grid.server.cutthrough_served == 1   # only the first RETR
    assert stats.transferred_bytes == pytest.approx(140 * MB)


def test_cutthrough_disabled_for_partial_and_eret_requests():
    """Offset/length and ERET requests need the materialized file; the
    watermark only applies to whole-file RETRs."""
    grid, mss = tape_grid()
    cfg = GridFtpConfig(stage_watermark=0.25)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        stats = yield from session.get("cold.nc", grid.client_fs,
                                       grid.client_host, offset=10 * MB,
                                       config=cfg)
        return stats

    stats = grid.run_process(main())
    assert grid.server.cutthrough_served == 0
    assert stats.transferred_bytes == pytest.approx(130 * MB)
    assert not mss.cache.is_pinned("cold.nc")


def test_stage_watermark_validation():
    with pytest.raises(ValueError):
        GridFtpConfig(stage_watermark=0.0)
    with pytest.raises(ValueError):
        GridFtpConfig(stage_watermark=1.5)
    GridFtpConfig(stage_watermark=1.0)     # boundary is legal


def test_plain_transfer_pin_balance_unchanged():
    """Without a watermark the stage pin is still taken per RETR and
    balanced by finish_retrieve."""
    grid, mss = tape_grid()
    fetch(grid, GridFtpConfig())
    assert grid.server.cutthrough_served == 0
    assert not mss.cache.is_pinned("cold.nc")
    grid.client_fs.delete("cold.nc")
    fetch(grid, GridFtpConfig())           # warm re-read, same balance
    assert not mss.cache.is_pinned("cold.nc")
