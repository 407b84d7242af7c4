"""Integrity tests: taint marking and restart + verify."""

import pytest

from repro.data.digest import content_digest, file_digest, marks_of
from repro.gridftp import GridFtpConfig
from repro.net import MB, FaultInjector, FaultSchedule

from tests.gridftp.conftest import Grid


# -- taint propagation ------------------------------------------------------

def test_clean_transfer_delivers_pristine_digest():
    grid = Grid()
    grid.server_fs.create("data.nc", 20 * MB)
    cfg = GridFtpConfig(parallelism=2)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        stats = yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg)
        return stats

    stats = grid.run_process(main())
    delivered = grid.client_fs.stat("data.nc")
    assert stats.tainted_blocks == 0
    assert marks_of(delivered) == ()
    assert file_digest(delivered) == content_digest("data.nc", 20 * MB)


def test_corrupt_window_taints_delivered_file():
    """Blocks pumped through a corrupting link change the digest."""
    grid = Grid()
    grid.server_fs.create("data.nc", 100 * MB)
    # Window covers the whole transfer on the server->client direction.
    sched = FaultSchedule().corrupt_transfer("wan:fwd", 0.5, 60.0)
    FaultInjector(grid.env, grid.net, grid.ns).install(sched)
    cfg = GridFtpConfig(parallelism=2, buffer_bytes=MB)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        return (yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg))

    stats = grid.run_process(main())
    source_digest = file_digest(grid.server_fs.stat("data.nc"))
    delivered = grid.client_fs.stat("data.nc")
    assert stats.tainted_blocks >= 1
    assert marks_of(delivered)
    # End-to-end detection: arrival digest disagrees with the source's.
    assert file_digest(delivered) != source_digest
    assert source_digest == content_digest("data.nc", 100 * MB)


def _blocks_and_taints(window=None):
    """Pull a 64 MB file on one channel; each block flow's (start, end)
    and the taint marks, with an optional (start, duration) window."""
    grid = Grid()
    grid.server_fs.create("data.nc", 64 * MB)
    if window is not None:
        FaultInjector(grid.env, grid.net, grid.ns).install(
            FaultSchedule().corrupt_transfer("wan:fwd", *window))
    flows = []
    transfer = grid.net.transfer

    def recorded(*args, **kwargs):
        flow = transfer(*args, **kwargs)
        if kwargs.get("name", "").startswith("gridftp:"):
            flows.append(flow)
        return flow
    grid.net.transfer = recorded
    cfg = GridFtpConfig(parallelism=1, buffer_bytes=MB)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        return (yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg))

    stats = grid.run_process(main())
    return ([(f.started_at, f.finished_at) for f in flows],
            stats.tainted_blocks, marks_of(grid.client_fs.stat("data.nc")))


def test_window_opening_during_a_block_taints_that_block():
    """No link corrupts when the last block starts, so its start is not
    sampled; the window opens halfway through and the block still
    arrives damaged, and only that block."""
    blocks, tainted, _ = _blocks_and_taints()
    assert len(blocks) >= 2 and tainted == 0
    start, end = blocks[-1]
    _, tainted, marks = _blocks_and_taints(((start + end) / 2, 60.0))
    assert tainted == 1 and len(marks) == 1


def test_at_rest_corruption_changes_cksm():
    grid = Grid()
    grid.server_fs.create("data.nc", 10 * MB)
    clean = content_digest("data.nc", 10 * MB)
    grid.server.corrupt_file("data.nc", tag="at-rest@test")
    assert file_digest(grid.server_fs.stat("data.nc")) != clean
    assert grid.server.integrity_marks("data.nc") == ("at-rest@test",)


# -- restart markers compose with verification (satellite) ------------------

def test_restart_resume_then_digest_verifies():
    """Crash mid-file, resume from restart markers, digest still clean.

    The resumed transfer must reassemble a file whose digest matches the
    publish-time digest — restart markers must not corrupt, duplicate,
    or drop block ranges.
    """
    grid = Grid()
    size = 200 * MB
    grid.server_fs.create("data.nc", size)
    sched = FaultSchedule().link_outage("wan:fwd", start=1.0, duration=10.0)
    FaultInjector(grid.env, grid.net, grid.ns).install(sched)
    cfg = GridFtpConfig(parallelism=1, buffer_bytes=MB, stall_timeout=4.0,
                        retry_backoff=1.0)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        return (yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg))

    stats = grid.run_process(main())
    source_digest = file_digest(grid.server_fs.stat("data.nc"))
    assert stats.restarts >= 1                      # it really crashed
    delivered = grid.client_fs.stat("data.nc")
    assert delivered.size == pytest.approx(size)
    assert file_digest(delivered) == source_digest  # ... and verifies


def test_restart_through_corrupt_window_still_detected():
    """An outage + corruption combo must never launder a bad file."""
    grid = Grid()
    grid.server_fs.create("data.nc", 100 * MB)
    sched = (FaultSchedule()
             .link_outage("wan:fwd", start=0.5, duration=8.0)
             .corrupt_transfer("wan:fwd", 8.5, 30.0))
    FaultInjector(grid.env, grid.net, grid.ns).install(sched)
    cfg = GridFtpConfig(parallelism=1, buffer_bytes=MB, stall_timeout=4.0,
                        retry_backoff=1.0)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        stats = yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg)
        return stats

    stats = grid.run_process(main())
    delivered = grid.client_fs.stat("data.nc")
    if stats.tainted_blocks:
        assert file_digest(delivered) != content_digest("data.nc",
                                                        100 * MB)
    else:  # corruption window may close before the resumed blocks
        assert file_digest(delivered) == content_digest("data.nc",
                                                        100 * MB)
