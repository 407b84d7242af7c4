"""ERET staging cut-through: range staging for tape-resident subsets.

A subset of a chunked tape-resident file only needs the byte prefix
covering its touched chunks. With ``eret_range_staging`` the server
gates the plugin on that prefix watermark instead of the full stage, so
time-to-first-byte scales with bytes *touched*, not bytes *stored*.
"""

from repro.data import ClimateModelRun, GridSpec
from repro.gridftp.plugins import install_standard_plugins
from repro.storage import (
    FileObject,
    HierarchicalResourceManager,
    MassStorageSystem,
    TapeSpec,
)

from .conftest import Grid

KB = 2**10

# Slow drive, quick mount: the sequential read dominates, which is the
# regime where staging only the needed prefix pays off.
SLOW_TAPE = TapeSpec(read_rate=32 * KB, mount_time=1.0,
                     max_seek_time=1.0, rewind_time=1.0)


def tape_grid(chunks, seed=7):
    grid = Grid()
    mss = MassStorageSystem(grid.env, cache_capacity=2**30, drives=1,
                            tape_spec=SLOW_TAPE)
    grid.server.hrm = HierarchicalResourceManager(grid.env, mss,
                                                  grid.server_fs)
    run = ClimateModelRun(grid=GridSpec(64, 128, 12), seed=seed)
    blob = run.encode_year(1995, chunks=chunks)
    mss.archive(FileObject("year.nc", len(blob), content=blob),
                tape="T1", position=0.0)
    install_standard_plugins(grid.server)
    return grid, mss, run


def early_subset(grid, run, dest="sub.nc"):
    """Fetch the first two months of tas: touched chunks live at the
    front of the file, so the needed prefix is a small fraction."""
    time = run.generate_year(1995).coords["time"]
    args = {"variable": "tas",
            "time": (float(time[0]), float(time[1]))}

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        t0 = grid.env.now
        stats = yield from session.get("year.nc", grid.client_fs,
                                       grid.client_host, dest_name=dest,
                                       eret="subset", eret_args=args)
        return stats, grid.env.now - t0

    return grid.run_process(main())


def test_range_staging_beats_full_stage_by_2x():
    grid_on, mss_on, run = tape_grid(chunks={"time": 1, "lat": 64,
                                             "lon": 128})
    stats_on, elapsed_on = early_subset(grid_on, run)
    assert grid_on.server.eret_range_staged == 1

    grid_off, mss_off, run = tape_grid(chunks={"time": 1, "lat": 64,
                                               "lon": 128})
    grid_off.server.eret_range_staging = False
    stats_off, elapsed_off = early_subset(grid_off, run)
    assert grid_off.server.eret_range_staged == 0

    # Identical product either way...
    assert (grid_on.client_fs.stat("sub.nc").content
            == grid_off.client_fs.stat("sub.nc").content)
    # ...but the range-staged request returns much sooner than one that
    # waited out the whole slow tape read.
    assert elapsed_off >= 2.0 * elapsed_on

    # The whole file still stages in the background and every pin is
    # balanced once it lands.
    for grid, mss in [(grid_on, mss_on), (grid_off, mss_off)]:
        grid.env.run(until=grid.env.now + 600.0)
        assert not mss.cache.is_pinned("year.nc")


def test_flat_layout_waits_for_full_stage():
    """A flat file has no chunk index, so the planner cannot compute a
    prefix and the request degrades to the pre-existing full stage."""
    grid, mss, run = tape_grid(chunks=None)
    stats, elapsed = early_subset(grid, run)
    assert grid.server.eret_range_staged == 0
    assert stats.eret_decoded_bytes > 0
    grid.env.run(until=grid.env.now + 600.0)
    assert not mss.cache.is_pinned("year.nc")


def test_range_staging_skipped_for_disk_files(grid):
    """Disk-resident files never touch the HRM; no range staging."""
    install_standard_plugins(grid.server)
    run = ClimateModelRun(grid=GridSpec(16, 32, 12), seed=7)
    blob = run.encode_year(1995, chunks={"time": 1, "lat": 8, "lon": 16})
    grid.server_fs.store(FileObject("year.nc", len(blob), content=blob))
    time = run.generate_year(1995).coords["time"]

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        return (yield from session.get(
            "year.nc", grid.client_fs, grid.client_host,
            eret="subset",
            eret_args={"variable": "tas",
                       "time": (float(time[0]), float(time[1]))}))

    stats = grid.run_process(main())
    assert grid.server.eret_range_staged == 0
    assert stats.eret_decoded_bytes > 0


def test_eret_range_staging_flag_validated():
    from repro.sim import Environment
    from repro.hosts import Host, HostSpec, CpuModel, DiskArray, DiskSpec
    from repro.net import Topology, gbps
    from repro.storage import FileSystem
    from repro.gridftp import GridFtpServer

    env = Environment(seed=1)
    topo = Topology("t")
    spec = HostSpec(nic_rate=gbps(1), bus_rate=None,
                    cpu=CpuModel(coalesce=8),
                    disk=DiskArray(DiskSpec(rate=60 * 2**20), count=4))
    host = Host(topo, "h", site="s", spec=spec)
    fs = FileSystem(env, "fs")
    srv = GridFtpServer(env, host, fs, eret_range_staging=False)
    assert srv.eret_range_staging is False
