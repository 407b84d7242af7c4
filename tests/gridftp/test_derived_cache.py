"""The per-server derived-product cache: unit + server integration."""

import pytest

from repro.data import ClimateModelRun, GridSpec
from repro.gridftp import DerivedProductCache
from repro.gridftp.plugins import install_standard_plugins
from repro.net import mbps
from repro.storage import (
    FileObject,
    HierarchicalResourceManager,
    MassStorageSystem,
)


# -- unit ---------------------------------------------------------------------
def test_lru_eviction_respects_byte_budget():
    cache = DerivedProductCache(100.0)
    cache.put("a", 40.0, b"a")
    cache.put("b", 40.0, b"b")
    cache.put("c", 40.0, b"c")       # evicts a (LRU)
    assert cache.get("a") is None
    assert cache.get("b").content == b"b"
    assert cache.bytes_used == 80.0
    assert cache.evictions == 1
    # b is now most-recent; adding d evicts c, not b.
    cache.put("d", 40.0, b"d")
    assert cache.get("c") is None
    assert cache.get("b") is not None


def test_oversize_product_not_admitted():
    cache = DerivedProductCache(100.0)
    cache.put("big", 500.0, b"x")
    assert len(cache) == 0 and cache.bytes_used == 0.0


def test_replacing_a_key_updates_bytes():
    cache = DerivedProductCache(100.0)
    cache.put("k", 60.0, b"v1")
    cache.put("k", 30.0, b"v2")
    assert cache.bytes_used == 30.0 and len(cache) == 1
    assert cache.get("k").content == b"v2"


def test_make_key_is_canonical():
    k1 = DerivedProductCache.make_key("d", "subset",
                                      {"variable": "tas",
                                       "lat": (1.0, 2.0)})
    k2 = DerivedProductCache.make_key("d", "subset",
                                      {"lat": (1.0, 2.0),
                                       "variable": "tas"})
    assert k1 == k2
    assert k1 != DerivedProductCache.make_key("d2", "subset",
                                              {"variable": "tas",
                                               "lat": (1.0, 2.0)})


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        DerivedProductCache(0.0)


# -- server integration --------------------------------------------------------
def chunked_file(name="year.nc"):
    run = ClimateModelRun(grid=GridSpec(16, 32, 12), seed=4)
    blob = run.encode_year(1995, chunks={"time": 1, "lat": 8, "lon": 16})
    return FileObject(name, len(blob), content=blob)


ARGS = {"variable": "tas", "lat": (-30.0, 30.0)}


def eret_get(grid, dest="out.nc", path="year.nc"):
    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        return (yield from session.get(path, grid.client_fs,
                                       grid.client_host, dest_name=dest,
                                       eret="subset", eret_args=ARGS))
    return grid.run_process(main())


def test_warm_repeat_decodes_zero_bytes(grid):
    install_standard_plugins(grid.server)
    grid.server_fs.store(chunked_file())
    cold = eret_get(grid, "a.nc")
    assert not cold.eret_cache_hit and cold.eret_decoded_bytes > 0
    decoded_after_cold = grid.server.eret_decoded_bytes
    warm = eret_get(grid, "b.nc")
    assert warm.eret_cache_hit
    assert warm.eret_decoded_bytes == 0.0
    assert grid.server.eret_decoded_bytes == decoded_after_cold
    assert grid.server.derived_cache.hits == 1
    # Identical product either way.
    assert (grid.client_fs.stat("a.nc").content
            == grid.client_fs.stat("b.nc").content)


def test_cache_disabled_recomputes():
    from .conftest import Grid
    grid = Grid()
    grid.server.derived_cache = None
    install_standard_plugins(grid.server)
    grid.server_fs.store(chunked_file())
    eret_get(grid, "a.nc")
    again = eret_get(grid, "b.nc")
    assert not again.eret_cache_hit and again.eret_decoded_bytes > 0


def test_digest_key_rejects_corrupted_source(grid):
    """A corrupted replica must never serve the stale cached product."""
    install_standard_plugins(grid.server)
    grid.server_fs.store(chunked_file())
    eret_get(grid, "a.nc")
    grid.server.corrupt_file("year.nc")
    redo = eret_get(grid, "b.nc")
    assert not redo.eret_cache_hit          # digest changed -> miss
    assert grid.server.derived_cache.misses >= 2


def test_cache_hit_takes_no_stage_pin(grid):
    """A hit is answered without touching the HRM at all."""
    install_standard_plugins(grid.server)
    mss = MassStorageSystem(grid.env, cache_capacity=2**30, drives=1)
    grid.server.hrm = HierarchicalResourceManager(grid.env, mss,
                                                  grid.server_fs)
    mss.archive(chunked_file(), tape="T1", position=0.0)
    cold = eret_get(grid, "a.nc")
    assert not cold.eret_cache_hit
    grid.env.run(until=grid.env.now + 300.0)
    assert not mss.cache.is_pinned("year.nc")
    stages_before = mss.stage_count
    warm = eret_get(grid, "b.nc")
    assert warm.eret_cache_hit
    assert mss.stage_count == stages_before
    assert not mss.cache.is_pinned("year.nc")


def test_overlapping_retrs_of_one_path_each_settle_their_own_pin():
    """A warm ERET (cache hit, no pin) and a whole-file RETR (pinned) of
    the same file overlap; the ERET ends first and must not give back
    the pin the whole-file RETR still holds."""
    from .conftest import Grid
    grid = Grid(wan=mbps(0.1))
    install_standard_plugins(grid.server)
    mss = MassStorageSystem(grid.env, cache_capacity=2**30, drives=1)
    grid.server.hrm = HierarchicalResourceManager(grid.env, mss,
                                                  grid.server_fs)
    mss.archive(chunked_file(), tape="T1", position=0.0)
    eret_get(grid, "cold.nc")                   # fills the derived cache
    grid.env.run(until=grid.env.now + 300.0)
    assert not mss.cache.is_pinned("year.nc")

    def fetch(dest, **eret):
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov")
        return (yield from session.get("year.nc", grid.client_fs,
                                       grid.client_host, dest_name=dest,
                                       **eret))

    warm = grid.env.process(fetch("warm.nc", eret="subset", eret_args=ARGS))
    whole = grid.env.process(fetch("whole.nc"))
    grid.env.run(until=warm)
    assert warm.value.eret_cache_hit
    assert not whole.triggered
    assert mss.cache.is_pinned("year.nc")       # the whole-file RETR's pin
    grid.env.run(until=whole)
    assert not mss.cache.is_pinned("year.nc")
