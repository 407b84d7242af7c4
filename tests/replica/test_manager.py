"""Tests for the replica manager (replicate / verify)."""

import pytest

from repro.replica import ReplicaError
from repro.scenarios import EsgTestbed

from tests.gridftp.conftest import Grid


def grid_with_manager():
    from repro.replica import ReplicaCatalog, ReplicaManager
    g = Grid(seed=2)
    catalog = ReplicaCatalog(g.env, name="t")
    catalog.create_collection("coll")
    manager = ReplicaManager(g.env, catalog, g.client)
    return g, catalog, manager


def test_coverage_counts():
    g, catalog, manager = grid_with_manager()
    catalog.register_location("coll", "l1", "gsiftp", "srv.lbl.gov", 2811,
                              "/data", files=["a.nc", "b.nc"])
    catalog.register_location("coll", "l2", "gsiftp", "x.gov", 2811,
                              "/d", files=["a.nc"])
    cov = manager.coverage("coll")
    assert cov == {"a.nc": 2, "b.nc": 1}


def test_verify_location_detects_drift():
    g, catalog, manager = grid_with_manager()
    g.server_fs.create("a.nc", 10)
    catalog.register_location("coll", "lbl", "gsiftp", "srv.lbl.gov", 2811,
                              "/data", files=["a.nc", "b.nc"])
    # b.nc is not on the server: the catalog is stale
    missing = manager.verify_location("coll", "lbl", g.server)
    assert missing == ["b.nc"]
    with pytest.raises(ReplicaError):
        manager.verify_location("coll", "ghost", g.server)


def test_replicate_file_creates_and_extends_location():
    """Third-party replication through the ESG testbed catalogs."""
    tb = EsgTestbed(seed=9, file_size_override=8 * 2**20)
    tb.warm_nws(60.0)
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:2]
    ncar = tb.sites["ncar"]

    def main():
        s1 = yield from tb.replica_manager.replicate_file(
            tb.client_host, ds, names[0], "ncar-extra", ncar.server)
        s2 = yield from tb.replica_manager.replicate_file(
            tb.client_host, ds, names[1], "ncar-extra", ncar.server)
        return s1, s2

    s1, s2 = tb.run_process(main())
    assert s1.transferred_bytes == pytest.approx(8 * 2**20)
    locs = {l.name: l for l in tb.replica_catalog.locations(ds)}
    assert set(locs["ncar-extra"].files) == set(names)
    assert tb.replica_manager.copies_made == 2
    assert ncar.fs.exists(names[0])


def test_replicate_unknown_file_raises():
    tb = EsgTestbed(seed=9)
    ds = tb.dataset_ids()[0]

    def main():
        with pytest.raises(ReplicaError, match="no replica"):
            yield from tb.replica_manager.replicate_file(
                tb.client_host, ds, "ghost.nc", "x",
                tb.sites["ncar"].server)
        yield tb.env.timeout(0)

    tb.run_process(main())


def test_replicate_without_client_raises():
    from repro.replica import ReplicaCatalog, ReplicaManager
    from repro.sim import Environment
    env = Environment()
    catalog = ReplicaCatalog(env)
    catalog.create_collection("c")
    manager = ReplicaManager(env, catalog, client=None)

    def main():
        with pytest.raises(ReplicaError, match="no GridFTP client"):
            yield from manager.replicate_file(None, "c", "f", "l", None)
        yield env.timeout(0)

    p = env.process(main())
    env.run()
