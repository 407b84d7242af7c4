"""Tests for the EsgTestbed wiring and the EarthSystemGrid facade."""

import pytest

from repro.data import GridSpec
from repro.esg import LAYERS, EarthSystemGrid, LayeredArchitecture
from repro.net.units import mbps
from repro.scenarios import EsgTestbed


def small_esg(**kw):
    defaults = dict(seed=2, grid=GridSpec(nlat=16, nlon=32, months=12))
    defaults.update(kw)
    return EsgTestbed(**defaults)


def test_testbed_builds_all_sites():
    tb = small_esg()
    assert set(tb.sites) == {"anl", "lbnl-pdsf", "lbnl-clipper", "ncar",
                             "isi", "sdsc", "llnl"}
    assert len(tb.registry) == 7
    assert tb.sites["lbnl-pdsf"].hrm is not None
    for site in tb.sites.values():
        assert site.hostname in tb.dns


def test_catalogs_populated_consistently():
    tb = small_esg(years=1)
    ids = tb.dataset_ids()
    assert len(ids) == 2
    for ds in ids:
        files = tb.metadata_catalog.resolve(ds, "tas")
        assert len(files) == 12
        coverage = tb.replica_manager.coverage(ds)
        # Every file: tape copy + 2 disk replicas.
        assert all(count == 3 for count in coverage.values())


def test_tape_copies_registered_without_tape_flag():
    tb = small_esg(with_tape=False)
    pdsf = tb.sites["lbnl-pdsf"]
    assert pdsf.hrm is None
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    assert pdsf.fs.exists(name)


def test_materialize_conflicts_with_override():
    with pytest.raises(ValueError):
        small_esg(materialize=True, file_size_override=100)


def test_materialized_sizes_match_encoded_lengths():
    tb = small_esg(materialize=True)
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    site_fs = tb.sites["anl"].fs
    if site_fs.exists(name):
        f = site_fs.stat(name)
        assert f.content is not None
        assert f.size == len(f.content)


def test_size_override_applies():
    tb = small_esg(file_size_override=123456.0)
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    assert tb.replica_catalog.logical_file_size(ds, name) == 123456.0


# -- facade -------------------------------------------------------------------

def test_facade_browse_lists_datasets_and_variables():
    esg = EarthSystemGrid(small_esg(materialize=True))
    listing = esg.browse()
    assert len(listing) == 2
    entry = listing[0]
    assert {"dataset", "model", "variables", "files"} <= set(entry)
    names = {v["name"] for v in entry["variables"]}
    assert names == {"tas", "pr", "clt"}


def test_facade_fetch_and_analyze_end_to_end():
    esg = EarthSystemGrid(small_esg(materialize=True))
    result, viz = esg.fetch_and_analyze("pcmdi.ncar_csm.run1", "tas",
                                        months=(1, 2))
    assert result.dataset["tas"].shape[0] == 2
    assert "time mean" in viz
    assert "scale:" in viz
    profile = esg.zonal_profile(result, "tas")
    assert "zonal mean" in profile
    assert result.transfer_seconds > 0


def test_layer_registry_complete_and_clean():
    esg = EarthSystemGrid(small_esg())
    arch = esg.layers
    for layer in LAYERS:
        assert arch.names(layer), f"layer {layer} empty"
    assert arch.check_dependencies() == []
    assert arch.layer_of("gridftp") == "resource"
    assert arch.layer_of("nws") == "collective"
    assert arch.layer_of("ghost") is None


def test_layer_registry_detects_upward_dependency():
    arch = LayeredArchitecture()
    arch.register("fabric", "disk", object())
    arch.register("collective", "rm", object())
    arch.depends("disk", "rm")  # fabric depending on collective: wrong
    problems = arch.check_dependencies()
    assert len(problems) == 1
    assert "upward" in problems[0]
    with pytest.raises(ValueError):
        arch.register("nonsense", "x", object())


def test_layer_registry_unregistered_dependency():
    arch = LayeredArchitecture()
    arch.depends("a", "b")
    assert "unregistered" in arch.check_dependencies()[0]


def test_add_client_attaches_independent_user_site():
    tb = small_esg(file_size_override=4 * 2**20)
    tb.warm_nws(60.0)
    rm2 = tb.add_client("user-site-2")
    assert rm2 is not tb.request_manager
    assert rm2.dest_fs is not tb.client_fs
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    t1 = tb.request_manager.submit([(ds, name)])
    t2 = rm2.submit([(ds, name)])
    tb.env.run(until=t1.done)
    tb.env.run(until=t2.done)
    assert not t1.failed_files and not t2.failed_files
    assert tb.client_fs.exists(name)
    assert rm2.dest_fs.exists(name)


@pytest.mark.parametrize("downlink", [mbps(20), mbps(100), mbps(1000)])
def test_add_client_host_links_follow_downlink(downlink):
    """A client's NIC, host uplink and WAN link all run at the
    ``downlink`` it was given, not at the fleet PoP rate."""
    tb = small_esg()
    rm = tb.add_client("user-site-2", downlink=downlink)
    host = rm.dest_host
    assert host.links["nic:out"].capacity == downlink
    assert host.links["uplink:out"].capacity == downlink
    assert tb.topology.links["wan-user-site-2:fwd"].capacity == downlink


def test_facade_fetch_with_year_range():
    from repro.esg import EarthSystemGrid
    esg = EarthSystemGrid(small_esg(materialize=True, years=2))
    result, viz = esg.fetch_and_analyze("pcmdi.ncar_csm.run1", "tas",
                                        years=(1996, 1996))
    assert result.dataset["tas"].shape[0] == 12
    assert all(".1996." in n for n in result.logical_files)


def test_add_fleet_groups_users_behind_shared_pops():
    tb = small_esg(file_size_override=2 * 2**20, with_tape=False,
                   aggregation_threshold=2)
    tb.warm_nws(60.0)
    rms = tb.add_fleet(10, users_per_pop=4)
    assert len(rms) == 10
    # ceil(10/4) = 3 PoPs; users in one PoP share host, client, tenant.
    assert len({rm.dest_host for rm in rms}) == 3
    assert len({rm.client for rm in rms}) == 3
    assert rms[0].client is rms[3].client
    assert rms[0].tenant == rms[1].tenant == "pop0"
    assert rms[8].tenant == "pop2"
    # ...but keep private filesystems.
    assert rms[0].dest_fs is not rms[1].dest_fs
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    tickets = [rm.submit([(ds, name)]) for rm in rms]
    for t in tickets:
        tb.env.run(until=t.done)
    assert all(not t.failed_files for t in tickets)
    assert all(rm.dest_fs.exists(name) for rm in rms)
    # Same-PoP transfers shared the full path, so they aggregated.
    assert tb.network.aggregates_created > 0


def test_add_fleet_validates_arguments():
    tb = small_esg()
    with pytest.raises(ValueError):
        tb.add_fleet(0)
    with pytest.raises(ValueError):
        tb.add_fleet(4, users_per_pop=0)
