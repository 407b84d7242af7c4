"""Tests for the ESG-II lightweight portal client and DODS access."""

import numpy as np
import pytest

from repro.data import GridSpec
from repro.scenarios import EsgTestbed


def make_testbed():
    tb = EsgTestbed(seed=6, materialize=True,
                    grid=GridSpec(nlat=16, nlon=32, months=12))
    tb.warm_nws(90.0)
    return tb


def test_portal_subset_ships_less():
    tb = make_testbed()

    def main():
        return (yield from tb.portal.request(
            "pcmdi.ncar_csm.run1", "tas", operation="subset",
            months=(1, 1), lat=(-30.0, 30.0)))

    resp = tb.run_process(main())
    assert resp.bytes_shipped < resp.full_bytes / 3
    assert resp.reduction > 3
    assert resp.dataset["tas"].shape[0] == 1
    assert float(np.abs(resp.dataset.coords["lat"]).max()) <= 30.0
    assert resp.source_hostname in tb.registry


def test_portal_merges_multiple_months():
    tb = make_testbed()

    def main():
        return (yield from tb.portal.request(
            "pcmdi.ncar_csm.run1", "tas", operation="subset",
            months=(1, 3), lat=(-10.0, 10.0)))

    resp = tb.run_process(main())
    assert resp.dataset["tas"].shape[0] == 3  # concatenated along time


def test_portal_extract_variable():
    """A subset without coordinate ranges extracts one variable."""
    tb = make_testbed()

    def main():
        return (yield from tb.portal.request(
            "pcmdi.ncar_csm.run1", "pr", operation="subset",
            months=(6, 6)))

    resp = tb.run_process(main())
    assert set(resp.dataset.variables) == {"pr"}
    assert resp.reduction > 2  # dropped 2 of 3 variables


def test_portal_time_mean_is_tiny():
    tb = make_testbed()

    def main():
        return (yield from tb.portal.request(
            "pcmdi.ncar_csm.run1", "tas", operation="time_mean",
            months=(1, 1)))

    resp = tb.run_process(main())
    assert resp.dataset["tas"].dims == ("lat", "lon")
    assert resp.bytes_shipped < resp.full_bytes


def test_portal_empty_selection_raises():
    tb = make_testbed()

    def main():
        with pytest.raises(Exception):
            yield from tb.portal.request("pcmdi.ncar_csm.run1", "tas",
                                         years=(1890, 1891))
        yield tb.env.timeout(0)

    tb.run_process(main())


def test_portal_counts_requests():
    tb = make_testbed()

    def main():
        yield from tb.portal.request("pcmdi.ncar_csm.run1", "tas",
                                     operation="time_mean", months=(1, 1))
        yield from tb.portal.request("pcmdi.ncar_csm.run1", "clt",
                                     operation="subset", months=(2, 2))

    tb.run_process(main())
    assert tb.portal.requests_served == 2


def test_dods_access_to_esg_archive():
    """§9: 'access via DODS protocols and mechanisms' over the same
    files the grid serves."""
    tb = make_testbed()
    servers, dods = tb.enable_dods()
    assert len(servers) == 7
    anl_files = [f.name for f in tb.sites["anl"].fs]
    assert anl_files

    def main():
        ds = yield from dods.open_dataset(
            tb.client_host, "dods.anl.gov", anl_files[0], "tas",
            lat=(-45.0, 45.0))
        return ds

    ds = tb.run_process(main())
    assert "tas" in ds
    assert float(np.abs(ds.coords["lat"]).max()) <= 45.0


def test_portal_and_heavyweight_agree():
    """The subset the portal ships equals the subset computed locally
    after a full heavyweight fetch."""
    tb = make_testbed()

    def portal_path():
        return (yield from tb.portal.request(
            "pcmdi.ncar_csm.run1", "tas", operation="subset",
            months=(2, 2), lat=(-20.0, 20.0)))

    portal_resp = tb.run_process(portal_path())

    def heavy_path():
        return (yield from tb.cdat.fetch("pcmdi.ncar_csm.run1", "tas",
                                         months=(2, 2)))

    heavy = tb.run_process(heavy_path())
    local_subset = heavy.dataset.subset("tas", lat=(-20.0, 20.0))
    np.testing.assert_allclose(portal_resp.dataset["tas"].data,
                               local_subset["tas"].data, rtol=1e-12)
