"""The introduction's workload arithmetic, checked against our generator.

"Running a high-resolution ocean model ... can generate a dozen
multi-gigabyte files in a few hours at an average rate of about
2 MB/second. Computing a century of simulated time takes more than a
month to complete and produces about 10 TB of archival output."
"""

import pytest

from repro.data import ClimateModelRun, GridSpec, monthly_files
from repro.net import GB, TB

# An eddy-resolving 0.1° ocean model writing four 3-D prognostic fields
# (T, S, u, v) on 40 depth levels — each level slice is catalogued as
# its own variable since our grids are 2-D. No arrays are materialized;
# monthly_files sizes the archive arithmetically.
OCEAN_GRID = GridSpec(nlat=1800, nlon=3600, months=12)
OCEAN_VARIABLES = tuple(f"{field}_l{level:02d}"
                        for field in ("thetao", "so", "uo", "vo")
                        for level in range(40))


def test_century_produces_about_ten_terabytes():
    run = ClimateModelRun(model="POP", run="ocean-hires",
                          grid=OCEAN_GRID)
    files = monthly_files(run, years=100, files_per_year=12,
                          variables=OCEAN_VARIABLES)
    total = sum(f["size"] for f in files)
    # 160 level-fields × 1800×3600×8 B × 1200 months ≈ 10 TB.
    assert 7 * TB < total < 13 * TB
    assert len(files) == 1200


def test_monthly_files_are_multi_gigabyte():
    run = ClimateModelRun(model="POP", run="ocean-hires",
                          grid=OCEAN_GRID)
    files = monthly_files(run, years=1, files_per_year=12,
                          variables=OCEAN_VARIABLES)
    # "a dozen multi-gigabyte files" per stretch of simulated time.
    assert len(files) == 12
    for f in files:
        assert 2 * GB < f["size"] < 20 * GB


def test_output_rate_about_two_megabytes_per_second():
    """A century in ~40 days of wall clock → ~2 MB/s average output."""
    run = ClimateModelRun(model="POP", run="ocean-hires",
                          grid=OCEAN_GRID)
    files = monthly_files(run, years=100, variables=OCEAN_VARIABLES)
    total = sum(f["size"] for f in files)
    wall_seconds = 40 * 86400.0  # "more than a month to complete"
    rate = total / wall_seconds
    assert 1e6 < rate < 5e6  # "about 2 MB/second"
