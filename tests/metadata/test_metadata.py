"""Tests for the CDMS-style metadata catalog."""

import pytest

from repro.data import ClimateModelRun, GridSpec, monthly_files
from repro.metadata import MetadataCatalog, MetadataError, VariableRecord
from repro.sim import Environment

VARS = (VariableRecord("tas", "K", "surface air temperature"),
        VariableRecord("pr", "mm/day", "precipitation"))


def catalog(years=2, files_per_year=12):
    env = Environment()
    mc = MetadataCatalog(env)
    run = ClimateModelRun(model="NCAR_CSM", run="run1",
                          grid=GridSpec(8, 16, 12), start_year=1995)
    mc.register_dataset(run.dataset_id, run.model, run.run,
                        description="test dataset", variables=VARS)
    files = monthly_files(run, years, variables=("tas", "pr"),
                          files_per_year=files_per_year)
    mc.register_files(run.dataset_id, files)
    return env, mc, run.dataset_id, files


def test_register_and_list_datasets():
    env, mc, ds_id, files = catalog()
    records = mc.datasets()
    assert len(records) == 1
    rec = records[0]
    assert rec.dataset_id == ds_id
    assert rec.model == "NCAR_CSM"
    assert rec.variables == ("pr", "tas")
    assert rec.file_count == 24


def test_datasets_filtered_by_model():
    env, mc, ds_id, files = catalog()
    mc.register_dataset("pcmdi.other.run9", "GFDL", "run9")
    assert len(mc.datasets()) == 2
    assert len(mc.datasets(model="NCAR_CSM")) == 1
    assert len(mc.datasets(model="GFDL")) == 1


def test_duplicate_dataset_rejected():
    env, mc, ds_id, files = catalog()
    with pytest.raises(MetadataError):
        mc.register_dataset(ds_id, "NCAR_CSM", "run1")


def test_variables_listing():
    env, mc, ds_id, files = catalog()
    vars_ = {v.name: v for v in mc.variables(ds_id)}
    assert vars_["tas"].units == "K"
    assert vars_["pr"].long_name == "precipitation"


def test_time_extent():
    env, mc, ds_id, files = catalog(years=3)
    assert mc.time_extent(ds_id) == (1995, 1997)


def test_time_extent_empty_dataset():
    env = Environment()
    mc = MetadataCatalog(env)
    mc.register_dataset("empty.ds", "X", "r")
    with pytest.raises(MetadataError):
        mc.time_extent("empty.ds")


def test_resolve_all_files_for_variable():
    env, mc, ds_id, files = catalog(years=1)
    names = mc.resolve(ds_id, "tas")
    assert len(names) == 12
    assert names == sorted(names)


def test_resolve_year_range():
    env, mc, ds_id, files = catalog(years=3)
    names = mc.resolve(ds_id, "tas", years=(1996, 1996))
    assert len(names) == 12
    assert all(".1996." in n for n in names)


def test_resolve_month_range():
    env, mc, ds_id, files = catalog(years=1)
    names = mc.resolve(ds_id, "pr", months=(1, 3))
    assert len(names) == 3
    assert names[0].endswith("m01-m01.nc")


def test_resolve_month_range_with_grouped_files():
    """Quarterly files overlapping the requested months are included."""
    env, mc, ds_id, files = catalog(years=1, files_per_year=4)
    names = mc.resolve(ds_id, "tas", months=(2, 4))
    # m01-m03 overlaps (2,4); m04-m06 overlaps too.
    assert len(names) == 2


def test_resolve_unknown_variable_rejected():
    env, mc, ds_id, files = catalog()
    with pytest.raises(MetadataError, match="no variable"):
        mc.resolve(ds_id, "slp")


def test_resolve_unknown_dataset():
    env, mc, ds_id, files = catalog()
    with pytest.raises(MetadataError):
        mc.resolve("nope", "tas")


def test_file_size_lookup():
    env, mc, ds_id, files = catalog()
    size = mc.file_size(ds_id, str(files[0]["logical_name"]))
    assert size == files[0]["size"]
    with pytest.raises(MetadataError):
        mc.file_size(ds_id, "ghost.nc")


def test_timed_query_costs_time():
    env, mc, ds_id, files = catalog()

    def main():
        names = yield from mc.query_files(ds_id, "tas", months=(1, 1))
        return env.now, names

    p = env.process(main())
    env.run()
    t, names = p.value
    assert t > 0
    assert len(names) == 2  # one per year (2 years)


def test_timed_query_unknown_variable_rejected():
    env, mc, ds_id, files = catalog()

    def main():
        yield from mc.query_files(ds_id, "slp")

    p = env.process(main())
    with pytest.raises(MetadataError, match="no variable"):
        env.run(until=p)
    assert env.now > 0  # raised from the timed answer, after its latency


def test_timed_queries_scan_their_scope_once():
    """A timed query is charged for every child of the dataset, and its
    answer comes from that one scan: no untimed search follows."""
    from repro.ldap.directory import SCAN_COST
    env, mc, ds_id, files = catalog()
    directory = mc.directory
    children = len(VARS) + len(files)

    def main():
        names = yield from mc.query_files(ds_id, "tas", years=(1996, 1996))
        record = yield from mc.query_dataset(ds_id)
        return names, record

    before = directory.entries_scanned
    p = env.process(main())
    env.run()
    names, record = p.value
    assert directory.entries_scanned - before == 2 * children
    assert env.now == pytest.approx(
        2 * (directory.base_latency + SCAN_COST * children))
    assert names == mc.resolve(ds_id, "tas", years=(1996, 1996))
    assert len(names) == 12
    assert record == mc.datasets()[0]


def test_filter_values_match_literally():
    env, mc, ds_id, files = catalog()
    mc.register_dataset("pcmdi.odd.run1", "a(b)*", "run1")
    # Unescaped, "NCAR*" was a wildcard and ")(" rewrote the filter.
    assert mc.datasets(model="NCAR*") == []
    assert mc.datasets(model="x)(objectclass=*") == []
    assert [d.dataset_id for d in mc.datasets(model="a(b)*")] == [
        "pcmdi.odd.run1"]
    assert [d.dataset_id for d in mc.datasets(model="NCAR_CSM")] == [ds_id]


def test_resolve_variable_matches_literally():
    env = Environment()
    mc = MetadataCatalog(env)
    star = VariableRecord("t*", "K", "a variable named with a star")
    mc.register_dataset("d", "m", "r", variables=VARS + (star,))
    mc.register_files("d", [
        {"logical_name": "tas.nc", "year": 1995, "month_range": (1, 12),
         "size": 1, "variables": ["tas"]},
        {"logical_name": "star.nc", "year": 1995, "month_range": (1, 12),
         "size": 1, "variables": ["t*"]}])
    assert mc.resolve("d", "t*") == ["star.nc"]
    assert mc.resolve("d", "tas") == ["tas.nc"]


def test_spaces_at_the_ends_of_a_value_are_kept():
    env, mc, ds_id, files = catalog()
    mc.register_dataset("pcmdi.spaced.run1", "NCAR_CSM ", "run1")
    assert [d.dataset_id for d in mc.datasets(model="NCAR_CSM ")] == [
        "pcmdi.spaced.run1"]
    assert [d.dataset_id for d in mc.datasets(model="NCAR_CSM")] == [ds_id]
