"""The folded view is sorted, and equality searches it by bisection.

``Entry.folded`` holds each attribute's values lowercased and sorted;
equality bisects tuples of ``BISECT_FROM`` values or more and uses
``in`` on shorter ones. The oracles here are the brute-force forms: a
linear scan of every stored value lowercased, and the fold recomputed
from the stored values after every write.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap import DN, DirectoryServer, Scope, SharedValues
from repro.ldap import filters
from repro.ldap.directory import Entry
from repro.ldap.filters import compile_filter, escape
from repro.replica import FederatedReplicaCatalog, ReplicaCatalog
from repro.sim import Environment

# Few letters, so values repeat and differ only in case; a space so that
# names with whitespace at their ends are escaped.
TEXT = st.text(alphabet="aAbB1. ", min_size=1, max_size=3)
VALUE = st.one_of(TEXT, st.integers(-3, 12))
VALUES = st.lists(VALUE, max_size=64)


def brute(values, target):
    return target.lower() in [str(v).lower() for v in values]


def expected_fold(values):
    return tuple(sorted(str(v).lower() for v in values))


def check_view(entry):
    """Every attribute's fold is its stored values lowercased and sorted,
    and is the stored tuple itself whenever the two are equal."""
    assert entry.folded.keys() == entry.attributes.keys()
    for attr, values in entry.attributes.items():
        folded = entry.folded[attr]
        assert type(folded) is tuple
        assert folded == expected_fold(values)
        assert (folded is values) == (folded == values)


# -- (a) equality against a linear scan --------------------------------------

@settings(max_examples=300, deadline=None)
@given(values=VALUES, pick=st.integers(0, 63), fresh=TEXT,
       swap=st.booleans())
def test_equality_agrees_with_a_linear_scan(values, pick, fresh, swap):
    entry = Entry(DN.parse("e=1"), {"fn": values})
    if values and pick < len(values):
        target = str(values[pick])
        target = target.swapcase() if swap else target
    else:
        target = fresh
    pred = compile_filter(f"(fn={escape(target)})")
    want = brute(values, target)
    # Both search paths, whatever the tuple's length.
    for cut in (0, 1, filters.BISECT_FROM, 65):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BISECT_FROM", cut)
            assert pred(entry.folded) is want, (cut, values, target)


@pytest.mark.parametrize("n", [filters.BISECT_FROM - 1, filters.BISECT_FROM,
                               filters.BISECT_FROM + 1, 64])
def test_equality_around_the_crossover(n):
    # Unsorted, mixed case, every name twice.
    names = [f"F{i:02d}.nc" for i in reversed(range(n))] * 2
    entry = Entry(DN.parse("e=1"), {"fn": names})
    for i in range(n):
        for target in (f"f{i:02d}.NC", f"f{i:02d}.nc "):
            want = brute(names, target)
            assert compile_filter(
                f"(fn={escape(target)})")(entry.folded) is want
    assert not compile_filter("(fn=f99.nc)")(entry.folded)
    assert not compile_filter("(fn=a)")(entry.folded)


# -- (b) the view after every write ------------------------------------------

OPS = st.lists(st.tuples(
    st.sampled_from(["replace", "add_values", "delete_attrs", "shared"]),
    st.sampled_from(["fn", "FN", "host"]),
    VALUES), max_size=8)


@settings(max_examples=200, deadline=None)
@given(first=VALUES, ops=OPS)
def test_the_view_follows_every_write(first, ops):
    d = DirectoryServer(Environment(), "t")
    d.add("o=t", {"objectclass": "top"})
    entry = d.add("e=1,o=t", {"fn": first})
    check_view(entry)
    for kind, attr, values in ops:
        before = entry.get(attr)
        if kind == "delete_attrs":
            d.modify("e=1,o=t", delete_attrs=[attr])
            assert attr.lower() not in entry.folded
        elif kind == "shared":
            d.modify("e=1,o=t", replace={attr: SharedValues(values)})
        elif kind == "replace":
            d.modify("e=1,o=t", replace={attr: values})
        else:
            d.modify("e=1,o=t", add_values={attr: values})
            # Publish order, each new value appended once.
            want, seen = list(before), {v.lower() for v in before}
            for v in map(str, values):
                if v.lower() not in seen:
                    seen.add(v.lower())
                    want.append(v)
            assert entry.get(attr) == tuple(want)
        check_view(entry)


def test_appending_in_order_keeps_one_tuple():
    d = DirectoryServer(Environment(), "t")
    d.add("o=t", {"objectclass": "top"})
    entry = d.add("e=1,o=t", {"fn": ("a.nc", "b.nc")})
    d.modify("e=1,o=t", add_values={"fn": ["c.nc", "B.NC", "d.nc"]})
    assert entry.get("fn") == ("a.nc", "b.nc", "c.nc", "d.nc")
    assert entry.folded["fn"] is entry.get("fn")
    d.modify("e=1,o=t", add_values={"fn": "0.nc"})
    assert entry.get("fn") == ("a.nc", "b.nc", "c.nc", "d.nc", "0.nc")
    assert entry.folded["fn"] == ("0.nc", "a.nc", "b.nc", "c.nc", "d.nc")


@settings(max_examples=100, deadline=None)
@given(files=st.lists(TEXT, min_size=1, max_size=40, unique=True),
       ops=st.lists(st.tuples(st.booleans(), TEXT), max_size=8))
def test_catalog_writes_keep_the_view(files, ops):
    env = Environment()
    rc = ReplicaCatalog(env)
    rc.create_collection("c")
    rc.register_location("c", "anl", "gsiftp", "anl.gov", 2811, "/d", files)
    entry = rc.directory.lookup("loc=anl,lc=c,rc=esg")
    check_view(entry)
    for add, name in ops:
        if add:
            rc.add_file_to_location("c", "anl", name)
        else:
            rc.remove_file_from_location("c", "anl", name)
        check_view(entry)
        found = env.process(rc.find_replicas("c", name))
        env.run()
        assert bool(found.value) == any(
            f.lower() == name.lower() for f in entry.get("filename"))


def test_a_shared_tuple_is_folded_once_for_every_sharer():
    shared = SharedValues(["b.NC", "a.nc", "B.nc"])
    entries = []
    for name in ("one", "two"):
        d = DirectoryServer(Environment(), name)
        d.add("o=t", {"objectclass": "top"})
        entries.append(d.add("e=1,o=t", {"fn": shared}))
    one, two = entries
    assert one.folded["fn"] == ("a.nc", "b.nc", "b.nc")
    assert two.folded["fn"] is one.folded["fn"]
    assert two.get("fn") is one.get("fn") == ("b.NC", "a.nc", "B.nc")
    for e in entries:
        check_view(e)


# -- (c) a sorted lowercase tuple is stored without a copy -------------------

def test_a_sorted_lowercase_tuple_is_one_object_across_shards():
    names = tuple(f"co2.y{y:03d}.nc" for y in range(40))
    env = Environment()
    fed = FederatedReplicaCatalog(env, ["alpha", "beta", "gamma"],
                                  replication=2)
    fed.create_collection("co2")
    fed.register_location("co2", "anl", "gsiftp", "anl.gov", 2811, "/d",
                          names)
    fed.sync_now()
    home, peer = fed.router.preference("co2")[:2]
    entries = [fed.sites[s].directory.lookup("loc=anl,lc=co2,rc=esg")
               for s in (home, peer)]
    for entry in entries:
        assert entry.get("filename") is names
        assert entry.folded["filename"] is names
    hits = fed.sites[peer].directory.search(
        "lc=co2,rc=esg", Scope.ONELEVEL, "(filename=CO2.Y017.NC)")
    assert [e.dn for e in hits] == [entries[1].dn]
