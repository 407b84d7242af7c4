"""Tests for the directory server."""

import pytest

from repro.ldap import DirectoryError, DirectoryServer, Scope, directory
from repro.sim import Environment


def server():
    env = Environment()
    d = DirectoryServer(env, "test", base_latency=0.005)
    d.add("o=esg", {"objectclass": "organization"})
    d.add("lc=CO2 1998,o=esg", {"objectclass": "collection",
                                "year": "1998"})
    d.add("lc=CO2 1999,o=esg", {"objectclass": "collection",
                                "year": "1999"})
    d.add("lf=jan.nc,lc=CO2 1998,o=esg",
          {"objectclass": "logicalfile", "size": "2048"})
    d.add("lf=feb.nc,lc=CO2 1998,o=esg",
          {"objectclass": "logicalfile", "size": "4096"})
    return env, d


def test_add_lookup():
    env, d = server()
    e = d.lookup("lc=CO2 1998,o=esg")
    assert e.first("year") == "1998"
    assert len(d) == 5


def test_add_duplicate_rejected():
    env, d = server()
    with pytest.raises(DirectoryError):
        d.add("o=esg", {})


def test_add_orphan_rejected():
    env, d = server()
    with pytest.raises(DirectoryError):
        d.add("lf=x,lc=ghost,o=esg", {})


def test_lookup_missing():
    env, d = server()
    with pytest.raises(DirectoryError):
        d.lookup("o=nowhere")
    assert not d.exists("o=nowhere")


def test_children_sorted():
    env, d = server()
    kids = d.children("lc=CO2 1998,o=esg")
    assert [e.dn.rdn[1] for e in kids] == ["feb.nc", "jan.nc"]


def test_children_order_is_display_string_order():
    env, d = server()
    names = ["x", "x+", "x-", "Xy", "x+y", "a-b", "A+c", "a", "B", "b-"]
    for name in names:
        d.add(f"lf={name},lc=CO2 1999,o=esg", {"objectclass": "f"})
    base = "lc=CO2 1999,o=esg"
    kids = [e.dn for e in d.children(base)]
    assert kids == sorted(kids, key=str)
    # Not the RDN-tuple order: "lf=x+,..." sorts before "lf=x,..." as a
    # string ("+" < ","), after it as a tuple ("x" is a prefix of "x+").
    assert kids != sorted(kids, key=lambda dn: dn.rdns)
    assert [e.dn for e in d.search(base, Scope.ONELEVEL)] == kids


def test_scopes():
    env, d = server()
    base = d.search("o=esg", Scope.BASE)
    assert len(base) == 1
    one = d.search("o=esg", Scope.ONELEVEL)
    assert {e.dn.rdn[1] for e in one} == {"CO2 1998", "CO2 1999"}
    sub = d.search("o=esg", Scope.SUBTREE)
    assert len(sub) == 5


def test_search_with_filter():
    env, d = server()
    hits = d.search("o=esg", Scope.SUBTREE, "(objectclass=logicalfile)")
    assert len(hits) == 2
    big = d.search("o=esg", Scope.SUBTREE,
                   "(&(objectclass=logicalfile)(size>=3000))")
    assert [e.dn.rdn[1] for e in big] == ["feb.nc"]


def test_search_missing_base():
    env, d = server()
    with pytest.raises(DirectoryError):
        d.search("o=ghost")


def test_modify_replace_add_delete():
    env, d = server()
    dn = "lc=CO2 1998,o=esg"
    d.modify(dn, replace={"year": "2000"})
    assert d.lookup(dn).first("year") == "2000"
    d.modify(dn, add_values={"location": ["lbnl", "anl"]})
    d.modify(dn, add_values={"location": "lbnl"})  # dedup
    assert d.lookup(dn).get("location") == ("lbnl", "anl")
    d.modify(dn, delete_attrs=["location"])
    assert d.lookup(dn).get("location") == ()


def test_add_values_dedups_case_insensitively():
    """Equality matching ignores case, so a case variant of a held value
    is the same value and is not stored twice."""
    env, d = server()
    dn = "lc=CO2 1998,o=esg"
    d.modify(dn, add_values={"filename": "a.nc"})
    d.modify(dn, add_values={"filename": ["A.nc", "b.NC", "B.nc"]})
    assert d.lookup(dn).get("filename") == ("a.nc", "b.NC")
    assert [e.dn for e in d.search(dn, Scope.BASE, "(filename=A.NC)")] \
        == [d.lookup(dn).dn]


def test_delete_leaf_and_refuse_nonleaf():
    env, d = server()
    with pytest.raises(DirectoryError):
        d.delete("lc=CO2 1998,o=esg")
    d.delete("lf=jan.nc,lc=CO2 1998,o=esg")
    assert len(d) == 4


def test_delete_recursive():
    env, d = server()
    d.delete("lc=CO2 1998,o=esg", recursive=True)
    assert len(d) == 2
    assert not d.exists("lf=jan.nc,lc=CO2 1998,o=esg")


def test_timed_query_costs_latency_plus_scan(monkeypatch):
    monkeypatch.setattr(directory, "SCAN_COST", 1e-6)
    env, d = server()

    def main(env, d):
        hits = yield from d.query("o=esg", Scope.SUBTREE,
                                  "(objectclass=collection)")
        return (env.now, len(hits))

    p = env.process(main(env, d))
    env.run()
    t, n = p.value
    assert n == 2
    assert t == pytest.approx(0.005 + 5e-6)
    assert d.operations == 1
    assert d.entries_scanned == 5


def test_timed_query_answers_from_its_arrival_scan():
    """One scan per query: it is charged on arrival and filtered after
    the latency, so an entry added in between is not in the answer."""
    env, d = server()

    def main(env, d):
        return (yield from d.query("lc=CO2 1998,o=esg", Scope.ONELEVEL))

    def writer(env, d):
        yield env.timeout(0.001)
        d.add("lf=mar.nc,lc=CO2 1998,o=esg", {"objectclass": "logicalfile"})

    p = env.process(main(env, d))
    env.process(writer(env, d))
    env.run()
    assert [e.dn.rdn[1] for e in p.value] == ["feb.nc", "jan.nc"]
    assert d.entries_scanned == 2


def test_timed_query_on_absent_base_raises_after_latency():
    env, d = server()

    def main(env, d):
        with pytest.raises(DirectoryError, match="absent"):
            yield from d.query("o=ghost")
        return env.now

    p = env.process(main(env, d))
    env.run()
    assert p.value == pytest.approx(0.005)
    assert d.operations == 1
    assert d.entries_scanned == 0


def test_timed_read():
    env, d = server()

    def main(env, d):
        e = yield from d.read("o=esg")
        return (env.now, e.first("objectclass"))

    p = env.process(main(env, d))
    env.run()
    assert p.value == (0.005, "organization")


def test_entry_attribute_normalization():
    env, d = server()
    d.add("cn=x,o=esg", {"Single": "v", "Multi": ["a", "b"], "Num": 7})
    e = d.lookup("cn=x,o=esg")
    assert e.get("single") == ("v",)
    assert e.get("multi") == ("a", "b")
    assert e.get("num") == ("7",)
    assert e.first("nothing", "dflt") == "dflt"
