"""Attribute values are immutable tuples, shared rather than copied.

A tuple handed to the directory is stored as that object; a list is
copied, so the caller can keep mutating it. The folded search view, a
replica shard's entry and every replica-catalog answer hold the same
tuple, and no mutation ever changes a tuple someone else holds.
"""

import gc
import platform

import pytest

from repro.ldap import DirectoryServer, Scope
from repro.replica import FederatedReplicaCatalog, ReplicaCatalog
from repro.sim import Environment


def server():
    d = DirectoryServer(Environment(), "t")
    d.add("o=t", {"objectclass": "top"})
    return d


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


def test_a_tuple_is_stored_as_that_object():
    d = server()
    names = ("a.nc", "b.nc")
    e = d.add("loc=a,o=t", {"filename": names})
    assert e.get("filename") is names
    again = ("c.nc",)
    d.modify("loc=a,o=t", replace={"filename": again})
    assert e.get("filename") is again


def test_a_list_is_copied():
    d = server()
    names = ["a.nc"]
    e = d.add("loc=a,o=t", {"filename": names})
    names.append("b.nc")
    replaced = ["c.nc"]
    d.modify("loc=a,o=t", replace={"host": replaced})
    replaced.append("d.nc")
    assert e.get("filename") == ("a.nc",)
    assert e.get("host") == ("c.nc",)
    assert d.search("o=t", Scope.ONELEVEL, "(filename=b.nc)") == []
    assert d.search("o=t", Scope.ONELEVEL, "(host=d.nc)") == []


def test_folded_view_is_the_stored_tuple_when_lowercase():
    d = server()
    e = d.add("loc=a,o=t", {"filename": ("a.nc", "b.nc"),
                            "model": ("NCAR_CSM", "pcm")})
    assert e.folded["filename"] is e.get("filename")
    assert e.folded["model"] is not e.get("model")
    assert isinstance(e.folded["model"], tuple)
    assert e.folded["model"] == ("ncar_csm", "pcm")


def test_add_values_on_one_sharer_leaves_the_other_alone():
    shared = ("a.nc", "b.nc")
    one, two = server(), server()
    e1 = one.add("loc=a,o=t", {"filename": shared})
    e2 = two.add("loc=a,o=t", {"filename": shared})
    e3 = one.add("loc=b,o=t", {"filename": shared})
    one.modify("loc=a,o=t", add_values={"filename": ["c.nc", "A.NC"]})
    assert e1.get("filename") == ("a.nc", "b.nc", "c.nc")
    assert shared == ("a.nc", "b.nc")
    assert e2.get("filename") is shared and e3.get("filename") is shared
    assert two.search("o=t", Scope.ONELEVEL, "(filename=c.nc)") == []
    assert [e.dn for e in one.search(
        "o=t", Scope.ONELEVEL, "(filename=c.nc)")] == [e1.dn]


def catalog():
    env = Environment()
    rc = ReplicaCatalog(env)
    rc.create_collection("co2")
    rc.register_location("co2", "anl", "gsiftp", "anl.gov", 2811, "/d",
                         ["jan.nc", "feb.nc"])
    rc.register_location("co2", "lbnl", "gsiftp", "lbl.gov", 2811, "/d",
                         ("jan.nc",))
    return env, rc


def loc_entry(rc, location):
    return rc.directory.lookup(f"loc={location},lc=co2,rc=esg")


def test_answers_hold_the_entry_tuple():
    env, rc = catalog()
    found = run(env, rc.find_replicas("co2", "jan.nc"))
    assert sorted(loc.name for loc in found) == ["anl", "lbnl"]
    for loc in found + rc.locations("co2"):
        assert loc.files is loc_entry(rc, loc.name).get("filename")


def test_sync_shares_one_tuple_between_shards():
    env = Environment()
    fed = FederatedReplicaCatalog(env, ["alpha", "beta", "gamma"],
                                  replication=2)
    fed.create_collection("co2")
    fed.register_location("co2", "anl", "gsiftp", "anl.gov", 2811, "/d",
                          ["jan.nc", "feb.nc"])
    assert fed.sync_now() > 0
    home, replica = fed.router.preference("co2")[:2]
    held = [fed.sites[s].directory.lookup("loc=anl,lc=co2,rc=esg")
            .get("filename") for s in (home, replica)]
    assert held[0] == ("jan.nc", "feb.nc")
    assert held[0] is held[1]


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="tuple untracking is a CPython GC detail")
def test_published_tuple_leaves_the_cycle_collector():
    _env, rc = catalog()
    files = loc_entry(rc, "anl").get("filename")
    gc.collect()
    assert not gc.is_tracked(files)
