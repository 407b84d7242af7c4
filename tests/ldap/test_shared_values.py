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


# -- one fold per published tuple, across the federation ---------------------

NAMES = ["Jan.NC", "feb.nc", "MAR.nc"]


def _lookup(env, catalog, name):
    proc = env.process(catalog.find_replicas("co2", name))
    env.run(until=proc)
    return sorted(loc.name for loc in proc.value)


def _agree(env, fed, sites, name):
    """Each shard's answer for ``name``, after checking that the lower-
    and upper-case forms of ``name`` get that same answer there."""
    answers = []
    for site in sites:
        catalog = fed.sites[site].catalog
        got = {tuple(_lookup(env, catalog, v))
               for v in (name, name.lower(), name.upper())}
        assert len(got) == 1, (site, got)
        answers.append(list(got.pop()))
    return answers


def test_published_names_are_folded_once_per_federation(monkeypatch):
    from repro.ldap import directory
    folded = []
    real = directory.fold

    def counting(values):
        folded.append(values)
        return real(values)
    monkeypatch.setattr(directory, "fold", counting)

    env = Environment()
    fed = FederatedReplicaCatalog(env, ["alpha", "beta", "gamma"],
                                  replication=3)
    fed.create_collection("co2")
    fed.register_location("co2", "anl", "gsiftp", "anl.gov", 2811, "/d",
                          ("jan.nc",))
    fed.sync_now()
    home, *peers = fed.router.preference("co2")
    # Before sync: the home holds the new location, the peers do not.
    fed.register_location("co2", "lbnl", "gsiftp", "lbl.gov", 2811, "/d",
                          NAMES)
    assert _agree(env, fed, [home] + peers, "MAR.nc") == [
        ["lbnl"], [], []]
    # An outage on one peer: it misses the first sync and replays later.
    late = peers[-1]
    fed.sites[late].directory.add_outage(env.now, 5.0)
    assert fed.sync_now() > 0
    assert _agree(env, fed, [home, peers[0]], "MAR.nc") == [
        ["lbnl"], ["lbnl"]]
    assert fed.lag == 1
    env.run(until=env.now + 10.0)
    assert fed.sync_now() > 0
    assert _agree(env, fed, [home] + peers, "MAR.nc") == [["lbnl"]] * 3
    assert _agree(env, fed, [home] + peers, "jan.nc") == [
        ["anl", "lbnl"]] * 3

    entries = [fed.sites[s].directory.lookup("loc=lbnl,lc=co2,rc=esg")
               for s in [home] + peers]
    raw = entries[0].get("filename")
    assert raw == tuple(NAMES)
    assert entries[0].folded["filename"] == tuple(
        sorted(n.lower() for n in NAMES))
    for peer in entries[1:]:
        assert peer.get("filename") is raw
        assert peer.folded["filename"] is entries[0].folded["filename"]
    assert sum(1 for values in folded if values is raw) == 1
    # The log let go of the op, and with it the shared tuple's carrier.
    assert fed.lag == 0


class _Name(str):
    """A file name a weak reference can watch."""


def test_no_memo_keeps_a_dropped_federation_alive():
    import weakref
    env = Environment()
    fed = FederatedReplicaCatalog(env, ["alpha", "beta"], replication=2)
    fed.create_collection("co2")
    names = [_Name(f"File{i}.NC") for i in range(3)]
    watched = [weakref.ref(n) for n in names]
    fed.register_location("co2", "anl", "gsiftp", "anl.gov", 2811, "/d",
                          names)
    fed.sync_now()
    for name in names:
        proc = env.process(fed.find_replicas("co2", name))
        env.run(until=proc)
        assert [loc.files for loc in proc.value] == [tuple(names)]
    del fed, names, name, proc, env
    gc.collect()
    assert all(ref() is None for ref in watched)
