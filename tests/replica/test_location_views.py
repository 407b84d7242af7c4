"""One ``LocationInfo`` per version of a location entry.

The replica catalog keeps the ``LocationInfo`` it builds for a ``loc=``
entry as that entry's ``view``; every write to the entry drops it. So an
untouched entry answers with the same object, and every mutation path
answers with a fresh one that carries the new files.
"""

import pytest

from repro.replica import FederatedReplicaCatalog, ReplicaCatalog
from repro.sim import Environment


def catalog():
    env = Environment()
    rc = ReplicaCatalog(env)
    rc.create_collection("co2")
    rc.register_location("co2", "anl", "gsiftp", "anl.gov", 2811, "/d",
                         ["jan.nc", "feb.nc"])
    rc.register_location("co2", "lbnl", "gsiftp", "lbl.gov", 2811, "/d",
                         ["jan.nc"])
    return env, rc


def found(env, rc, name="jan.nc"):
    proc = env.process(rc.find_replicas("co2", name))
    env.run()
    return {loc.name: loc for loc in proc.value}


def entry(rc, location):
    return rc.directory.lookup(f"loc={location},lc=co2,rc=esg")


def test_an_untouched_entry_answers_with_one_object():
    env, rc = catalog()
    first = found(env, rc)
    again = found(env, rc)
    listed = {loc.name: loc for loc in rc.locations("co2")}
    for name in ("anl", "lbnl"):
        assert again[name] is first[name]
        assert listed[name] is first[name]
        assert entry(rc, name).view is first[name]


MUTATIONS = {
    "modify replace": lambda rc: rc.directory.modify(
        "loc=anl,lc=co2,rc=esg", replace={"filename": ("jan.nc", "mar.nc")}),
    "modify add": lambda rc: rc.directory.modify(
        "loc=anl,lc=co2,rc=esg", add_values={"filename": "mar.nc"}),
    "modify delete": lambda rc: rc.directory.modify(
        "loc=anl,lc=co2,rc=esg", delete_attrs=["hostname"]),
    "add_file_to_location": lambda rc: rc.add_file_to_location(
        "co2", "anl", "mar.nc"),
    "remove_file_from_location": lambda rc: rc.remove_file_from_location(
        "co2", "anl", "feb.nc"),
}


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_every_write_answers_with_a_fresh_view(kind):
    env, rc = catalog()
    before = found(env, rc)
    MUTATIONS[kind](rc)
    assert entry(rc, "anl").view is None
    after = found(env, rc)
    assert after["anl"] is not before["anl"]
    assert after["anl"].files is entry(rc, "anl").get("filename")
    assert after["anl"].hostname == entry(rc, "anl").first("hostname", "")
    # The other location was not written: same object.
    assert after["lbnl"] is before["lbnl"]


def test_add_and_remove_carry_the_new_files():
    env, rc = catalog()
    found(env, rc)
    rc.add_file_to_location("co2", "lbnl", "feb.nc")
    assert sorted(found(env, rc, "feb.nc")) == ["anl", "lbnl"]
    assert found(env, rc, "feb.nc")["lbnl"].files == ("jan.nc", "feb.nc")
    rc.remove_file_from_location("co2", "anl", "feb.nc")
    assert sorted(found(env, rc, "feb.nc")) == ["lbnl"]
    assert found(env, rc)["anl"].files == ("jan.nc",)


def test_delete_then_reregister_answers_with_the_new_entry():
    env, rc = catalog()
    old = found(env, rc)["anl"]
    rc.delete_location("co2", "anl")
    assert sorted(found(env, rc)) == ["lbnl"]
    rc.register_location("co2", "anl", "https", "anl2.gov", 443, "/e",
                         ["jan.nc"])
    new = found(env, rc)["anl"]
    assert new is not old
    assert (new.protocol, new.hostname, new.port, new.files) == (
        "https", "anl2.gov", 443, ("jan.nc",))
    assert new.url_for("jan.nc") == "https://anl2.gov:443/e/jan.nc"


def test_federated_answers_follow_the_home_write():
    env = Environment()
    fed = FederatedReplicaCatalog(env, ["alpha", "beta"], replication=2)
    fed.create_collection("co2")
    fed.register_location("co2", "anl", "gsiftp", "anl.gov", 2811, "/d",
                          ["jan.nc"])
    fed.sync_now()

    def lookup(name):
        proc = env.process(fed.find_replicas("co2", name))
        env.run(until=proc)
        return [(loc.name, loc.files) for loc in proc.value]

    assert lookup("feb.nc") == []
    fed.add_file_to_location("co2", "anl", "feb.nc")
    fed.sync_now()
    assert lookup("feb.nc") == [("anl", ("jan.nc", "feb.nc"))]
