"""Directed tests for the federated replica catalog.

Covers the behaviours the property suite can't pin down one by one:
the verify-on-open demotion loop end-to-end through the testbed, shard
outages degrading fan-out queries to partial answers (with the circuit
breaker opening and recovering), the stale client cache, and the
facade's conformance to the plain :class:`ReplicaCatalog` surface.
"""

import pytest

from repro.ldap.directory import DirectoryUnavailable
from repro.net.faults import FaultSchedule
from repro.replica.catalog import ReplicaCatalog, ReplicaError
from repro.replica import federation
from repro.replica.federation import FederatedReplicaCatalog
from repro.rm.request import FileState
from repro.scenarios.esg import EsgTestbed
from repro.sim import Environment

MB = 2**20
SITES = ["anl", "ncar", "isi"]


def publish(fed, coll="pcmdi.test.run1", files=("jan.nc", "feb.nc"),
            locations=("alpha", "beta")):
    fed.create_collection(coll, description="directed")
    for loc in locations:
        fed.register_location(coll, loc, "gsiftp",
                              f"{loc}.example.org", 2811, "/data",
                              files)
    fed.sync_now()
    return coll


def lookup(env, fed, coll, name):
    proc = env.process(fed.find_replicas_meta(coll, name))
    env.run(until=proc)
    return proc.value


# -- the demotion loop, end-to-end through the testbed -------------------

def test_verify_on_open_demotes_and_reselects():
    """A catalog entry that outlived its replica must not fail the
    request: the open mismatch demotes the entry (``catalog.demote``
    on the lifeline), selection falls through to a live copy, and the
    demoted entries stay hidden until the collection is refreshed."""
    tb = EsgTestbed(seed=3, with_tape=False,
                    file_size_override=2 * MB, catalog_sites=3,
                    catalog_sync_interval=600.0)
    tb.warm_nws(60.0)
    fed = tb.federation
    ds = tb.dataset_ids()[0]
    name = str(tb.datasets[ds][0]["logical_name"])
    holders = [loc.name for loc in fed.locations(ds)
               if loc.holds(name)]
    assert len(holders) >= 3
    # Keep the copy at the slowest site (155 Mb/s WAN) so NWS-ranked
    # selection tries the doctored fast replicas first.
    slow = {"ncar", "isi", "sdsc", "llnl"}
    survivor = next(h for h in holders if h in slow)
    doctored = [h for h in holders if h != survivor]
    for site_name in doctored:
        tb.sites[site_name].fs.delete(name)

    ticket = tb.request_manager.submit([(ds, name)])
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.DONE
    assert fr.chosen_location == survivor
    # Every doctored replica the RM tried got demoted (ranked first,
    # so at least one was tried before the survivor won).
    events = [r for r in tb.logger.records
              if r.event == "catalog.demote"]
    demoted = {e.fields["location"] for e in events}
    assert demoted and demoted <= set(doctored)
    assert fr.stale_demotes == len(demoted)
    assert fed.demotes == len(demoted)
    # Demoted entries are hidden from subsequent lookups...
    replicas, _meta = lookup(tb.env, fed, ds, name)
    assert set(loc.name for loc in replicas) == \
        set(holders) - demoted
    for site_name in demoted:
        assert fed.is_demoted(ds, name, site_name)
    # ...and from campaign planning.
    from repro.campaign import plan_campaign
    _manifest, planned = plan_campaign(fed, [ds])
    assert set(loc.name for loc in planned[(ds, name)]) == \
        set(holders) - demoted
    # A home write refreshes the collection: entries are re-offered.
    fed.add_file_to_location(ds, survivor, f"{name}.refreshed")
    for site_name in demoted:
        assert not fed.is_demoted(ds, name, site_name)
    assert fed.refreshes == len(demoted)
    replicas, _meta = lookup(tb.env, fed, ds, name)
    assert set(loc.name for loc in replicas) == set(holders)


def test_demoted_entries_not_reoffered_until_refresh():
    env = Environment(seed=1)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0)
    coll = publish(fed)
    fed.demote(coll, "jan.nc", "alpha")
    replicas, _ = lookup(env, fed, coll, "jan.nc")
    assert [loc.name for loc in replicas] == ["beta"]
    fed.demote(coll, "jan.nc", "beta")
    replicas, _ = lookup(env, fed, coll, "jan.nc")
    assert replicas == []
    # other files at the same locations are unaffected
    replicas, _ = lookup(env, fed, coll, "feb.nc")
    assert [loc.name for loc in replicas] == ["alpha", "beta"]
    fed.register_logical_file(coll, "mar.nc", 1.0)   # any home write
    replicas, _ = lookup(env, fed, coll, "jan.nc")
    assert [loc.name for loc in replicas] == ["alpha", "beta"]
    assert fed.refreshes == 2


# -- shard outages: partial answers, staleness, breaker recovery ---------

def test_home_outage_degrades_to_partial_answer(monkeypatch):
    monkeypatch.setattr(federation, "BREAKER_RESET_TIMEOUT", 30.0)
    env = Environment(seed=2)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0)
    coll = publish(fed)
    home = fed.router.home(coll)
    peer = fed.router.preference(coll)[1]
    fed.sites[home].directory.add_outage(start=env.now,
                                         duration=100.0)
    replicas, meta = lookup(env, fed, coll, "jan.nc")
    assert [loc.name for loc in replicas] == ["alpha", "beta"]
    assert meta.partial
    assert meta.winner == peer
    assert fed.stats()["partial_queries"] == 1


def test_write_during_home_outage_flags_stale():
    env = Environment(seed=2)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=1e6)
    coll = publish(fed)
    home = fed.router.home(coll)
    fed.sites[home].directory.add_outage(start=env.now,
                                         duration=100.0)
    # Registration still lands at the home (setup-plane writes ignore
    # outage windows), but with the pump quiesced the peer lags; the
    # home being down forces the fan-out onto the lagging peer.
    fed.add_file_to_location(coll, "alpha", "mar.nc")
    assert fed.lag > 0                  # pending for the peer
    replicas, meta = lookup(env, fed, coll, "mar.nc")
    assert meta.partial and meta.stale
    assert replicas == []               # the peer hasn't seen mar.nc
    assert fed.stats()["stale_hits"] == 1
    # jan.nc is unaffected: present everywhere, just version-lagged
    replicas, meta = lookup(env, fed, coll, "jan.nc")
    assert [loc.name for loc in replicas] == ["alpha", "beta"]
    assert meta.stale


def test_breaker_opens_on_repeated_shard_failures_then_recovers(monkeypatch):
    monkeypatch.setattr(federation, "BREAKER_FAILURE_THRESHOLD", 2)
    monkeypatch.setattr(federation, "BREAKER_RESET_TIMEOUT", 20.0)
    env = Environment(seed=4)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0)
    coll = publish(fed)
    home = fed.router.home(coll)
    fed.sites[home].directory.add_outage(start=env.now, duration=50.0)
    for _ in range(2):
        _replicas, meta = lookup(env, fed, coll, "jan.nc")
        assert meta.partial
    assert fed.stats()["breakers"][home] == "open"
    # While open, the shard isn't even queried (skipped, still partial).
    _replicas, meta = lookup(env, fed, coll, "jan.nc")
    assert meta.partial and meta.queried == 1
    # After the outage and the reset timeout, one probe heals it.
    env.run(until=80.0)
    _replicas, meta = lookup(env, fed, coll, "jan.nc")
    assert not meta.partial
    assert fed.stats()["breakers"][home] == "closed"


def test_all_preference_shards_down_raises_unavailable():
    env = Environment(seed=5)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0)
    coll = publish(fed)
    for site in fed.router.preference(coll):
        fed.sites[site].directory.add_outage(start=env.now,
                                             duration=100.0)
    proc = env.process(fed.find_replicas(coll, "jan.nc"))
    with pytest.raises(DirectoryUnavailable):
        env.run(until=proc)


def test_unknown_collection_raises_replica_error():
    env = Environment(seed=5)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0)
    publish(fed)
    proc = env.process(fed.find_replicas("nope", "jan.nc"))
    with pytest.raises(ReplicaError):
        env.run(until=proc)


def test_testbed_shard_outage_via_fault_schedule():
    """The fault injector's ``catalog:<site>`` target reaches one
    federation shard; queries during the window degrade to partial."""
    tb = EsgTestbed(seed=6, with_tape=False,
                    file_size_override=2 * MB, catalog_sites=3,
                    catalog_sync_interval=15.0)
    shard = sorted(tb.federation.sites)[0]
    sched = FaultSchedule().catalog_outage(10.0, 60.0, site=shard,
                                           description="shard down")
    tb.fault_injector().install(sched)
    tb.env.run(until=20.0)
    ds = tb.dataset_ids()[0]
    name = str(tb.datasets[ds][0]["logical_name"])
    hit = False
    for coll in [c.name for c in tb.federation.collections()]:
        if shard not in tb.federation.router.preference(coll):
            continue
        lf = (name if coll == ds
              else str(tb.datasets[coll][0]["logical_name"]))
        _replicas, meta = lookup(tb.env, tb.federation, coll, lf)
        assert meta.partial
        hit = True
    assert hit


# -- the client-side lookup cache ----------------------------------------

def test_cache_hit_is_free_and_expires():
    env = Environment(seed=7)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0, cache_ttl=60.0)
    coll = publish(fed)
    replicas, meta = lookup(env, fed, coll, "jan.nc")
    assert meta.queried > 0
    t_after_miss = env.now
    assert t_after_miss > 0.0           # the fan-out cost time
    cached, meta = lookup(env, fed, coll, "jan.nc")
    assert env.now == t_after_miss      # the hit cost none
    assert meta.queried == 0 and meta.winner == "cache"
    assert [loc.name for loc in cached] == \
        [loc.name for loc in replicas]
    assert fed.cache_hits == 1
    env.run(until=t_after_miss + 61.0)  # past the TTL
    _replicas, meta = lookup(env, fed, coll, "jan.nc")
    assert meta.queried > 0
    assert fed.cache_hits == 1


def test_write_invalidates_cache():
    env = Environment(seed=7)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0, cache_ttl=1e6)
    coll = publish(fed)
    lookup(env, fed, coll, "jan.nc")
    fed.add_file_to_location(coll, "alpha", "mar.nc")
    replicas, meta = lookup(env, fed, coll, "jan.nc")
    assert meta.queried > 0             # cache was invalidated
    assert fed.cache_hits == 0
    assert meta.version == fed._version[coll]


# -- facade conformance ---------------------------------------------------

def test_facade_matches_plain_catalog_surface():
    env = Environment(seed=8)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=10.0)
    plain = ReplicaCatalog(env, name="esg")
    for cat in (fed, plain):
        cat.create_collection("pcmdi.x.run1", description="d")
        cat.register_location("pcmdi.x.run1", "alpha", "gsiftp",
                              "a.example.org", 2811, "/data",
                              ["jan.nc"])
        cat.register_logical_file("pcmdi.x.run1", "jan.nc", 512.0,
                                  attributes={"digest": "sha:beef"})
    fed.sync_now()
    assert [(c.name, c.description, c.file_count, c.location_count)
            for c in fed.collections()] == \
        [(c.name, c.description, c.file_count, c.location_count)
         for c in plain.collections()]
    assert [loc.name for loc in fed.locations("pcmdi.x.run1")] == \
        [loc.name for loc in plain.locations("pcmdi.x.run1")]
    assert fed.logical_file_size("pcmdi.x.run1", "jan.nc") == 512.0
    assert fed.logical_file_digest("pcmdi.x.run1", "jan.nc") == \
        "sha:beef"
    assert fed.shard_map() == {
        "pcmdi.x.run1": fed.router.preference("pcmdi.x.run1")}
    stats = fed.stats()
    assert set(SITES) == set(stats["sites"]) == set(stats["breakers"])
    assert "FederatedReplicaCatalog" in repr(fed)


def test_conflicting_catalog_architectures_rejected():
    with pytest.raises(ValueError):
        EsgTestbed(seed=0, catalog_sites=99)
