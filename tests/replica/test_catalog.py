"""Tests for the replica catalog, including the paper's Figure 6 example."""

import pytest

from repro.replica import (
    LocationInfo,
    NwsBestPolicy,
    RandomPolicy,
    ReplicaCandidate,
    ReplicaCatalog,
    ReplicaError,
    RoundRobinPolicy,
)
from repro.sim import Environment


def figure6_catalog(env=None):
    """The exact catalog of the paper's Figure 6: two CO2 collections;
    the 1998 one has a partial copy at jupiter.isi.edu and a complete one
    at sprite.llnl.gov."""
    env = env or Environment()
    rc = ReplicaCatalog(env, name="climate")
    files_98 = [f"ua.1998.{m:02d}.nc" for m in range(1, 13)]
    rc.create_collection("CO2 measurements 1998",
                         description="CO2 collection for 1998")
    rc.create_collection("CO2 measurements 1999",
                         description="CO2 collection for 1999")
    rc.register_location("CO2 measurements 1998", "jupiter.isi.edu",
                         protocol="gsiftp", hostname="jupiter.isi.edu",
                         port=2811, path="/nfs/v6/climate",
                         files=files_98[:6])        # partial copy
    rc.register_location("CO2 measurements 1998", "sprite.llnl.gov",
                         protocol="gsiftp", hostname="sprite.llnl.gov",
                         port=2811, path="/data/climate",
                         files=files_98)            # complete copy
    for f in files_98:
        rc.register_logical_file("CO2 measurements 1998", f, 1_234_567)
    return env, rc, files_98


def test_collections_listing():
    env, rc, files = figure6_catalog()
    colls = {c.name: c for c in rc.collections()}
    assert set(colls) == {"CO2 measurements 1998", "CO2 measurements 1999"}
    c98 = colls["CO2 measurements 1998"]
    assert c98.location_count == 2
    assert c98.file_count == 12


def test_locations_and_urls():
    env, rc, files = figure6_catalog()
    locs = {l.name: l for l in rc.locations("CO2 measurements 1998")}
    jupiter = locs["jupiter.isi.edu"]
    sprite = locs["sprite.llnl.gov"]
    assert len(jupiter.files) == 6        # partial
    assert len(sprite.files) == 12        # complete
    assert jupiter.url_for("ua.1998.01.nc") == \
        "gsiftp://jupiter.isi.edu:2811/nfs/v6/climate/ua.1998.01.nc"
    with pytest.raises(ReplicaError):
        jupiter.url_for("ua.1998.12.nc")  # not in the partial copy


def test_find_replicas_partial_vs_complete():
    env, rc, files = figure6_catalog()

    def main():
        early = yield from rc.find_replicas("CO2 measurements 1998",
                                            "ua.1998.03.nc")
        late = yield from rc.find_replicas("CO2 measurements 1998",
                                           "ua.1998.11.nc")
        return ({l.name for l in early}, {l.name for l in late})

    p = env.process(main())
    env.run()
    early, late = p.value
    assert early == {"jupiter.isi.edu", "sprite.llnl.gov"}
    assert late == {"sprite.llnl.gov"}   # only the complete copy


def test_find_replicas_costs_ldap_time():
    env, rc, files = figure6_catalog()

    def main():
        yield from rc.find_replicas("CO2 measurements 1998",
                                    "ua.1998.01.nc")
        return env.now

    p = env.process(main())
    env.run()
    assert p.value > 0


def test_logical_file_entries_optional():
    env, rc, files = figure6_catalog()
    assert rc.logical_file_size("CO2 measurements 1998",
                                "ua.1998.01.nc") == 1_234_567
    # 1999 collection has no logical file entries.
    rc.register_location("CO2 measurements 1999", "sprite.llnl.gov",
                         "gsiftp", "sprite.llnl.gov", 2811, "/data",
                         files=["ua.1999.01.nc"])
    assert rc.logical_file_size("CO2 measurements 1999",
                                "ua.1999.01.nc") is None


def test_duplicate_registrations_rejected():
    env, rc, files = figure6_catalog()
    with pytest.raises(ReplicaError):
        rc.create_collection("CO2 measurements 1998")
    with pytest.raises(ReplicaError):
        rc.register_location("CO2 measurements 1998", "jupiter.isi.edu",
                             "gsiftp", "x", 2811, "/", files=[])
    with pytest.raises(ReplicaError):
        rc.register_logical_file("CO2 measurements 1998",
                                 "ua.1998.01.nc", 1)


def test_unknown_collection_rejected():
    env, rc, files = figure6_catalog()
    with pytest.raises(ReplicaError):
        rc.locations("nope")
    with pytest.raises(ReplicaError):
        rc.register_location("nope", "l", "gsiftp", "h", 1, "/", [])


def test_add_remove_file_at_location():
    env, rc, files = figure6_catalog()
    rc.add_file_to_location("CO2 measurements 1998", "jupiter.isi.edu",
                            "ua.1998.07.nc")
    locs = {l.name: l for l in rc.locations("CO2 measurements 1998")}
    assert "ua.1998.07.nc" in locs["jupiter.isi.edu"].files
    rc.remove_file_from_location("CO2 measurements 1998",
                                 "jupiter.isi.edu", "ua.1998.07.nc")
    locs = {l.name: l for l in rc.locations("CO2 measurements 1998")}
    assert "ua.1998.07.nc" not in locs["jupiter.isi.edu"].files


def test_delete_location():
    env, rc, files = figure6_catalog()
    rc.delete_location("CO2 measurements 1998", "jupiter.isi.edu")
    assert len(rc.locations("CO2 measurements 1998")) == 1


def test_scalability_without_logical_files():
    """The optional-logical-file design: catalog size stays flat."""
    env = Environment()
    rc = ReplicaCatalog(env, name="big")
    rc.create_collection("huge")
    files = [f"f{i}.nc" for i in range(500)]
    rc.register_location("huge", "site-a", "gsiftp", "a.gov", 2811,
                         "/d", files=files)
    lean_entries = len(rc.directory)
    for f in files:
        rc.register_logical_file("huge", f, 1000)
    assert len(rc.directory) == lean_entries + 500


# -- selection policies ------------------------------------------------------

def candidates():
    def loc(name):
        return LocationInfo(name, "gsiftp", name, 2811, "/", ("f",))
    return [
        ReplicaCandidate(loc("slow.gov"), bandwidth=1e6, latency=0.05),
        ReplicaCandidate(loc("fast.gov"), bandwidth=1e8, latency=0.01),
        ReplicaCandidate(loc("tape.gov"), bandwidth=5e7, latency=0.02,
                         stage_wait=120.0),
    ]


def test_nws_best_picks_highest_bandwidth():
    ranked = NwsBestPolicy().rank(candidates(), nbytes=1e9)
    assert ranked[0].location.name == "fast.gov"


def test_nws_best_with_staging_penalizes_tape():
    # For a small file, staging dominates; for a huge file, bandwidth does.
    small = NwsBestPolicy(consider_staging=True).rank(candidates(), 1e6)
    assert small[0].location.name == "fast.gov"
    assert small[-1].location.name == "tape.gov"
    huge = NwsBestPolicy(consider_staging=True).rank(candidates(), 1e12)
    assert huge[0].location.name == "fast.gov"
    # slow.gov at 1 MB/s takes ~11.6 days for 1 TB; tape wins despite wait.
    assert huge[1].location.name == "tape.gov"


def test_round_robin_rotates():
    policy = RoundRobinPolicy()
    first = policy.rank(candidates(), 1)[0].location.name
    second = policy.rank(candidates(), 1)[0].location.name
    third = policy.rank(candidates(), 1)[0].location.name
    fourth = policy.rank(candidates(), 1)[0].location.name
    assert len({first, second, third}) == 3
    assert fourth == first


def test_random_policy_is_seeded():
    import numpy as np
    a = RandomPolicy(np.random.default_rng(1)).rank(candidates(), 1)
    b = RandomPolicy(np.random.default_rng(1)).rank(candidates(), 1)
    assert [c.location.name for c in a] == [c.location.name for c in b]


def test_transfer_estimate():
    c = ReplicaCandidate(
        LocationInfo("x", "gsiftp", "x", 2811, "/", ("f",)),
        bandwidth=1e6, latency=0.5, stage_wait=10.0)
    assert c.transfer_estimate(2e6) == pytest.approx(10.0 + 0.5 + 2.0)


def test_spread_policy_rotates_among_near_best():
    from repro.replica import NwsSpreadPolicy

    def loc(name):
        return LocationInfo(name, "gsiftp", name, 2811, "/", ("f",))

    cands = [
        ReplicaCandidate(loc("site-a"), bandwidth=1e8, latency=0.01),
        ReplicaCandidate(loc("site-b"), bandwidth=0.9e8, latency=0.01),
        ReplicaCandidate(loc("slow.gov"), bandwidth=1e6, latency=0.05),
    ]
    policy = NwsSpreadPolicy(tolerance=0.5)
    firsts = [policy.rank(cands, nbytes=1e9)[0].location.name
              for _ in range(4)]
    # a and b are within tolerance of each other: rotation spreads load;
    # the slow site never leads.
    assert set(firsts) == {"site-a", "site-b"}
    # The slow site is always last.
    assert policy.rank(cands, 1e9)[-1].location.name == "slow.gov"


def test_spread_policy_validation_and_empty():
    from repro.replica import NwsSpreadPolicy
    import pytest as _pytest
    with _pytest.raises(ValueError):
        NwsSpreadPolicy(tolerance=-1)
    assert NwsSpreadPolicy().rank([], 1) == []


# -- filter escaping (RFC 2254) ------------------------------------------------

def _find(env, rc, name):
    proc = env.process(rc.find_replicas("c", name))
    env.run()
    return sorted(loc.name for loc in proc.value)


def test_find_replicas_matches_a_name_literally():
    env = Environment()
    rc = ReplicaCatalog(env)
    rc.create_collection("c")
    rc.register_location("c", "siteA", "gsiftp", "a.gov", 2811, "/d",
                         ["a1.nc", "a2.nc"])
    # Unescaped, "a*" was a wildcard and found siteA.
    assert _find(env, rc, "a*") == []
    assert _find(env, rc, "a1.nc") == ["siteA"]



def test_find_replicas_keeps_whitespace_at_the_ends_of_a_name():
    env = Environment()
    rc = ReplicaCatalog(env)
    rc.create_collection("c")
    rc.register_location("c", "siteA", "gsiftp", "a.gov", 2811, "/d",
                         ["a.nc "])
    rc.register_location("c", "siteB", "gsiftp", "b.gov", 2811, "/d",
                         ["a.nc"])
    rc.register_location("c", "siteC", "gsiftp", "c.gov", 2811, "/d",
                         [" a.nc", "\ta.nc\u3000"])
    # Unescaped, the filter parser stripped the spaces and "a.nc "
    # found siteB's "a.nc".
    assert _find(env, rc, "a.nc ") == ["siteA"]
    assert _find(env, rc, "a.nc") == ["siteB"]
    assert _find(env, rc, " a.nc") == ["siteC"]
    assert _find(env, rc, "\ta.nc\u3000") == ["siteC"]
    assert _find(env, rc, "  a.nc") == []

def test_find_replicas_with_filter_syntax_in_the_name():
    env = Environment()
    rc = ReplicaCatalog(env)
    rc.create_collection("c")
    odd = ["x)(objectclass=*", "b\\5c(1)*.nc", "nul\x00.nc"]
    rc.register_location("c", "siteA", "gsiftp", "a.gov", 2811, "/d",
                         ["plain.nc"])
    rc.register_location("c", "siteB", "gsiftp", "b.gov", 2811, "/d", odd)
    # A name holding ")(" no longer rewrites the filter into one that
    # matches every location.
    for name in odd:
        assert _find(env, rc, name) == ["siteB"]
    assert _find(env, rc, "x)(objectclass=location") == []
