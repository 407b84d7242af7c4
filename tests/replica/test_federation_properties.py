"""Property-based invariants of the federated replica catalog.

Random publish/update/delete workloads are driven against a sharded
federation and an unsharded :class:`ReplicaCatalog` in lockstep, and
three invariants are checked:

- **read equivalence**: after replication quiesces, every federated
  read (collections, locations, timed ``find_replicas`` fan-out)
  returns exactly what the unsharded union baseline returns, with
  results deterministically ordered;
- **routing is total and stable**: every collection name maps to a
  home shard and a duplicate-free preference list, independently
  constructed routers agree, and removing a site only moves the
  collections it homed;
- **replication converges**: under arbitrary interleavings of writes
  and partial sync rounds, a final flush makes every preference
  shard's collection subtree byte-identical to its home's, and the
  version-gated conflict resolution makes replay a no-op.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap.directory import Scope
from repro.replica.catalog import ReplicaCatalog
from repro.replica.federation import FederatedReplicaCatalog, ShardRouter
from repro.sim import Environment

SITES = ["anl", "ncar", "isi"]
COLLS = [f"pcmdi.model{i}.run" for i in range(4)]
LOCS = ["alpha", "beta"]
FILES = [f"file{i:02d}.nc" for i in range(6)]

# One declarative workload op; validity is resolved against a model at
# apply time so every generated sequence is usable.
op_strategy = st.tuples(
    st.sampled_from(["create", "reg_loc", "reg_lf", "add_file",
                     "remove_file", "del_loc"]),
    st.integers(0, len(COLLS) - 1),
    st.integers(0, len(LOCS) - 1),
    st.integers(0, len(FILES) - 1))
ops_strategy = st.lists(op_strategy, min_size=1, max_size=30)


class Model:
    """Tracks which ops are valid against the catalogs' current state."""

    def __init__(self):
        self.colls = {}          # coll -> loc -> [files]
        self.lfs = set()         # (coll, file) with a logical-file entry

    def admit(self, op):
        """The concrete (kind, coll, loc, lf) if valid, else None."""
        kind, ci, li, fi = op
        coll, loc, lf = COLLS[ci], LOCS[li], FILES[fi]
        locs = self.colls.get(coll)
        if kind == "create":
            if locs is not None:
                return None
            self.colls[coll] = {}
        elif kind == "reg_loc":
            if locs is None or loc in locs:
                return None
            locs[loc] = [lf]
        elif kind == "reg_lf":
            if locs is None or (coll, lf) in self.lfs:
                return None
            self.lfs.add((coll, lf))
        elif kind == "add_file":
            if locs is None or loc not in locs or lf in locs[loc]:
                return None
            locs[loc].append(lf)
        elif kind == "remove_file":
            if locs is None or loc not in locs or lf not in locs[loc]:
                return None
            locs[loc].remove(lf)
        elif kind == "del_loc":
            if locs is None or loc not in locs:
                return None
            del locs[loc]
        return kind, coll, loc, lf


def perform(catalog, kind, coll, loc, lf):
    """Apply one admitted op to a catalog (federated or plain)."""
    if kind == "create":
        catalog.create_collection(coll, description="prop")
    elif kind == "reg_loc":
        catalog.register_location(coll, loc, "gsiftp",
                                  f"{loc}.example.org", 2811, "/data",
                                  [lf])
    elif kind == "reg_lf":
        catalog.register_logical_file(coll, lf, 4096.0)
    elif kind == "add_file":
        catalog.add_file_to_location(coll, loc, lf)
    elif kind == "remove_file":
        catalog.remove_file_from_location(coll, loc, lf)
    elif kind == "del_loc":
        catalog.delete_location(coll, loc)


def loc_key(info):
    return (info.name, info.protocol, info.hostname, info.port,
            info.path, tuple(sorted(info.files)))


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
def test_federated_reads_match_unsharded_baseline(ops):
    env = Environment(seed=11)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=5.0)
    base = ReplicaCatalog(env, name="esg")
    model = Model()
    for op in ops:
        admitted = model.admit(op)
        if admitted is None:
            continue
        perform(fed, *admitted)
        perform(base, *admitted)
    fed.sync_now()

    def snap(catalog):
        return sorted((c.name, c.description, c.file_count,
                       c.location_count) for c in catalog.collections())

    assert snap(fed) == snap(base)
    for coll in sorted(model.colls):
        assert sorted(map(loc_key, fed.locations(coll))) == \
            sorted(map(loc_key, base.locations(coll)))
        for lf in FILES:
            assert fed.logical_file_size(coll, lf) == \
                base.logical_file_size(coll, lf)

    def driver():
        for coll in sorted(model.colls):
            for lf in FILES:
                got = yield from fed.find_replicas(coll, lf)
                want = yield from base.find_replicas(coll, lf)
                # federated answers are DN-sorted; normalise the
                # baseline the same way before comparing.
                assert [loc_key(l) for l in got] == \
                    sorted(loc_key(l) for l in want)
                # and the federated order itself is deterministic
                assert [l.name for l in got] == \
                    sorted(l.name for l in got)

    proc = env.process(driver())
    env.run(until=proc)


site_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6),
    min_size=1, max_size=8, unique=True)
coll_names = st.lists(
    st.text(alphabet="abcdefghijklmnop0123456789.", min_size=1,
            max_size=16),
    min_size=1, max_size=16, unique=True)


@settings(max_examples=200, deadline=None)
@given(sites=site_names, colls=coll_names, replicas=st.integers(1, 4))
def test_router_total_and_stable(sites, colls, replicas):
    router = ShardRouter(sites, replicas=replicas)
    twin = ShardRouter(sites, replicas=replicas)
    want_len = min(replicas, len(sites))
    for coll in colls:
        prefs = router.preference(coll)
        # total: every name routes, to real sites, without duplicates
        assert len(prefs) == want_len
        assert len(set(prefs)) == len(prefs)
        assert all(site in sites for site in prefs)
        assert prefs[0] == router.home(coll)
        # deterministic: an independently built router agrees
        assert twin.preference(coll) == prefs
    if len(sites) > 1:
        # stable: removing one site only moves the collections it homed
        removed = sites[len(sites) // 2]
        shrunk = ShardRouter([s for s in sites if s != removed],
                             replicas=replicas)
        for coll in colls:
            if router.home(coll) != removed:
                assert shrunk.home(coll) == router.home(coll)


def subtree(site, coll):
    """A site's collection subtree as comparable, ordered data."""
    dn = site.catalog.root.child("lc", coll)
    if not site.directory.exists(dn):
        return None
    return sorted(
        (str(entry.dn),
         tuple(sorted((attr, tuple(sorted(values)))
                      for attr, values in entry.attributes.items())))
        for entry in site.directory.search(dn, Scope.SUBTREE))


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy,
       flushes=st.sets(st.integers(0, 29), max_size=5))
def test_replication_converges_after_quiescence(ops, flushes):
    env = Environment(seed=5)
    fed = FederatedReplicaCatalog(env, SITES, replication=2,
                                  sync_interval=5.0)
    model = Model()
    for index, op in enumerate(ops):
        admitted = model.admit(op)
        if admitted is not None:
            perform(fed, *admitted)
        if index in flushes:
            fed.sync_now()
    fed.sync_now()
    assert fed.lag == 0
    # quiescent replay is conflict-resolved into a no-op
    assert fed.sync_now() == 0
    for coll in model.colls:
        prefs = fed.router.preference(coll)
        home = subtree(fed.sites[prefs[0]], coll)
        assert home is not None
        for peer in prefs[1:]:
            assert subtree(fed.sites[peer], coll) == home
