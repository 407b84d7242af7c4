"""One-level search through the per-parent ``objectclass`` index.

A one-level search whose filter names an ``objectclass`` that every
match must carry runs its predicate on that index slot only. The oracle
is the brute-force scan it replaces: the compiled predicate over every
child, sorted by DN. Random sequences of adds, deletes (recursive too),
modifies and searches must agree with it entry for entry, in order,
while the simulated cost (``entries_scanned``, query latency) keeps
counting every child in scope.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap import DN, DirectoryError, DirectoryServer, Scope, directory
from repro.ldap.filters import compile_filter
from repro.sim import Environment

ROOT = "o=t"

# -- strategies ---------------------------------------------------------------

# Mixed case, so the index must key on folded values.
CLASS = st.sampled_from(["location", "Location", "lf", "LF", "top"])
CLASSES = st.lists(CLASS, min_size=0, max_size=3)
VALUE = st.sampled_from(["a", "B", "1", "2"])
ATTR = st.sampled_from(["objectclass", "ObjectClass", "kind", "size"])


def item(attr):
    value = CLASS if attr.lower() == "objectclass" else VALUE
    return st.one_of(
        value.map(lambda v: f"({attr}={v})"),
        st.just(f"({attr}=*)"),
        value.map(lambda v: f"({attr}={v[:1]}*)"),
        st.tuples(st.sampled_from([">=", "<="]), value).map(
            lambda t: f"({attr}{t[0]}{t[1]})"))


ITEM = ATTR.flatmap(item)
FILTER = st.recursive(
    ITEM,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["&", "|"]),
                  st.lists(inner, min_size=1, max_size=3)).map(
            lambda t: f"({t[0]}{''.join(t[1])})"),
        inner.map(lambda f: f"(!{f})")),
    max_leaves=5)
# Half the searches are tagged, so stale or missing index slots show;
# ``None`` is the default filter, the ``ANY_ENTRY`` predicate itself.
CLASS_EQ = st.tuples(st.sampled_from(["objectclass", "objectClass"]),
                     CLASS).map(lambda t: f"({t[0]}={t[1]})")
SEARCH = st.one_of(
    st.just(None),
    CLASS_EQ,
    st.tuples(FILTER, CLASS_EQ).map(lambda t: f"(&{t[0]}{t[1]})"),
    FILTER)
RDN = st.sampled_from([f"c{i}" for i in range(6)])
OP = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 30), RDN, CLASSES,
              st.lists(VALUE, max_size=2)),
    st.tuples(st.just("delete"), st.integers(0, 30), st.booleans()),
    st.tuples(st.just("modify"), st.integers(0, 30),
              st.sampled_from(["replace", "add_values", "delete_attrs"]),
              st.sampled_from(["objectclass", "ObjectClass", "kind"]),
              CLASSES),
    st.tuples(st.sampled_from(["search", "query"]), st.integers(0, 30),
              SEARCH),
)


# -- the differential ---------------------------------------------------------


def _within(dn, ancestor):
    """True if ``dn`` is ``ancestor`` or lies below it."""
    while dn is not None and dn != ancestor:
        dn = dn.parent
    return dn is not None


def brute_force(d, live, parent, text):
    """The scan the index replaces: every child, in DN order."""
    kids = sorted((dn for dn in live.values() if dn.parent == parent),
                  key=str)
    pred = compile_filter("(objectclass=*)" if text is None else text)
    return kids, [str(dn) for dn in kids if pred(d.lookup(dn).folded)]


def _filter_args(text):
    return () if text is None else (text,)


def timed(d, base, text):
    def main():
        return (yield from d.query(base, Scope.ONELEVEL,
                                   *_filter_args(text)))
    start = d.env.now
    p = d.env.process(main())
    d.env.run()
    return [str(e.dn) for e in p.value], start


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OP, min_size=8, max_size=40))
def test_indexed_one_level_search_matches_brute_force(ops):
    d = DirectoryServer(Environment(), "t")
    d.add(ROOT, {"objectclass": "top"})
    live = {ROOT: DN.parse(ROOT)}
    for op in ops:
        kind, pick = op[0], op[1]
        target = sorted(live)[pick % len(live)]
        if kind == "add":
            _, _, rdn, classes, kinds = op
            dn = DN.parse(target).child("c", rdn)
            if str(dn) in live:
                continue
            attrs = {"kind": kinds}
            if classes:
                attrs["objectClass"] = classes
            d.add(dn, attrs)
            live[str(dn)] = dn
        elif kind == "delete":
            if target == ROOT:
                continue
            dn = live[target]
            has_kids = any(v.parent == dn for v in live.values())
            if has_kids and not op[2]:
                with pytest.raises(DirectoryError):
                    d.delete(dn)
                continue
            d.delete(dn, recursive=op[2])
            for key in [k for k, v in live.items() if _within(v, dn)]:
                del live[key]
        elif kind == "modify":
            _, _, how, attr, values = op
            arg = [attr] if how == "delete_attrs" else {attr: values}
            d.modify(target, **{how: arg})
        elif kind == "query":
            kids, want = brute_force(d, live, live[target], op[2])
            scanned = d.entries_scanned
            got, start = timed(d, target, op[2])
            assert got == want
            assert d.env.now == start + (d.base_latency
                                         + directory.SCAN_COST * len(kids))
            assert d.entries_scanned - scanned == len(kids)
        else:  # search under every entry, so stale slots anywhere show
            for key, dn in list(live.items()):
                kids, want = brute_force(d, live, dn, op[2])
                scanned = d.entries_scanned
                got = d.search(key, Scope.ONELEVEL, *_filter_args(op[2]))
                assert [str(e.dn) for e in got] == want
                assert d.entries_scanned - scanned == len(kids)
        for key, dn in live.items():
            kids = brute_force(d, live, dn, "(objectclass=*)")[0]
            assert d.children(key) == [d.lookup(k) for k in kids]


# -- tags ---------------------------------------------------------------------


@pytest.mark.parametrize("text, tag", [
    ("(objectclass=Location)", "location"),
    ("(ObjectClass=LF)", "lf"),
    ("(&(size>=1)(objectClass=LF)(kind=a))", "lf"),
    ("(&(kind=a)(&(objectclass=top)))", "top"),
    ("(&(kind=a)(size=1))", None),
    ("(|(objectclass=lf)(objectclass=lf))", None),
    ("(!(objectclass=lf))", None),
    ("(objectclass=*)", None),
    ("(objectclass=l*)", None),
    ("(objectclass>=lf)", None),
    ("(kind=lf)", None),
])
def test_only_conjunctive_objectclass_equality_is_tagged(text, tag):
    assert getattr(compile_filter(text), "objectclass", None) == tag


# -- a timed query answers from its arrival snapshot ------------------------


def collection(env):
    d = DirectoryServer(env, "rc", base_latency=0.01)
    d.add(ROOT, {"objectclass": "top"})
    for i in range(6):
        d.add(f"lf=f{i},{ROOT}", {"objectclass": "logicalfile"})
    for name in ("a", "b"):
        d.add(f"loc={name},{ROOT}", {"objectclass": "location",
                                     "filename": ["x.nc"]})
    return d


@pytest.mark.parametrize("rebuild", [False, True])
def test_query_answers_from_its_arrival_snapshot(rebuild, monkeypatch):
    monkeypatch.setattr(directory, "SCAN_COST", 0.001)
    env = Environment()
    d = collection(env)
    text = "(&(objectclass=location)(filename=x.nc))"
    snapshot = d.children(ROOT)
    out = {}

    def client():
        hits = yield from d.query(ROOT, Scope.ONELEVEL, text)
        out["hits"], out["at"] = [str(e.dn) for e in hits], env.now

    def writer():
        yield env.timeout(0.005)  # inside the query's latency
        d.add(f"loc=c,{ROOT}", {"objectclass": "location",
                                "filename": ["x.nc"]})
        d.modify(f"loc=a,{ROOT}", replace={"objectclass": "retired"})
        d.modify(f"lf=f0,{ROOT}", add_values={"objectclass": "location",
                                              "filename": "x.nc"})
        if rebuild:  # a fresh index for the new scope
            assert len(d.search(ROOT, Scope.ONELEVEL, text)) == 3

    scanned = d.entries_scanned
    env.process(client())
    env.process(writer())
    env.run()
    # The arrival scope, filtered as the entries stand after the latency:
    # loc=c arrived too late, loc=a left the class, lf=f0 joined it.
    assert out["hits"] == [f"lf=f0,{ROOT}", f"loc=b,{ROOT}"]
    pred = compile_filter(text)
    assert out["hits"] == [str(e.dn) for e in snapshot if pred(e.folded)]
    assert out["at"] == pytest.approx(0.01 + 0.001 * 8)
    assert d.entries_scanned - scanned == 8 + (9 if rebuild else 0)


def test_unchanged_scope_reads_current_attributes_through_the_index():
    env = Environment()
    d = collection(env)
    out = {}

    def client():
        hits = yield from d.query(ROOT, Scope.ONELEVEL,
                                  "(&(objectclass=location)(filename=y.nc))")
        out["hits"] = [str(e.dn) for e in hits]

    def writer():
        yield env.timeout(0.005)
        d.modify(f"loc=b,{ROOT}", add_values={"filename": "y.nc"})

    env.process(client())
    env.process(writer())
    env.run()
    assert out["hits"] == [f"loc=b,{ROOT}"]
    d.children(ROOT).clear()  # callers get a copy, not the index
    assert len(d.search(ROOT, Scope.ONELEVEL, "(objectclass=*)")) == 8


# -- the default filter reads the index -------------------------------------


def test_default_filter_leaves_out_children_without_an_objectclass():
    env = Environment()
    d = collection(env)
    d.add(f"x=bare,{ROOT}", {"kind": "a"})  # add requires no objectclass
    want = [str(e.dn) for e in d.children(ROOT) if e.get("objectclass")]
    assert len(want) == 8 and len(d.children(ROOT)) == 9
    scanned = d.entries_scanned
    assert [str(e.dn) for e in d.search(ROOT, Scope.ONELEVEL)] == want
    got, start = timed(d, ROOT, None)
    assert got == want
    assert env.now == start + d.base_latency + directory.SCAN_COST * 9
    assert d.entries_scanned - scanned == 2 * 9
