"""Structured predicates agree with the compiled text they stand for.

The catalogs build their lookups with the constructors of
``repro.ldap.filters`` (``equal``, ``at_least``, ``at_most``,
``conjunction``) and never escape or parse a name. The oracle is the text
path: ``compile_filter`` of the filter written around the escaped name.
Both must match the same folded entries, carry the same ``objectclass``
tag, and, through the directory, return the same entries and count the
same ``entries_scanned``, on a fresh one-level index and on a scope that
a write made stale during a query's latency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap import DirectoryServer, FilterError, Scope, directory, filters
from repro.ldap.filters import (
    at_least,
    at_most,
    compile_filter,
    conjunction,
    equal,
    escape,
    fold,
)
from repro.sim import Environment

# Filter syntax, mixed case, digits (so ordering compares numbers too),
# and ASCII and non-ASCII whitespace, at the ends and inside.
CHARS = st.sampled_from("aAbB19.*()\\\x00 \t\xa0　")
NAME = st.text(alphabet=CHARS, min_size=1, max_size=6)
PADDED = st.tuples(st.sampled_from(["", " ", "\t", "　", " \xa0"]),
                   NAME, st.sampled_from(["", " ", "\n", " "])).map(
    "".join)


def folded(names, picks, extra):
    """An entry's folded values: ``extra`` plus some of ``names`` with
    their case swapped, so that matches are common."""
    values = list(extra) + [names[i % len(names)].swapcase() for i in picks]
    return fold(tuple(values))


ENTRY_VALUES = st.tuples(st.lists(st.integers(0, 7), max_size=8),
                         st.lists(PADDED, max_size=64))


def both_cuts(check):
    """Run ``check`` with equality scanning and bisecting every tuple."""
    for cut in (0, filters.BISECT_FROM, 65):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BISECT_FROM", cut)
            check()


# -- leaf constructors --------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(name=PADDED, values=ENTRY_VALUES)
def test_equality_agrees_with_its_escaped_text(name, values):
    attrs = {"fn": folded([name], *values)}
    pred, text = equal("fn", name), compile_filter(f"(fn={escape(name)})")

    def check():
        assert pred(attrs) is text(attrs) is (name.lower() in attrs["fn"])
    both_cuts(check)


@settings(max_examples=400, deadline=None)
@given(name=PADDED, values=ENTRY_VALUES, op=st.sampled_from([">=", "<="]))
def test_ordering_agrees_with_its_escaped_text(name, values, op):
    attrs = {"fn": folded([name], *values)}
    build = at_least if op == ">=" else at_most
    text = compile_filter(f"(fn{op}{escape(name)})")
    assert build("fn", name)(attrs) is text(attrs) is ordered(
        attrs["fn"], op, name)


def ordered(values, op, bound):
    """Some value is on the ``op`` side of ``bound``: as numbers when
    both parse, else as lowercased strings."""
    def holds(a, b):
        return a >= b if op == ">=" else a <= b
    for v in values:
        try:
            if holds(float(v), float(bound)):
                return True
        except ValueError:
            if holds(v, bound.lower()):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(name=PADDED, other=PADDED)
def test_a_name_matches_only_itself(name, other):
    """No character of a name is a wildcard or filter syntax, and
    whitespace at its ends is part of it; only case is ignored."""
    assert equal("fn", name)({"fn": fold((other,))}) is (
        name.lower() == other.lower())
    assert equal("fn", name)({"fn": fold((name.swapcase(),))})


@pytest.mark.parametrize("build, text", [
    (equal, "(fn=)"), (at_least, "(fn>=)"), (at_most, "(fn<=)")])
def test_an_empty_value_is_malformed_on_both_paths(build, text):
    for _ in range(2):
        with pytest.raises(FilterError):
            build("fn", "")
        with pytest.raises(FilterError):
            compile_filter(text)


# -- conjunctions -------------------------------------------------------------

ATTRS = ["fn", "objectclass", "size"]
CLASS = st.sampled_from(["location", "Location", "lf", "top"])
ITEM = st.one_of(
    st.tuples(st.just("="), st.sampled_from(ATTRS), PADDED),
    st.tuples(st.just("="), st.just("objectclass"), CLASS),
    st.tuples(st.sampled_from([">=", "<="]), st.sampled_from(ATTRS),
              PADDED))
# A conjunct is an item or a nested conjunction (a list of items).
CONJUNCTS = st.lists(ITEM | st.lists(ITEM, min_size=1, max_size=3),
                     min_size=1, max_size=4)
BUILD = {"=": equal, ">=": at_least, "<=": at_most}


def structured(items):
    return conjunction(*[structured(it) if isinstance(it, list)
                         else BUILD[it[0]](it[1], it[2]) for it in items])


def as_text(items):
    return "(&" + "".join(
        as_text(it) if isinstance(it, list)
        else f"({it[1]}{it[0]}{escape(it[2])})" for it in items) + ")"


def values_of(items):
    for it in items:
        yield from values_of(it) if isinstance(it, list) else [it[2]]


@settings(max_examples=400, deadline=None)
@given(items=CONJUNCTS, data=st.data())
def test_a_conjunction_agrees_with_its_text(items, data):
    pred, text = structured(items), compile_filter(as_text(items))
    tag = getattr(text, "objectclass", None)
    assert getattr(pred, "objectclass", None) == tag
    names = list(values_of(items))
    for _ in range(4):
        attrs = {a: folded(names, *data.draw(ENTRY_VALUES))
                 for a in data.draw(st.sets(st.sampled_from(ATTRS)))}
        want = text(attrs)
        assert pred(attrs) is want
        if tag is not None and tag in attrs.get("objectclass", ()):
            # On an entry that carries the tag the rest alone decides.
            rest = pred.rest
            assert (True if rest is None else rest(attrs)) is want


def test_the_rest_of_two_objectclass_conjuncts_keeps_the_second():
    pred = conjunction(equal("objectclass", "Location"),
                       equal("objectclass", "lf"), equal("fn", "a*"))
    assert pred.objectclass == "location"
    both = {"objectclass": ("lf", "location"), "fn": ("a*",)}
    one = {"objectclass": ("location",), "fn": ("a*",)}
    assert pred.rest(both) and not pred.rest(one)
    assert conjunction(equal("objectclass", "lf")).rest is None


# -- through the directory ----------------------------------------------------

ROOT = "o=t"
CHILD = st.tuples(st.lists(CLASS, max_size=2), st.lists(PADDED, max_size=20))


def build(children, latency=0.0):
    d = DirectoryServer(Environment(), "t", base_latency=latency)
    d.add(ROOT, {"objectclass": "top"})
    for i, (classes, names) in enumerate(children):
        attrs = {"fn": names}
        if classes:
            attrs["objectclass"] = classes
        d.add(f"c=c{i},{ROOT}", attrs)
    return d


SEARCH = st.one_of(
    CONJUNCTS,
    st.tuples(CLASS, CLASS, PADDED).map(
        lambda t: [("=", "objectclass", t[0]), ("=", "objectclass", t[1]),
                   ("=", "fn", t[2])]))


@settings(max_examples=200, deadline=None)
@given(children=st.lists(CHILD, max_size=12), items=SEARCH,
       scope=st.sampled_from([Scope.ONELEVEL, Scope.SUBTREE, Scope.BASE]))
def test_search_with_a_predicate_answers_as_with_its_text(children, items,
                                                          scope):
    answers = []
    for flt in (structured(items), as_text(items)):
        d = build(children)
        d.children(ROOT)  # the index is fresh for both
        hits = d.search(ROOT, scope, flt)
        answers.append(([str(e.dn) for e in hits], d.entries_scanned))
    assert answers[0] == answers[1]
    # And both are the brute-force scan: the text over every candidate.
    pred = compile_filter(as_text(items))
    candidates = {Scope.BASE: [d.lookup(ROOT)],
                  Scope.ONELEVEL: d.children(ROOT),
                  Scope.SUBTREE: [d.lookup(ROOT), *d.children(ROOT)]}[scope]
    want = [str(e.dn) for e in candidates if pred(e.folded)]
    assert sorted(answers[0][0]) == sorted(want)
    if scope is Scope.ONELEVEL:
        assert answers[0][0] == want
    assert answers[0][1] == len(candidates)


def timed_query(children, flt, write, oracle):
    """A one-level query whose scope a write may change during its
    latency: (hits, the oracle's hits, finish time, entries scanned).

    The oracle's hits are the arrival scope filtered by ``oracle`` as
    the entries stand once the latency is over."""
    d = build(children, latency=0.01)
    arrival = d.children(ROOT)
    env, out = d.env, {}

    def client():
        hits = yield from d.query(ROOT, Scope.ONELEVEL, flt)
        out["hits"], out["at"] = [str(e.dn) for e in hits], env.now

    def writer():
        yield env.timeout(0.005)
        d.add(f"c=late,{ROOT}", {"objectclass": ["location", "lf"],
                                 "fn": write})
        d.modify(f"c=c0,{ROOT}", replace={"objectclass": "location",
                                          "fn": write})

    env.process(client())
    if write is not None and children:
        env.process(writer())
    env.run()
    want = [str(e.dn) for e in arrival if oracle(e.folded)]
    return out["hits"], want, out["at"], d.entries_scanned


@settings(max_examples=200, deadline=None)
@given(children=st.lists(CHILD, max_size=10), items=SEARCH,
       write=st.one_of(st.none(), PADDED))
def test_query_with_a_predicate_answers_as_with_its_text(children, items,
                                                         write):
    text = as_text(items)
    oracle = compile_filter(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(directory, "SCAN_COST", 0.001)
        got = timed_query(children, structured(items), write, oracle)
        want = timed_query(children, text, write, oracle)
    assert got == want
    assert got[0] == got[1]
