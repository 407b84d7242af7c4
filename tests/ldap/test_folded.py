"""The case-folded entry view that directory search filters read.

Search evaluates compiled filters against ``Entry.folded``, built once
per add/modify, instead of lowercasing every stored value per query.
The oracle below is the per-value predicate that did the latter; the
directory's answers must equal it for any entries, mutations and
filters.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap import DN, DirectoryServer, DnError, Scope
from repro.sim import Environment

# -- oracle: the per-value predicate over raw (stored-case) values ----------


def oracle(node, attrs):
    """Evaluate a filter tree over ``attrs`` (attr -> raw values)."""
    kind = node[0]
    if kind == "&":
        return all(oracle(n, attrs) for n in node[1])
    if kind == "|":
        return any(oracle(n, attrs) for n in node[1])
    if kind == "!":
        return not oracle(node[1], attrs)
    _, attr, op, value = node
    values = attrs.get(attr.lower(), [])
    if op == "present":
        return bool(values)
    if op == "=":
        if "*" in value:
            regex = re.compile(
                "^" + ".*".join(re.escape(p) for p in value.split("*"))
                + "$", re.IGNORECASE)
            return any(regex.match(v) for v in values)
        target = value.lower()
        return any(v.lower() == target for v in values)

    def compare(v):
        try:
            left, right = float(v), float(value)
        except ValueError:
            left, right = v.lower(), value.lower()
        return left >= right if op == ">=" else left <= right
    return any(compare(v) for v in values)


def render(node):
    kind = node[0]
    if kind in ("&", "|"):
        return f"({kind}{''.join(render(n) for n in node[1])})"
    if kind == "!":
        return f"(!{render(node[1])})"
    _, attr, op, value = node
    if op == "present":
        return f"({attr}=*)"
    return f"({attr}{op}{value})"


# -- strategies ---------------------------------------------------------------

ATTRS = ["fn", "host", "size"]
# A small mixed-case alphabet, so that equality, substring and ordering
# items often hit values that differ from them only in case.
VALUE = st.text(alphabet="aAbBE1.", min_size=1, max_size=3)
VALUES = st.lists(VALUE, min_size=0, max_size=4)
ATTR_NAME = st.sampled_from(ATTRS + ["FN", "Host"])
PATTERN = st.lists(st.text(alphabet="aAbB1", max_size=2),
                   min_size=2, max_size=3).map("*".join)

ITEM = st.one_of(
    st.tuples(st.just("item"), ATTR_NAME, st.just("present"), st.just("")),
    st.tuples(st.just("item"), ATTR_NAME, st.just("="), VALUE),
    st.tuples(st.just("item"), ATTR_NAME, st.just("="),
              PATTERN.filter(lambda p: p != "*")),
    st.tuples(st.just("item"), ATTR_NAME, st.sampled_from([">=", "<="]),
              VALUE),
)
FILTER = st.recursive(
    ITEM,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["&", "|"]),
                  st.lists(inner, min_size=1, max_size=3)),
        st.tuples(st.just("!"), inner)),
    max_leaves=6)
ENTRY_ATTRS = st.dictionaries(st.sampled_from(ATTRS + ["Size"]), VALUES,
                              max_size=3)
MUTATION = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["replace", "add_values", "delete_attrs"]),
    st.sampled_from(ATTRS),
    VALUES)


def populated(entries, mutations):
    d = DirectoryServer(Environment(), "t")
    d.add("o=t", {"objectclass": "top"})
    for i, attrs in enumerate(entries):
        d.add(f"e={i},o=t", attrs)
    for i, kind, attr, values in mutations:
        if i >= len(entries):
            continue
        arg = [attr] if kind == "delete_attrs" else {attr: values}
        d.modify(f"e={i},o=t", **{kind: arg})
    return d


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(ENTRY_ATTRS, min_size=1, max_size=4),
       mutations=st.lists(MUTATION, max_size=4),
       tree=FILTER)
def test_search_matches_per_value_oracle(entries, mutations, tree):
    d = populated(entries, mutations)
    text = render(tree)
    kids = d.children("o=t")
    want = [str(e.dn) for e in kids if oracle(tree, e.attributes)]
    got = [str(e.dn) for e in d.search("o=t", Scope.ONELEVEL, text)]
    assert sorted(got) == sorted(want)


# -- aliasing -----------------------------------------------------------------


def test_lowercase_values_share_the_raw_list():
    d = DirectoryServer(Environment(), "t")
    e = d.add("o=t", {"filename": ["a.nc", "b.nc"], "hostname": "anl.gov",
                      "Model": ["NCAR_CSM", "pcm"], "port": 2811})
    assert e.folded["filename"] is e.attributes["filename"]
    assert e.folded["hostname"] is e.attributes["hostname"]
    assert e.folded["port"] is e.attributes["port"] == ("2811",)
    assert e.folded["model"] is not e.attributes["model"]
    assert e.folded["model"] == ("ncar_csm", "pcm")
    assert e.get("model") == ("NCAR_CSM", "pcm")
    assert e.first("Model") == "NCAR_CSM"


def test_entry_copies_the_callers_list():
    names = ["a.nc"]
    d = DirectoryServer(Environment(), "t")
    e = d.add("o=t", {"filename": names})
    names.append("B.nc")
    assert e.get("filename") == ("a.nc",)
    assert e.folded["filename"] == ("a.nc",)


# -- the view tracks every mutation -------------------------------------------


def timed_query(d, filter_text):
    def main():
        hits = yield from d.query("o=t", Scope.ONELEVEL, filter_text)
        return sorted(str(e.dn) for e in hits)
    p = d.env.process(main())
    d.env.run()
    return p.value


def test_view_follows_replace_add_and_delete():
    d = DirectoryServer(Environment(), "t")
    d.add("o=t", {"objectclass": "top"})
    d.add("loc=a,o=t", {"filename": ["x.nc"], "host": "Alpha"})
    assert timed_query(d, "(filename=X.NC)") == ["loc=a,o=t"]

    d.modify("loc=a,o=t", replace={"filename": ["y.nc"]})
    assert timed_query(d, "(filename=x.nc)") == []
    assert timed_query(d, "(filename=y.nc)") == ["loc=a,o=t"]

    d.modify("loc=a,o=t", add_values={"filename": "Mixed.NC"})
    assert timed_query(d, "(filename=mixed.nc)") == ["loc=a,o=t"]
    assert d.lookup("loc=a,o=t").get("filename") == ("y.nc", "Mixed.NC")

    d.modify("loc=a,o=t", replace={"host": "beta"})
    assert timed_query(d, "(host=ALPHA)") == []
    assert timed_query(d, "(host=BETA)") == ["loc=a,o=t"]

    d.modify("loc=a,o=t", delete_attrs=["FILENAME"])
    assert timed_query(d, "(filename=*)") == []
    assert timed_query(d, "(filename=y.nc)") == []
    assert "filename" not in d.lookup("loc=a,o=t").folded


# -- DN.parent / DN.child build what parsing builds ---------------------------

RDN_ATTR = st.text(alphabet="aBc", min_size=1, max_size=3)
RDN_VALUE = st.text(alphabet="xY1 .", min_size=1, max_size=5).filter(
    lambda v: v.strip())


def same_dn(a, b):
    assert a.rdns == b.rdns
    assert a._norm == b._norm
    assert a._str == b._str
    assert hash(a) == hash(b)
    assert a == b


@settings(max_examples=200, deadline=None)
@given(rdns=st.lists(st.tuples(RDN_ATTR, RDN_VALUE), min_size=1,
                     max_size=4),
       attr=RDN_ATTR, value=RDN_VALUE)
def test_parent_and_child_match_parse(rdns, attr, value):
    dn = DN(rdns)
    kid = dn.child(attr, value)
    same_dn(kid, DN.parse(str(kid)))
    same_dn(kid, DN([(attr, value)] + rdns))
    same_dn(kid.parent, dn)
    p = dn
    while p.parent is not None:
        p = p.parent
        same_dn(p, DN.parse(str(p)))
        assert dn.is_under(p)


@pytest.mark.parametrize("attr,value", [
    ("lc", ""), ("lc", "   "), ("lc", "a,b"), ("lc", "a=b"),
    ("", "x"), ("a,b", "x"), ("a=b", "x")])
def test_child_validates_the_new_rdn(attr, value):
    with pytest.raises(DnError):
        DN.parse("rc=esg").child(attr, value)
