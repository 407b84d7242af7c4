"""Tests for RFC 2254-style filter parsing and evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap import FilterError
from repro.ldap.filters import compile_filter, fold

ENTRY = {
    "objectclass": ["collection"],
    "model": ["NCAR_CSM"],
    "variable": ["tas", "pr"],
    "year": ["1998"],
    "size": ["2048"],
}


def parse_filter(expr):
    """The compiled predicate over raw attributes (folded here, as the
    directory folds every entry)."""
    pred = compile_filter(expr)
    return lambda attrs: pred({k: fold(tuple(vs)) for k, vs in attrs.items()})


def matches(expr, attrs=ENTRY):
    return parse_filter(expr)(attrs)


def test_equality_case_insensitive():
    assert matches("(model=ncar_csm)")
    assert matches("(MODEL=NCAR_CSM)")
    assert not matches("(model=other)")


def test_multivalued_equality():
    assert matches("(variable=pr)")
    assert matches("(variable=tas)")
    assert not matches("(variable=slp)")


def test_presence():
    assert matches("(year=*)")
    assert not matches("(missing=*)")


def test_substring_wildcards():
    assert matches("(model=NCAR*)")
    assert matches("(model=*CSM)")
    assert matches("(model=N*_*M)")
    assert not matches("(model=*GFDL*)")


def test_ordering_numeric():
    assert matches("(size>=1000)")
    assert matches("(size<=4096)")
    assert not matches("(size>=1000000)")


def test_ordering_lexicographic_fallback():
    assert matches("(model>=M)")
    assert not matches("(model>=Z)")


def test_and_or_not():
    assert matches("(&(model=NCAR_CSM)(year=1998))")
    assert not matches("(&(model=NCAR_CSM)(year=1999))")
    assert matches("(|(year=1999)(year=1998))")
    assert matches("(!(year=1999))")
    assert matches("(&(|(variable=tas)(variable=slp))(!(model=GFDL)))")


def test_nested_depth():
    expr = "(&(&(&(objectclass=collection)(year=*))(size>=1))(model=N*))"
    assert matches(expr)


def test_missing_attribute_is_false():
    assert not matches("(ghost=1)")
    assert not matches("(ghost>=1)")


def test_parse_errors():
    for bad in ["", "model=x", "(model=x", "(&)", "(model=)",
                "(model=x)(y=z)", "((model=x))", "(>=x)", "(!)"]:
        with pytest.raises(FilterError):
            parse_filter(bad)


def test_attr_with_dots_and_dashes():
    attrs = {"x-file.size": ["9"]}
    assert parse_filter("(x-file.size=9)")(attrs)


@given(st.text(alphabet="abcdef", min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_property_equality_matches_itself(value):
    pred = parse_filter(f"(attr={value})")
    assert pred({"attr": [value]})
    assert not pred({"attr": [value + "x"]})


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=4))
@settings(max_examples=50, deadline=None)
def test_property_not_is_complement(values):
    attrs = {"attr": values}
    pos = parse_filter("(attr=a)")(attrs)
    neg = parse_filter("(!(attr=a))")(attrs)
    assert pos != neg
