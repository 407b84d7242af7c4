"""Tests for distinguished names."""

import pytest

from repro.ldap import DN, DnError


def test_parse_and_str_roundtrip():
    dn = DN.parse("lc=CO2 1998, rc=esg, o=globus")
    assert str(dn) == "lc=CO2 1998,rc=esg,o=globus"
    assert len(dn) == 3


def test_case_insensitive_attrs_and_values():
    assert DN.parse("LC=Alpha,O=Globus") == DN.parse("lc=alpha,o=globus")
    assert hash(DN.parse("LC=A,O=B")) == hash(DN.parse("lc=a,o=b"))


def test_whitespace_normalized():
    assert DN.parse(" a = x , b = y ") == DN.parse("a=x,b=y")


def test_parse_errors():
    for bad in ["", "  ", "noequals", "a=,b=c", "=v", "a=b,,c=d"]:
        with pytest.raises(DnError):
            DN.parse(bad)


def test_value_with_special_chars_rejected():
    with pytest.raises(DnError):
        DN([("a", "x=y")])


def test_attribute_with_special_chars_rejected():
    """An attribute holding ',' or '=' would not round-trip through
    str(): parsing the text splits it into different RDNs."""
    for attr in ("a,b", "a=b"):
        with pytest.raises(DnError):
            DN([(attr, "x"), ("rc", "esg")])


def test_parent_chain():
    dn = DN.parse("a=1,b=2,c=3")
    assert str(dn.parent) == "b=2,c=3"
    assert str(dn.parent.parent) == "c=3"
    assert dn.parent.parent.parent is None


def test_rdn():
    assert DN.parse("a=1,b=2").rdn == ("a", "1")


def test_child():
    base = DN.parse("rc=esg")
    assert str(base.child("lc", "CO2 1998")) == "lc=CO2 1998,rc=esg"


def test_of_coercion():
    dn = DN.parse("a=1")
    assert DN.of(dn) is dn
    assert DN.of("a=1") == dn
    with pytest.raises(DnError):
        DN.of(42)
