"""compile_filter compiles afresh; escaped values match literally.

Text that does not parse raises on every call, and text that parses
answers the same on every call. (``compile_filter`` kept no memo once
the catalogs stopped passing text; the structured path is checked in
``test_structured_filters.py``.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldap import FilterError
from repro.ldap.filters import compile_filter, escape, fold

ATTRS = ["fn", "host", "size"]
# Mixed case and every character an assertion value must escape.
VALUE = st.text(alphabet="aAbB1.*()\\\x00", min_size=1, max_size=4)
VALUES = st.lists(VALUE, max_size=3)
LITERAL = VALUE.map(escape)
PATTERN = st.lists(LITERAL | st.just(""), min_size=2,
                   max_size=3).map("*".join).filter(lambda p: p != "*")

ITEM = st.one_of(
    st.builds(lambda a: f"({a}=*)", st.sampled_from(ATTRS)),
    st.builds(lambda a, v: f"({a}={v})", st.sampled_from(ATTRS), LITERAL),
    st.builds(lambda a, p: f"({a}={p})", st.sampled_from(ATTRS), PATTERN),
    st.builds(lambda a, op, v: f"({a}{op}{v})", st.sampled_from(ATTRS),
              st.sampled_from([">=", "<="]), LITERAL),
)
FILTER = st.recursive(
    ITEM,
    lambda inner: st.one_of(
        st.builds(lambda op, fs: f"({op}{''.join(fs)})",
                  st.sampled_from(["&", "|"]),
                  st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda f: f"(!{f})", inner)),
    max_leaves=6)
ENTRY = st.dictionaries(st.sampled_from(ATTRS), VALUES, max_size=3).map(
    lambda attrs: {k: fold(tuple(vs)) for k, vs in attrs.items()})


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(alphabet="()&|!=*<>\\ab", max_size=12),
    FILTER.flatmap(lambda f: st.integers(0, len(f) - 1).map(
        lambda i: f[:i] + f[i + 1:]))),
    entries=st.lists(ENTRY, min_size=1, max_size=4))
def test_malformed_text_raises_on_every_call(text, entries):
    try:
        want = compile_filter(text)
    except FilterError:
        for _ in range(3):
            with pytest.raises(FilterError):
                compile_filter(text)
        return
    again = compile_filter(text)
    for attrs in [{}, *entries]:
        assert again(attrs) == want(attrs)


@settings(max_examples=300, deadline=None)
@given(value=VALUE, stored=VALUES)
def test_an_escaped_value_matches_exactly_its_own_text(value, stored):
    pred = compile_filter(f"(fn={escape(value)})")
    folded = fold(tuple(stored))
    assert pred({"fn": folded}) == (value.lower() in folded)


def _hex(text):
    return "".join(f"\\{b:02x}" for b in text.encode())


def _translate_escape(value):
    """The escape without its fast path: translate every name, then
    hex-encode the whitespace at either end."""
    value = value.translate(
        {ord(c): f"\\{ord(c):02x}" for c in "\\*()\x00"})
    body = value.strip()
    if body == value:
        return value
    head = value[:len(value) - len(value.lstrip())]
    tail = value[len(head) + len(body):]
    return _hex(head) + body + _hex(tail)


# Plain names, every escaped character, whitespace (ASCII and not) and
# non-ASCII text, so edges and interiors take each kind.
NAME = st.text(alphabet=st.one_of(
    st.sampled_from("aZ09._-\\*()\x00 \t\n\x0b\x1c\xa0\u2003\u3000"),
    st.characters()), max_size=12)


@settings(max_examples=500, deadline=None)
@given(name=NAME)
def test_escape_matches_the_translating_escape(name):
    assert escape(name) == _translate_escape(name)


def test_a_plain_name_is_returned_as_it_is():
    name = "tas_Amon_ncar_ccsm_run1_2001.nc"
    assert escape(name) is name
    assert escape(" x") == "\\20x"
    assert escape("é\u3000") == "é\\e3\\80\\80"


def test_substring_pieces_are_unescaped():
    pred = compile_filter(f"(fn={escape('a*(')}*{escape(')')})")
    assert pred({"fn": ("a*(x)",)})
    assert not pred({"fn": ("ab(x)",)})


@pytest.mark.parametrize("text", ["(fn=a\\zz)", "(fn=a\\5)", "(fn=\\ff)"])
def test_bad_escapes_are_malformed(text):
    for _ in range(2):
        with pytest.raises(FilterError):
            compile_filter(text)
