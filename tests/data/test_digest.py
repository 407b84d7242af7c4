"""Tests for the deterministic content-digest model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import digest
from repro.data.digest import (
    MARKS_KEY,
    add_mark,
    content_digest,
    file_digest,
    marks_of,
)
from repro.storage import FileObject


def test_digest_is_deterministic():
    a = content_digest("ta/f1.nc", 2**20)
    b = content_digest("ta/f1.nc", 2**20)
    assert a == b
    assert isinstance(a, str) and len(a) == 16  # blake2s-64 hex


def test_digest_distinguishes_name_size_content():
    base = content_digest("f.nc", 100.0)
    assert content_digest("g.nc", 100.0) != base
    assert content_digest("f.nc", 101.0) != base
    assert content_digest("f.nc", 100.0, content=b"tas v2") != base


def test_marks_change_digest():
    clean = content_digest("f.nc", 100.0)
    marked = content_digest("f.nc", 100.0, marks=("xfer@1.5",))
    assert marked != clean
    # Mark order matters: a different corruption history is a
    # different (wrong) byte stream.
    twice = content_digest("f.nc", 100.0, marks=("a", "b"))
    assert twice != content_digest("f.nc", 100.0, marks=("b", "a"))


def test_file_digest_matches_content_digest():
    f = FileObject("tas.nc", 4, content=b"tas\n")
    assert file_digest(f) == content_digest("tas.nc", 4, content=b"tas\n")
    g = FileObject("f.nc", 2048)
    assert file_digest(g) == content_digest("f.nc", 2048)


def test_add_mark_and_pristine():
    f = FileObject("f.nc", 2048)
    assert marks_of(f) == ()
    clean = file_digest(f)
    add_mark(f, "at-rest@12")
    assert marks_of(f) == ("at-rest@12",)
    assert file_digest(f) != clean


def test_marks_survive_metadata_round_trip():
    f = FileObject("f.nc", 2048)
    add_mark(f, "a")
    add_mark(f, "b")
    g = FileObject("f.nc", 2048,
                   metadata={MARKS_KEY: f.metadata[MARKS_KEY]})
    assert marks_of(g) == ("a", "b")
    assert file_digest(g) == file_digest(f)


@given(st.text(min_size=1, max_size=40),
       st.floats(min_value=1, max_value=2**40, allow_nan=False),
       st.lists(st.text(max_size=10), max_size=4))
@settings(max_examples=200, deadline=None)
def test_property_digest_pure_function(name, size, marks):
    """Same inputs always hash the same; marked never equals pristine."""
    size = float(int(size))
    a = content_digest(name, size, marks=tuple(marks))
    b = content_digest(name, size, marks=tuple(marks))
    assert a == b
    if marks:
        assert a != content_digest(name, size)


# -- file_digest remembers its last answer ---------------------------------


@pytest.fixture
def hashes(monkeypatch):
    """Every content_digest call file_digest makes, by its arguments."""
    calls = []

    def counted(*args):
        calls.append(args)
        return content_digest(*args)
    monkeypatch.setattr(digest, "content_digest", counted)
    return calls


def current(f):
    return content_digest(f.name, f.size, f.content, marks_of(f))


def test_file_digest_memo_follows_every_input(hashes):
    f = FileObject("f.nc", 4, content=b"abcd")

    def grow():
        f.size, f.content = 5, b"wxyz!"
    steps = [
        lambda: None,
        lambda: add_mark(f, "at-rest@1"),
        lambda: setattr(f, "content", b"wxyz"),
        lambda: setattr(f, "name", "g.nc"),
        grow,
    ]
    for n, step in enumerate(steps, 1):
        step()
        assert file_digest(f) == current(f)
        assert file_digest(f) == current(f)  # the repeat does not hash
        assert len(hashes) == n


def test_synthetic_size_change_rehashes(hashes):
    f = FileObject("s.nc", 100)
    assert file_digest(f) == file_digest(f) == current(f)
    f.size = 200
    assert file_digest(f) == current(f)
    assert len(hashes) == 2


def test_with_name_copy_does_not_inherit_the_memo(hashes):
    f = FileObject("f.nc", 4, content=b"abcd")
    add_mark(f, "xfer@2")
    file_digest(f)
    for name in ("h.nc", "f.nc"):
        g = f.with_name(name)
        assert file_digest(g) == current(g)
    assert len(hashes) == 3
    assert file_digest(f.with_name("h.nc")) != file_digest(f)


def test_mutable_content_is_never_remembered(hashes):
    buf = bytearray(b"abcd")
    f = FileObject("b.nc", 4, content=buf)
    before = file_digest(f)
    buf[0] = ord("z")
    assert file_digest(f) == current(f) != before
    assert len(hashes) == 2
