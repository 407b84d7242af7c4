"""Tests for the simulated filesystem."""

import pytest

from repro.sim import Environment
from repro.storage import (
    FileExistsError_,
    FileNotFoundError_,
    FileObject,
    FileSystem,
)


def fs():
    env = Environment()
    return env, FileSystem(env, "disk0")


def test_create_stat_roundtrip():
    env, f = fs()
    f.create("a.nc", 100)
    assert f.stat("a.nc").size == 100
    assert f.exists("a.nc")
    assert len(f) == 1


def test_file_content_size_consistency():
    FileObject("x", 3, content=b"abc")  # ok
    with pytest.raises(ValueError):
        FileObject("x", 4, content=b"abc")
    with pytest.raises(ValueError):
        FileObject("x", -1)


def test_capacity_accounting():
    """``used`` counts the bytes stored: a delete gives them back."""
    env, f = fs()
    f.create("a", 600)
    assert f.used == 600
    f.create("b", 500)
    assert f.used == 1100
    f.delete("a")
    assert f.used == 500


def test_overwrite_semantics():
    env, f = fs()
    f.create("a", 600)
    with pytest.raises(FileExistsError_):
        f.create("a", 100)
    f.create("a", 900, overwrite=True)  # frees old 600 first
    assert f.used == 900


def test_missing_file_errors():
    env, f = fs()
    with pytest.raises(FileNotFoundError_):
        f.stat("nope")
    with pytest.raises(FileNotFoundError_):
        f.delete("nope")


def test_created_at_stamped():
    env, f = fs()

    def later(env, f):
        yield env.timeout(42.0)
        f.create("late", 1)

    env.process(later(env, f))
    env.run()
    assert f.stat("late").created_at == 42.0


def test_iteration():
    env, f = fs()
    for i in range(5):
        f.create(f"f{i}", 10)
    assert sorted(x.name for x in f) == [f"f{i}" for i in range(5)]
