"""Tests for the simulated filesystem."""

import pytest

from repro.sim import Environment
from repro.storage import (
    FileExistsError_,
    FileNotFoundError_,
    FileObject,
    FileSystem,
    NoSpaceError,
)


def fs(capacity=1000.0):
    env = Environment()
    return env, FileSystem(env, "disk0", capacity=capacity, seek_time=0.01)


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
    env, f = fs(capacity=1000)
    f.create("a", 600)
    assert f.capacity - f.used == 400
    with pytest.raises(NoSpaceError):
        f.create("b", 500)
    f.delete("a")
    assert f.capacity - f.used == 1000
    f.create("b", 500)


def test_overwrite_semantics():
    env, f = fs(capacity=1000)
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


def test_open_charges_seek_time():
    env, f = fs()
    f.create("a", 10)

    def main(env, f):
        file = yield from f.open("a")
        return (env.now, file.name)

    p = env.process(main(env, f))
    env.run()
    assert p.value == (0.01, "a")


def test_created_at_stamped():
    env, f = fs()

    def later(env, f):
        yield env.timeout(42.0)
        f.create("late", 1)

    env.process(later(env, f))
    env.run()
    assert f.stat("late").created_at == 42.0


def test_with_name_copy_preserves_bytes():
    orig = FileObject("a", 3, content=b"xyz", metadata={"var": "tas"})
    copy = orig.with_name("b")
    assert copy.name == "b"
    assert copy.content == b"xyz"
    assert copy.metadata == {"var": "tas"}
    copy.metadata["var"] = "pr"
    assert orig.metadata["var"] == "tas"  # deep enough copy


def test_iteration():
    env, f = fs()
    for i in range(5):
        f.create(f"f{i}", 10)
    assert sorted(x.name for x in f) == [f"f{i}" for i in range(5)]
