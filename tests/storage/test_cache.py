"""Tests for the LRU disk cache, including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.cache as cache_module
from repro.sim import Environment
from repro.storage import DiskCache, FileObject, NoSpaceError


def cache(capacity=100.0):
    return DiskCache(Environment(), capacity=capacity)


def test_put_get_hit_miss_accounting():
    c = cache()
    c.put(FileObject("a", 10))
    assert c.get("a").name == "a"
    assert c.get("b") is None
    assert (c.hits, c.misses) == (1, 1)


def test_lru_eviction_order():
    c = cache(capacity=30)
    for name in ("a", "b", "c"):
        c.put(FileObject(name, 10))
    c.get("a")  # a becomes most recent
    c.put(FileObject("d", 10))  # evicts b (LRU)
    assert c.get("b") is None
    assert c.get("a") is not None
    assert c.evictions == 1


def test_contains_touches():
    c = cache(capacity=20)
    c.put(FileObject("a", 10))
    c.put(FileObject("b", 10))
    assert c.contains("a")  # touch a
    c.put(FileObject("c", 10))  # must evict b, not a
    assert c.get("a") is not None
    assert c.get("b") is None


def test_pinned_entries_survive_eviction():
    c = cache(capacity=30)
    c.put(FileObject("keep", 10))
    c.pin("keep")
    c.put(FileObject("b", 10))
    c.put(FileObject("c", 10))
    c.put(FileObject("d", 10))  # must evict b or c, not keep
    assert c.get("keep") is not None


def test_all_pinned_raises_no_space():
    c = cache(capacity=20)
    c.put(FileObject("a", 10))
    c.put(FileObject("b", 10))
    c.pin("a")
    c.pin("b")
    with pytest.raises(NoSpaceError):
        c.put(FileObject("c", 10))


def test_oversized_file_rejected():
    c = cache(capacity=10)
    with pytest.raises(NoSpaceError):
        c.put(FileObject("huge", 11))


def test_pin_unpin_nesting():
    c = cache()
    c.put(FileObject("a", 10))
    c.pin("a")
    c.pin("a")
    c.unpin("a")
    assert c.is_pinned("a")
    c.unpin("a")
    assert not c.is_pinned("a")
    with pytest.raises(RuntimeError):
        c.unpin("a")


def test_pin_absent_raises():
    c = cache()
    with pytest.raises(KeyError):
        c.pin("ghost")


def test_duplicate_put_is_touch_not_double_count():
    c = cache(capacity=100)
    c.put(FileObject("a", 10))
    c.put(FileObject("a", 10))
    assert c.used == 10


def test_capacity_validation():
    with pytest.raises(ValueError):
        DiskCache(Environment(), capacity=0)


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 30)),
                min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_property_used_never_exceeds_capacity(ops):
    """Whatever the access pattern, used <= capacity and used equals the
    sum of resident entry sizes."""
    c = DiskCache(Environment(), capacity=100)
    for key, size in ops:
        try:
            c.put(FileObject(f"f{key}", float(size)))
        except NoSpaceError:
            pass
    assert c.used <= c.capacity
    assert c.used == pytest.approx(
        sum(e.size for e in c._entries.values()))


# -- prefetch admission ------------------------------------------------------------

def test_prefetch_budget_cap(monkeypatch):
    monkeypatch.setattr(cache_module, "PREFETCH_SHARE", 0.3)
    c = DiskCache(Environment(), capacity=100)
    with pytest.raises(NoSpaceError):
        c.put(FileObject("big", 40), kind="prefetch")
    c.put(FileObject("ok", 30), kind="prefetch")
    assert c.prefetch_used == 30


def test_prefetch_evicts_only_prefetch():
    """A prefetch insert may evict unpinned prefetch entries but never
    demand data, even unpinned demand data."""
    c = DiskCache(Environment(), capacity=100)
    c.put(FileObject("d1", 40))                      # demand, unpinned
    c.put(FileObject("p1", 40), kind="prefetch")
    c.put(FileObject("p2", 40), kind="prefetch")     # evicts p1, not d1
    assert c.get("d1") is not None
    assert c.kind("p1") is None
    assert c.prefetch_evictions == 1
    # Pinning p2 promotes it to demand; now nothing is evictable for
    # speculation and the insert must be refused, touching neither entry.
    c.pin("p2")
    with pytest.raises(NoSpaceError):
        c.put(FileObject("p3", 40), kind="prefetch")
    assert c.get("d1") is not None and c.get("p2") is not None


def test_demand_evicts_prefetch_first():
    c = DiskCache(Environment(), capacity=100)
    c.put(FileObject("old", 40))
    c.put(FileObject("spec", 40), kind="prefetch")
    c.get("spec")            # prefetch is *more* recent than old
    c.put(FileObject("new", 40))
    # Speculative bytes go first even though demand 'old' is the LRU.
    assert c.kind("spec") is None
    assert c.get("old") is not None


def test_pin_promotes_prefetch_to_demand(monkeypatch):
    monkeypatch.setattr(cache_module, "PREFETCH_SHARE", 0.3)
    c = DiskCache(Environment(), capacity=100)
    c.put(FileObject("p", 30), kind="prefetch")
    assert c.prefetch_used == 30
    c.pin("p")
    assert c.kind("p") == "demand"
    assert c.prefetch_used == 0       # budget released for new speculation
    c.put(FileObject("q", 30), kind="prefetch")
    c.unpin("p")


def test_demand_put_promotes_existing_prefetch(monkeypatch):
    monkeypatch.setattr(cache_module, "PREFETCH_SHARE", 0.3)
    c = DiskCache(Environment(), capacity=100)
    c.put(FileObject("p", 30), kind="prefetch")
    c.put(FileObject("p", 30))        # same bytes, now demanded
    assert c.kind("p") == "demand"
    assert c.prefetch_used == 0
    assert c.used == 30


def test_can_admit_prefetch():
    c = DiskCache(Environment(), capacity=100)
    assert c.can_admit_prefetch(50)
    assert not c.can_admit_prefetch(51)          # over budget
    c.put(FileObject("p1", 50), kind="prefetch")
    assert c.can_admit_prefetch(50)              # p1 is evictable
    c.pin("p1")                                  # promoted + pinned
    assert not c.can_admit_prefetch(60)
    c.put(FileObject("d", 50))
    c.pin("d")
    # Budget free again but no bytes free and nothing evictable.
    assert not c.can_admit_prefetch(10)


def test_evicted_prefetch_releases_budget(monkeypatch):
    monkeypatch.setattr(cache_module, "PREFETCH_SHARE", 0.3)
    c = DiskCache(Environment(), capacity=100)
    c.put(FileObject("p", 30), kind="prefetch")
    c.put(FileObject("d", 80))                   # evicts p to fit
    assert c.kind("p") is None and c.prefetch_evictions == 1
    assert c.prefetch_used == 0
    assert c.can_admit_prefetch(20)


def test_put_unknown_kind_rejected():
    c = cache()
    with pytest.raises(ValueError):
        c.put(FileObject("a", 10), kind="speculative")


# -- accounting under churn --------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["putd", "putp", "pin",
                                           "unpin"]),
                          st.integers(0, 9), st.integers(1, 30)),
                min_size=1, max_size=80))
@settings(max_examples=200, deadline=None)
def test_property_accounting_under_pin_churn(ops):
    """Under arbitrary demand/prefetch insert and pin/unpin churn: byte
    accounting stays exact, the prefetch budget is honoured, and pinned
    entries are never evicted."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache_module, "PREFETCH_SHARE", 0.4)
        c = DiskCache(Environment(), capacity=100)
        pinned = {}
        for op, key, size in ops:
            name = f"f{key}"
            if op == "putd" or op == "putp":
                kind = "demand" if op == "putd" else "prefetch"
                before = {n for n in pinned if pinned[n] > 0}
                try:
                    c.put(FileObject(name, float(size)), kind=kind)
                except NoSpaceError:
                    pass
                for n in before:           # pins survive any eviction pass
                    assert c._pins.get(n, 0) == pinned[n]
            elif op == "pin":
                if c.kind(name) is not None:
                    c.pin(name)
                    pinned[name] = pinned.get(name, 0) + 1
            elif op == "unpin":
                if pinned.get(name, 0) > 0:
                    c.unpin(name)
                    pinned[name] -= 1
        assert c.used == pytest.approx(
            sum(e.size for e in c._entries.values()))
        assert c.prefetch_used == pytest.approx(
            sum(e.size for n, e in c._entries.items()
                if c.kind(n) == "prefetch"))
        assert (c.prefetch_used
                <= cache_module.PREFETCH_SHARE * c.capacity + 1e-9)
        assert c.used <= c.capacity


@given(st.lists(st.tuples(st.sampled_from(["put", "scan"]),
                          st.integers(0, 9), st.integers(1, 30)),
                min_size=1, max_size=80))
@settings(max_examples=200, deadline=None)
def test_property_pins_protect_checksum_scans(ops):
    """A checksum verify scan pins the file it reads; however hard
    demand churn presses on the cache, a file mid-scan is never evicted
    and its pin count is exact. (The GridFTP CKSM path holds the HRM
    stage pin for the whole scan — this is the cache-level contract.)"""
    c = DiskCache(Environment(), capacity=100)
    scanning = set()  # files with an in-progress verify scan
    for op, key, size in ops:
        name = f"f{key}"
        if op == "put":
            try:
                c.put(FileObject(name, float(size)))
            except NoSpaceError:
                pass
            # Whatever the eviction pass did, every mid-scan file is
            # still resident and still pinned.
            for n in scanning:
                assert c.contains(n)
                assert c.is_pinned(n)
        else:  # toggle a scan: begin (pin) or finish (unpin)
            if name in scanning:
                c.unpin(name)
                scanning.discard(name)
            elif c.contains(name):
                c.pin(name)
                scanning.add(name)
    for n in sorted(scanning):   # finish outstanding scans
        c.unpin(n)
        assert c.contains(n)     # release alone never evicts
    assert not any(c.is_pinned(f"f{k}") for k in range(10))
    assert c.used == pytest.approx(
        sum(e.size for e in c._entries.values()))
