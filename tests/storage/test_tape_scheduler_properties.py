"""Property-based invariants of the batch tape scheduler.

Random multi-cartridge read workloads (mixed demand/prefetch priority,
staggered arrivals, 1-3 drives) run against a real simulated clock:

- liveness + the starvation bound: every submitted job is serviced, and
  the number of grants that bypass a queued job never exceeds
  ``aging_rounds`` plus the backlog it queued behind (same bound, and
  same proof shape, as the transfer scheduler's priority aging);
- bytes are conserved: the drives' ``bytes_read`` counters sum to
  exactly the sizes of the files read;
- the cache admission policy never sacrifices demand data to
  speculation: pinned and demand entries survive arbitrary prefetch
  churn (see also test_cache.py's churn property);
- scheduling is deterministic: the same workload against a fresh
  environment replays an identical (grant, drive, timing) trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.storage import DiskCache, FileObject, NoSpaceError, TapeLibrary, TapeSpec
from repro.storage import tape
from repro.storage.cache import PREFETCH_SHARE
from repro.storage.tape import PRIORITY_DEMAND, PRIORITY_PREFETCH

MB = 2**20

# One read request: cartridge, seek position, size, priority, arrival.
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),                      # cartridge index
        st.integers(0, 10),                     # position (tenths)
        st.integers(1, 50),                     # size (MiB)
        st.sampled_from([PRIORITY_DEMAND, PRIORITY_PREFETCH]),
        st.floats(0.0, 120.0),                  # arrival delay (s)
    ),
    min_size=1, max_size=24)

params_strategy = st.tuples(
    st.integers(1, 3),                          # drives
    st.integers(1, 6),                          # aging_rounds
)


def run_workload(ops, drives, aging_rounds):
    """Submit every op at its arrival time; returns (library, jobs)."""
    env = Environment()
    spec = TapeSpec(read_rate=10 * MB, mount_time=40.0,
                    max_seek_time=60.0, rewind_time=20.0)
    lib = TapeLibrary(env, drives=drives, spec=spec)
    jobs = [None] * len(ops)
    for i, (cart, pos, size, _prio, _delay) in enumerate(ops):
        lib.register(FileObject(f"f{i}", size * MB), tape=f"T{cart}",
                     position=pos / 10)

    def submit(i, prio, delay):
        yield env.timeout(delay)
        jobs[i] = lib.submit_read(f"f{i}", priority=prio)

    for i, (_cart, _pos, _size, prio, delay) in enumerate(ops):
        env.process(submit(i, prio, delay))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tape, "AGING_ROUNDS", aging_rounds)
        env.run()
    return lib, jobs


@given(ops_strategy, params_strategy)
@settings(max_examples=200, deadline=None)
def test_property_every_job_serviced_with_bounded_bypass(ops, params):
    drives, aging_rounds = params
    lib, jobs = run_workload(ops, drives, aging_rounds)
    assert all(j is not None and j.done.triggered for j in jobs)
    for j in jobs:
        # j.age counts grants that bypassed j while it was queued (it
        # stops changing once j is granted).
        assert j.age <= aging_rounds + j.backlog
        assert j.granted_at is not None and j.finished_at is not None
        assert j.granted_at >= j.enqueued_at
        assert j.finished_at > j.granted_at


@given(ops_strategy, params_strategy)
@settings(max_examples=200, deadline=None)
def test_property_bytes_conserved(ops, params):
    drives, aging_rounds = params
    lib, jobs = run_workload(ops, drives, aging_rounds)
    total_read = sum(d.bytes_read for d in lib.drives)
    assert total_read == pytest.approx(
        sum(size * MB for (_c, _p, size, _prio, _d) in ops))
    assert lib.jobs_done == len(ops)
    assert lib.queue_length == 0
    assert lib.idle_drive_count == drives


@given(ops_strategy, params_strategy)
@settings(max_examples=200, deadline=None)
def test_property_same_workload_identical_trace(ops, params):
    """Two fresh environments given the same workload produce
    bit-identical grant traces: same drive, same instants, same mount
    counts. (The scheduler iterates lists with explicit seq tiebreakers;
    any hidden set/dict-order dependence would show up here.)"""
    drives, aging_rounds = params

    def trace():
        lib, jobs = run_workload(ops, drives, aging_rounds)
        return ([(j.name, j.drive.name, j.granted_at, j.finished_at,
                  j.age) for j in jobs],
                lib.mounts_total, lib.mount_reuses,
                [d.mounts for d in lib.drives])

    assert trace() == trace()


# One cache op against a demand working set under prefetch pressure.
cache_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["demand", "prefetch", "pin", "unpin"]),
        st.integers(0, 11),                     # file key
        st.integers(1, 40),                     # size
    ),
    min_size=1, max_size=60)


@given(cache_ops_strategy)
@settings(max_examples=200, deadline=None)
def test_property_prefetch_never_evicts_pinned_or_demand(ops):
    """No sequence of prefetch admissions may evict a pinned entry or
    any demand entry: speculation only ever displaces speculation."""
    c = DiskCache(Environment(), capacity=120)
    pins = {}
    for op, key, size in ops:
        name = f"f{key}"
        if op == "pin":
            if c.kind(name) is not None:
                c.pin(name)
                pins[name] = pins.get(name, 0) + 1
            continue
        if op == "unpin":
            if pins.get(name, 0) > 0:
                c.unpin(name)
                pins[name] -= 1
            continue
        demand_resident = {n for n in c._entries
                           if c.kind(n) == "demand"}
        pinned_resident = {n for n in c._entries if c.is_pinned(n)}
        try:
            c.put(FileObject(name, float(size)), kind=op)
        except NoSpaceError:
            continue
        if op == "prefetch":
            survivors = set(c._entries)
            assert demand_resident <= survivors
            assert pinned_resident <= survivors
    assert c.used <= c.capacity
    assert c.prefetch_used <= PREFETCH_SHARE * c.capacity + 1e-9
