"""Tests for tape library, HPSS-like MSS, and the HRM."""

import gc
import weakref

import pytest

import repro.storage.cache as cache_module
from repro.data.digest import marks_of
from repro.sim import Environment
from repro.storage import (
    FileObject,
    FileSystem,
    HierarchicalResourceManager,
    MassStorageSystem,
    TapeLibrary,
    TapeSpec,
    tape,
)

MB = 2 ** 20


def library(drives=1, **kw):
    env = Environment()
    spec = TapeSpec(read_rate=10 * MB, mount_time=40.0, max_seek_time=60.0,
                    rewind_time=20.0, **kw)
    return env, TapeLibrary(env, drives=drives, spec=spec)


def test_tape_spec_validation():
    with pytest.raises(ValueError):
        TapeSpec(read_rate=0)
    with pytest.raises(ValueError):
        TapeSpec(mount_time=-1)
    spec = TapeSpec()
    with pytest.raises(ValueError):
        spec.seek_time(1.5)


def test_read_costs_mount_seek_stream():
    env, lib = library()
    lib.register(FileObject("f", 100 * MB), tape="T1", position=0.5)

    def main(env, lib):
        f = yield from lib.read("f")
        return (env.now, f.name)

    p = env.process(main(env, lib))
    env.run()
    t, name = p.value
    # mount 40 + seek 30 + stream 10 s
    assert t == pytest.approx(40 + 30 + 10)
    assert name == "f"
    assert lib.drives[0].mounts == 1


def test_same_tape_reuse_skips_mount():
    env, lib = library()
    lib.register(FileObject("f1", 10 * MB), tape="T1", position=0.0)
    lib.register(FileObject("f2", 10 * MB), tape="T1", position=0.1)

    def main(env, lib):
        yield from lib.read("f1")
        t_mid = env.now
        yield from lib.read("f2")
        return (t_mid, env.now)

    p = env.process(main(env, lib))
    env.run()
    t_mid, t_end = p.value
    assert t_mid == pytest.approx(40 + 0 + 1)
    # second read: no mount, just seek 6 + stream 1
    assert t_end - t_mid == pytest.approx(6 + 1)


def test_tape_switch_pays_rewind_and_mount():
    env, lib = library()
    lib.register(FileObject("f1", 10 * MB), tape="T1", position=0.0)
    lib.register(FileObject("f2", 10 * MB), tape="T2", position=0.0)

    def main(env, lib):
        yield from lib.read("f1")
        t_mid = env.now
        yield from lib.read("f2")
        return env.now - t_mid

    p = env.process(main(env, lib))
    env.run()
    assert p.value == pytest.approx(20 + 40 + 0 + 1)  # rewind+mount+stream


def test_drive_contention_serializes():
    env, lib = library(drives=1)
    lib.register(FileObject("f1", 10 * MB), tape="T1", position=0.0)
    lib.register(FileObject("f2", 10 * MB), tape="T2", position=0.0)
    done = []

    def reader(env, lib, name):
        yield from lib.read(name)
        done.append((name, env.now))

    env.process(reader(env, lib, "f1"))
    env.process(reader(env, lib, "f2"))
    env.run()
    times = dict(done)
    assert times["f1"] == pytest.approx(41.0)
    assert times["f2"] == pytest.approx(41 + 20 + 40 + 1)


def test_two_drives_parallel():
    env, lib = library(drives=2)
    lib.register(FileObject("f1", 10 * MB), tape="T1", position=0.0)
    lib.register(FileObject("f2", 10 * MB), tape="T2", position=0.0)
    done = []

    def reader(env, lib, name):
        yield from lib.read(name)
        done.append(env.now)

    env.process(reader(env, lib, "f1"))
    env.process(reader(env, lib, "f2"))
    env.run()
    assert done == [pytest.approx(41.0), pytest.approx(41.0)]


def test_unknown_file_raises():
    env, lib = library()
    with pytest.raises(KeyError):
        list(lib.read("ghost"))


# -- MSS -----------------------------------------------------------------------

def mss_fixture(cache_capacity=500 * MB):
    env = Environment()
    mss = MassStorageSystem(env, cache_capacity=cache_capacity, drives=1)
    return env, mss


def test_mss_cache_hit_is_instant():
    env, mss = mss_fixture()
    mss.archive(FileObject("f", 100 * MB), tape="T1", position=0.0)

    def main(env, mss):
        yield from mss.retrieve("f")
        t_first = env.now
        yield from mss.retrieve("f")
        return (t_first, env.now)

    p = env.process(main(env, mss))
    env.run()
    t_first, t_second = p.value
    assert t_first > 0
    assert t_second == t_first  # hit: no time passes
    assert mss.stage_count == 1
    assert mss.is_staged("f")


def test_mss_estimate():
    env, mss = mss_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    est = mss.estimate_retrieve_time("f")
    assert est == pytest.approx(10.0)  # 140 MB / 14 MB/s, no mount counted


def test_mss_has():
    env, mss = mss_fixture()
    mss.archive(FileObject("f", MB), tape="T1", position=0.0)
    assert mss.has("f")
    assert not mss.has("ghost")


# -- HRM -----------------------------------------------------------------------

def hrm_fixture():
    env = Environment()
    mss = MassStorageSystem(env, cache_capacity=500 * MB, drives=1)
    serve_fs = FileSystem(env, "hrm-disk")
    hrm = HierarchicalResourceManager(env, mss, serve_fs)
    return env, mss, serve_fs, hrm


def test_truncating_stage_serves_a_marked_copy():
    """A stage that completes inside a truncate_stage window hands its
    waiters and the serving disk a damaged copy with independent
    metadata; the archived object, which the cache shares, stays
    pristine."""
    env, mss, serve_fs, hrm = hrm_fixture()
    original = FileObject("f", 14 * MB, content=None,
                          metadata={"var": "tas"})
    mss.archive(original, tape="T1", position=0.0)
    hrm.begin_truncating()
    served = env.run(until=hrm.request_stage("f").ready)
    assert served is serve_fs.stat("f") and served is not original
    assert (served.name, served.size) == ("f", original.size)
    assert marks_of(served) == (f"truncated@{env.now:.0f}",)
    assert original.metadata == {"var": "tas"}
    assert hrm.truncated_stages == 1
    hrm.end_truncating()


def test_hrm_stage_publishes_to_serving_fs():
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    req = hrm.request_stage("f")

    def main(env, req):
        file = yield req.ready
        return file.name

    p = env.process(main(env, req))
    env.run()
    assert p.value == "f"
    assert serve_fs.exists("f")
    assert req.stage_time > 0
    assert mss.cache.is_pinned("f")
    hrm.release("f")
    assert not mss.cache.is_pinned("f")


def test_hrm_deduplicates_concurrent_requests():
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    r1 = hrm.request_stage("f")
    r2 = hrm.request_stage("f")
    assert r1 is r2
    assert r1.waiters == 2
    env.run()
    assert mss.stage_count == 1


def test_hrm_already_staged_completes_immediately():
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 14 * MB), tape="T1", position=0.0)
    env.run(until=hrm.request_stage("f").ready)
    hrm.release("f")
    t = env.now
    req2 = hrm.request_stage("f")
    assert req2.ready.triggered
    assert req2.completed_at == t
    env.run()


def test_hrm_stage_failure_propagates():
    env, mss, serve_fs, hrm = hrm_fixture()
    req = hrm.request_stage("ghost")
    with pytest.raises(KeyError):
        env.run(until=req.ready)


def test_hrm_keeps_no_stage_history():
    """A finished, released stage leaves nothing behind in the HRM: its
    ``hrm.stage.done`` record is the only trace."""
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    req = hrm.request_stage("f")
    env.run()
    assert req.ready.triggered and req.stage_time > 0
    hrm.release("f")
    ref = weakref.ref(req)
    del req
    gc.collect()
    assert ref() is None


def test_hrm_estimate_wait():
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    assert hrm.estimate_wait("f") > 0
    env.run(until=hrm.request_stage("f").ready)
    assert hrm.estimate_wait("f") == 0.0


# -- tape writes / archive ingest ------------------------------------------------

def test_tape_write_then_read_roundtrip():
    env, lib = library()

    def main(env, lib):
        yield from lib.write(FileObject("new.nc", 50 * MB), "T9", 0.3)
        t_written = env.now
        f = yield from lib.read("new.nc")
        return t_written, env.now, f.name

    p = env.process(main(env, lib))
    env.run()
    t_written, t_end, name = p.value
    # write: mount 40 + seek 18 + stream 5
    assert t_written == pytest.approx(40 + 18 + 5)
    # read reuses the mounted tape and the head is already at 0.3: stream 5
    assert t_end - t_written == pytest.approx(5)
    assert name == "new.nc"


def test_tape_write_position_validation():
    env, lib = library()
    with pytest.raises(ValueError):
        list(lib.write(FileObject("x", 1), "T", 1.5))


def test_mss_store_keeps_cache_copy_and_migrates():
    env, mss = mss_fixture()

    def main(env, mss):
        yield from mss.store(FileObject("fresh.nc", 140 * MB), "T2", 0.0)
        return env.now

    p = env.process(main(env, mss))
    env.run()
    assert mss.migrations == 1
    assert mss.is_staged("fresh.nc")          # readable from cache
    assert mss.tape.has("fresh.nc")           # durable on tape
    assert not mss.cache.is_pinned("fresh.nc")  # unpinned after migration

    def reread(env, mss):
        t0 = env.now
        yield from mss.retrieve("fresh.nc")
        return env.now - t0

    p2 = env.process(reread(env, mss))
    env.run()
    assert p2.value == 0.0  # cache hit: no tape involved
    assert mss.stage_count == 0


def test_mss_store_contends_with_staging():
    """An ingest and a stage share the single drive."""
    env, mss = mss_fixture()
    mss.archive(FileObject("old.nc", 140 * MB), tape="T1", position=0.0)
    done = []

    def ingest(env, mss):
        yield from mss.store(FileObject("new.nc", 140 * MB), "T2", 0.0)
        done.append(("ingest", env.now))

    def stage(env, mss):
        yield from mss.retrieve("old.nc")
        done.append(("stage", env.now))

    env.process(ingest(env, mss))
    env.process(stage(env, mss))
    env.run()
    times = dict(done)
    # Serialized on the one drive: the later finisher waits for the
    # earlier one plus a cartridge swap.
    assert abs(times["ingest"] - times["stage"]) > 40.0


# -- batch tape scheduler ----------------------------------------------------------

def submit_all(env, lib, names, **kw):
    """Submit reads for ``names`` in order; return the TapeJob list."""
    return [lib.submit_read(n, **kw) for n in names]


def test_back_to_back_same_tape_two_drives_mounts_once():
    """Sequential reads of one cartridge on a 2-drive library must go to
    the drive that already holds it — one mount total, not one per read
    (the old pool popped an arbitrary idle drive)."""
    env, lib = library(drives=2)
    lib.register(FileObject("f1", 10 * MB), tape="T1", position=0.1)
    lib.register(FileObject("f2", 10 * MB), tape="T1", position=0.2)

    def main(env, lib):
        yield from lib.read("f1")
        yield from lib.read("f2")

    env.run(until=env.process(main(env, lib)))
    assert lib.mounts_total == 1
    assert lib.mount_reuses == 1


def test_batch_groups_by_cartridge_fifo_does_not():
    """Interleaved T1/T2/T1/T2 arrivals on one drive: the batch policy
    pays one mount per cartridge, FIFO pays one per job."""
    def run(policy):
        env = Environment()
        spec = TapeSpec(read_rate=10 * MB, mount_time=40.0,
                        max_seek_time=60.0, rewind_time=20.0)
        lib = TapeLibrary(env, drives=1, spec=spec, policy=policy)
        for i, tape in enumerate(["T1", "T2", "T1", "T2"]):
            lib.register(FileObject(f"f{i}", 10 * MB), tape=tape,
                         position=0.1 * i)
        jobs = submit_all(env, lib, [f"f{i}" for i in range(4)])
        env.run()
        assert all(j.done.triggered for j in jobs)
        return lib.mounts_total, env.now

    batch_mounts, batch_makespan = run("batch")
    fifo_mounts, fifo_makespan = run("fifo")
    assert batch_mounts == 2
    assert fifo_mounts == 4
    assert batch_makespan < fifo_makespan


def test_concurrent_same_tape_jobs_never_double_mount():
    """Two same-cartridge jobs arriving together on a 2-drive library
    must share one mount: the second defers to the drive already
    mounting the tape instead of mounting a phantom copy (the grant
    tracks target_tape; loaded_tape only changes after the mount)."""
    env, lib = library(drives=2)
    lib.register(FileObject("f1", 10 * MB), tape="T1", position=0.1)
    lib.register(FileObject("f2", 10 * MB), tape="T1", position=0.2)
    jobs = submit_all(env, lib, ["f1", "f2"])
    env.run()
    assert all(j.done.triggered for j in jobs)
    assert lib.mounts_total == 1
    assert lib.mount_reuses == 1
    assert jobs[0].drive is jobs[1].drive


def test_affinity_waits_for_busy_drive_instead_of_remounting():
    """A job whose cartridge is spinning in a busy drive waits for that
    drive even when another drive sits idle: seconds of wait beat a
    rewind + mount."""
    env, lib = library(drives=2)
    lib.register(FileObject("a1", 10 * MB), tape="T1", position=0.1)
    lib.register(FileObject("b1", 10 * MB), tape="T2", position=0.1)
    lib.register(FileObject("a2", 10 * MB), tape="T1", position=0.2)

    def main():
        j1 = lib.submit_read("a1")          # drive0 mounts T1
        j2 = lib.submit_read("b1")          # drive1 mounts T2
        yield env.timeout(45.0)             # both mounted, mid-stream
        j3 = lib.submit_read("a2")          # T1 busy on drive0
        yield j3.done
        return j1, j2, j3

    j1, j2, j3 = env.run(until=env.process(main()))
    # j3 waited for drive0 (reuse) instead of remounting T1 on drive1.
    assert lib.mounts_total == 2
    assert lib.mount_reuses == 1
    assert j3.drive is j1.drive
    assert j3.granted_at >= j1.finished_at


def test_deferred_demand_lets_prefetch_use_idle_drive():
    """When every demand group is deferred behind a busy drive, a
    lower-priority prefetch group may still use an idle drive rather
    than leaving it parked."""
    from repro.storage.tape import PRIORITY_PREFETCH
    env, lib = library(drives=2)
    lib.register(FileObject("a1", 10 * MB), tape="T1", position=0.1)
    lib.register(FileObject("a2", 10 * MB), tape="T1", position=0.2)
    lib.register(FileObject("p1", 10 * MB), tape="T3", position=0.1)

    def main():
        j1 = lib.submit_read("a1")          # drive0 mounts T1
        yield env.timeout(41.0)             # mounted, streaming
        j2 = lib.submit_read("a2")          # deferred: T1 busy
        j3 = lib.submit_read("p1", priority=PRIORITY_PREFETCH)
        yield env.all_of([j2.done, j3.done])
        return j1, j2, j3

    j1, j2, j3 = env.run(until=env.process(main()))
    assert j3.drive is not j1.drive         # prefetch took the idle drive
    assert j2.drive is j1.drive             # demand followed its tape
    assert lib.mounts_total == 2


def test_scan_order_within_cartridge():
    """Within a mounted cartridge jobs are served in elevator order over
    seek position, not arrival order."""
    env, lib = library(drives=1)
    lib.register(FileObject("hi", 10 * MB), tape="T1", position=0.9)
    lib.register(FileObject("mid", 10 * MB), tape="T1", position=0.5)
    lib.register(FileObject("lo", 10 * MB), tape="T1", position=0.1)
    # Arrival order: hi (grabs the drive), mid, lo.
    jobs = {n: lib.submit_read(n) for n in ("hi", "mid", "lo")}
    env.run()
    order = sorted(jobs, key=lambda n: jobs[n].finished_at)
    # After 'hi' the head sits at 0.9; the upward sweep is exhausted, so
    # the scan wraps to the lowest position and works up.
    assert order == ["hi", "lo", "mid"]


def test_head_tracking_charges_relative_seek():
    """Seek cost is the wind distance from the current head position."""
    env, lib = library(drives=1)
    lib.register(FileObject("a", 10 * MB), tape="T1", position=0.5)
    lib.register(FileObject("b", 10 * MB), tape="T1", position=0.7)

    def main(env, lib):
        yield from lib.read("a")
        t_mid = env.now
        yield from lib.read("b")
        return t_mid

    p = env.process(main(env, lib))
    env.run()
    t_mid = p.value
    # First: mount 40 + seek 0.5*60 + stream 1.
    assert t_mid == pytest.approx(40 + 30 + 1)
    # Second: no mount, relative seek |0.7-0.5|*60 = 12 + stream 1.
    assert env.now - t_mid == pytest.approx(12 + 1)


def test_aging_bounds_starvation(monkeypatch):
    """A job on an unpopular cartridge is bypassed at most AGING_ROUNDS
    times by batching before it is granted outright."""
    monkeypatch.setattr(tape, "AGING_ROUNDS", 2)
    env = Environment()
    spec = TapeSpec(read_rate=10 * MB, mount_time=40.0,
                    max_seek_time=60.0, rewind_time=20.0)
    lib = TapeLibrary(env, drives=1, spec=spec)
    lib.register(FileObject("victim", 10 * MB), tape="Tv", position=0.0)
    for i in range(6):
        lib.register(FileObject(f"p{i}", 10 * MB), tape="Tp",
                     position=i / 10)
    first = lib.submit_read("p0")        # takes the drive
    victim = lib.submit_read("victim")
    rest = [lib.submit_read(f"p{i}") for i in range(1, 6)]
    env.run()
    assert victim.done.triggered
    # Bypassed exactly AGING_ROUNDS times, then granted ahead of the
    # remaining popular-cartridge jobs.
    assert victim.age == 2
    later = [j for j in rest if j.granted_at > victim.granted_at]
    assert len(later) == 3


def test_demand_priority_beats_prefetch():
    """A demand read arriving after a queued prefetch is granted first."""
    env, lib = library(drives=1)
    lib.register(FileObject("busy", 10 * MB), tape="T1", position=0.0)
    lib.register(FileObject("spec", 10 * MB), tape="T2", position=0.0)
    lib.register(FileObject("hot", 10 * MB), tape="T3", position=0.0)
    from repro.storage.tape import PRIORITY_PREFETCH
    lib.submit_read("busy")                                   # in service
    pre = lib.submit_read("spec", priority=PRIORITY_PREFETCH)  # queued
    hot = lib.submit_read("hot")                               # queued later
    env.run()
    assert hot.granted_at < pre.granted_at


def test_stage_progress_watermark_event_timing():
    """at_bytes() fires at the exact instant the staged prefix crosses
    the threshold: mount + seek + fraction of the stream."""
    from repro.storage import StageProgress
    env, lib = library(drives=1)
    lib.register(FileObject("f", 100 * MB), tape="T1", position=0.5)
    progress = StageProgress(env, 100 * MB)
    gate = progress.at_bytes(25 * MB)     # registered before streaming
    lib.submit_read("f", progress=progress)
    fired = []
    gate.add_callback(lambda ev: fired.append(env.now))
    env.run()
    # mount 40 + seek 30, then 25 MB at 10 MB/s = 2.5 s into the stream.
    assert fired == [pytest.approx(40 + 30 + 2.5)]
    assert progress.completed
    assert progress.staged_bytes() == 100 * MB


def test_stage_progress_at_bytes_after_completion_is_immediate():
    from repro.storage import StageProgress
    env = Environment()
    progress = StageProgress(env, 50.0)
    progress._start(10.0)
    progress._finish()
    assert progress.at_bytes(50.0).triggered


# -- HRM pin refcounting (shared stages) -----------------------------------------

def test_hrm_pins_once_per_waiter():
    """N concurrent waiters on one stage => N pins, and each release
    balances exactly one (the old code pinned once for the group, so the
    first release left later transfers unprotected)."""
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    r1 = hrm.request_stage("f")
    r2 = hrm.request_stage("f")
    assert r1 is r2 and r1.waiters == 2
    env.run()
    assert mss.cache._pins.get("f", 0) == 2
    hrm.release("f")
    assert mss.cache._pins.get("f", 0) == 1   # second transfer still covered
    hrm.release("f")
    assert not mss.cache.is_pinned("f")
    hrm.release("f")                        # over-release is a no-op
    assert not mss.cache.is_pinned("f")


def test_hrm_fast_path_pins_per_caller():
    """Requests against an already-staged file each take their own pin."""
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 14 * MB), tape="T1", position=0.0)
    env.run(until=hrm.request_stage("f").ready)
    hrm.request_stage("f")
    assert mss.cache._pins.get("f", 0) == 2
    hrm.release("f")
    hrm.release("f")
    assert not mss.cache.is_pinned("f")


def test_hrm_abandon_inflight_surrenders_waiter_slot():
    """A sharer that gives up mid-stage reduces the pins taken at
    completion; abandoning after completion balances like release."""
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    hrm.request_stage("f")
    hrm.request_stage("f")
    hrm.abandon("f")           # second caller's transfer died pre-stage
    env.run()
    assert mss.cache._pins.get("f", 0) == 1
    hrm.abandon("f")           # first caller's transfer died post-stage
    assert not mss.cache.is_pinned("f")


def test_hrm_stage_request_ids_come_from_env():
    """Request ids are per-run (env.next_id), not process-global."""
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("a", MB), tape="T1", position=0.0)
    mss.archive(FileObject("b", MB), tape="T1", position=0.1)
    ra = hrm.request_stage("a")
    rb = hrm.request_stage("b")
    assert rb.id == ra.id + 1
    env2 = Environment()
    mss2 = MassStorageSystem(env2, cache_capacity=500 * MB, drives=1)
    hrm2 = HierarchicalResourceManager(env2, mss2,
                                       FileSystem(env2, "d2"))
    mss2.archive(FileObject("a", MB), tape="T1", position=0.0)
    assert hrm2.request_stage("a").id == ra.id   # fresh env, fresh ids
    env.run()
    env2.run()


# -- HRM prefetch ----------------------------------------------------------------

def test_hint_dataset_prefetches_siblings_in_idle_time():
    """Hinted siblings are staged during idle drive time, amortizing the
    mount; a later request for a prefetched file completes instantly."""
    env, mss, serve_fs, hrm = hrm_fixture()
    for i in range(3):
        mss.archive(FileObject(f"f{i}", 14 * MB), tape="T1",
                    position=i / 10)
    req = hrm.request_stage("f0")
    hrm.hint_dataset(["f0", "f1", "f2"])
    env.run()
    assert req.ready.triggered
    assert hrm.prefetch_issued == 2
    assert mss.is_staged("f1") and mss.is_staged("f2")
    assert mss.tape.mounts_total == 1          # one mount covered all three
    assert mss.cache.kind("f1") == "prefetch"
    # Demand catches up: instant hit, promoted to demand by the pin.
    r1 = hrm.request_stage("f1")
    assert r1.ready.triggered
    assert hrm.prefetch_hits == 1
    assert mss.cache.kind("f1") == "demand"
    env.run()


def test_demand_joining_inflight_prefetch_counts_hit():
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f0", 14 * MB), tape="T1", position=0.0)
    mss.archive(FileObject("f1", 140 * MB), tape="T1", position=0.5)
    env.run(until=hrm.request_stage("f0").ready)
    hrm.hint_dataset(["f1"])

    def later(env, hrm):
        yield env.timeout(1.0)       # prefetch of f1 is now in flight
        req = hrm.request_stage("f1")
        assert not req.prefetch and req.waiters == 1
        yield req.ready

    env.run(until=env.process(later(env, hrm)))
    assert hrm.prefetch_hits == 1
    assert mss.cache._pins.get("f1", 0) == 1      # the demand caller's pin
    env.run()


def test_prefetch_skipped_when_cache_cannot_admit(monkeypatch):
    """Inadmissible prefetches are skipped (candidate stays hinted), and
    demand entries are never evicted to make room for speculation."""
    env = Environment()
    monkeypatch.setattr(cache_module, "PREFETCH_SHARE", 0.25)
    mss = MassStorageSystem(env, cache_capacity=100 * MB, drives=1)
    serve_fs = FileSystem(env, "hrm-disk")
    hrm = HierarchicalResourceManager(env, mss, serve_fs)
    mss.archive(FileObject("hot", 60 * MB), tape="T1", position=0.0)
    mss.archive(FileObject("big", 50 * MB), tape="T1", position=0.5)
    env.run(until=hrm.request_stage("hot").ready)
    hrm.hint_dataset(["big"])      # 50 MB > 25 MB prefetch budget
    env.run()
    assert hrm.prefetch_issued == 0
    assert hrm.prefetch_skipped == 1
    assert mss.is_staged("hot")    # demand data untouched
    assert mss.cache.is_pinned("hot")


def test_hrm_outage_aborts_prefetch_without_unhandled_failure():
    """A prefetch killed by an HRM outage is counted, not raised —
    nobody waits on a speculative stage."""
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f0", 14 * MB), tape="T1", position=0.0)
    mss.archive(FileObject("f1", 140 * MB), tape="T1", position=0.5)
    env.run(until=hrm.request_stage("f0").ready)
    hrm.hint_dataset(["f1"])

    def chaos(env, hrm):
        yield env.timeout(1.0)
        hrm.fail_staging()

    env.process(chaos(env, hrm))
    env.run()                       # must not raise
    assert hrm.prefetch_aborted == 1


# -- HRM estimate_wait -----------------------------------------------------------

def test_estimate_wait_reflects_queue_depth():
    env, mss, serve_fs, hrm = hrm_fixture()
    for i in range(4):
        mss.archive(FileObject(f"f{i}", 140 * MB), tape=f"T{i}",
                    position=0.0)
    base = hrm.estimate_wait("f3")
    for i in range(3):
        mss.tape.submit_read(f"f{i}")
    deeper = hrm.estimate_wait("f3")
    # f0 is in service, f1/f2 queued: two queue slots' worth of penalty.
    spec = mss.tape.spec
    assert deeper == pytest.approx(
        base + 2 * (spec.mount_time + spec.max_seek_time / 2))
    env.run()


def test_estimate_wait_zero_for_prefetched_file():
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f0", 14 * MB), tape="T1", position=0.0)
    mss.archive(FileObject("f1", 14 * MB), tape="T1", position=0.1)
    env.run(until=hrm.request_stage("f0").ready)
    hrm.hint_dataset(["f1"])
    env.run()
    assert mss.cache.kind("f1") == "prefetch"
    assert hrm.estimate_wait("f1") == 0.0


def test_estimate_wait_uses_live_stream_progress():
    """Once the drive is streaming, the estimate is the remaining bytes
    at the drive rate — not the full pessimistic re-stage cost."""
    env, mss, serve_fs, hrm = hrm_fixture()
    mss.archive(FileObject("f", 140 * MB), tape="T1", position=0.0)
    req = hrm.request_stage("f")

    def probe(env, hrm):
        # Mount takes 40 s; at t=45 the stream has run 5 s of 10.
        yield env.timeout(45.0)
        return hrm.estimate_wait("f")

    p = env.process(probe(env, hrm))
    env.run()
    assert p.value == pytest.approx(5.0)
    assert req.ready.triggered
