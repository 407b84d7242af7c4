"""Seed-stability regression: chaos runs must replay bit-for-bit.

The repo's determinism contract is that every run is a pure function of
the testbed seed (named RNG streams, insertion-ordered scheduling, no
``hash()``-order iteration). The strongest observable of that contract
is the NetLogger lifeline: two runs with the same seed must emit
*identical* ULM event sequences — timestamps, fields, ordering — while
a different seed must visibly diverge. A regression here means some
code path started consuming nondeterministic state (an unnamed RNG,
set iteration, wall clock), which silently breaks replayability of
every experiment in EXPERIMENTS.md.
"""

from repro.net.faults import FaultSchedule
from repro.netlogger import reconstruct_lifelines
from repro.rm.request import FileState
from repro.rm.resilience import ResiliencePolicy, RetryPolicy
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios.esg import EsgTestbed

MB = 2**20
_TERMINAL = (FileState.DONE, FileState.FAILED, FileState.CANCELLED)


def small_chaos_run(seed: int):
    """A compact chaos-survival run exercising the full stack: faults,
    retries, deadlines, and the shared transfer scheduler."""
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_rounds=2, base_delay=10.0, multiplier=2.0,
                          max_delay=30.0, jitter=0.25),
        breaker_failure_threshold=2, file_deadline=150.0)
    tb = EsgTestbed(seed=seed, with_tape=True,
                    file_size_override=8 * MB, resilience=resilience,
                    scheduler=SchedulerConfig(per_server_cap=2))
    tb.warm_nws(60.0)
    rng = tb.env.rng.stream("chaos.schedule")
    sites = sorted(tb.sites)
    hosts = sorted(tb.registry)
    sched = FaultSchedule()
    site = sites[int(rng.integers(len(sites)))]
    sched.link_outage(f"wan-{site}:fwd", float(rng.uniform(5.0, 60.0)),
                      float(rng.uniform(30.0, 90.0)),
                      description=f"{site} uplink outage")
    sched.server_outage(hosts[int(rng.integers(len(hosts)))],
                        float(rng.uniform(5.0, 60.0)),
                        float(rng.uniform(30.0, 90.0)),
                        description="gridftp daemon crash")
    sched.mds_outage(0.0, float(rng.uniform(20.0, 60.0)), mode="fail",
                     description="MDS outage")
    tb.fault_injector().install(sched)
    ds = tb.dataset_ids()[0]
    requests = [(ds, str(f["logical_name"]))
                for f in tb.datasets[ds][:4]]
    ticket = tb.request_manager.submit(requests)
    tb.env.run(until=tb.env.now + 400.0)
    return tb, ticket


def ulm_sequence(tb) -> list:
    return list(tb.logger.records)


def test_same_seed_identical_ulm_lifelines():
    tb_a, ticket_a = small_chaos_run(seed=23)
    tb_b, ticket_b = small_chaos_run(seed=23)
    seq_a, seq_b = ulm_sequence(tb_a), ulm_sequence(tb_b)
    assert len(seq_a) > 50  # the run actually did something
    assert seq_a == seq_b
    # And the outcome fingerprint matches record-for-record.
    assert [(f.logical_file, f.state, f.bytes_done, f.finished_at)
            for f in ticket_a.files] == \
        [(f.logical_file, f.state, f.bytes_done, f.finished_at)
         for f in ticket_b.files]
    # Every file reached a terminal state (chaos never wedges a thread).
    assert all(f.state in _TERMINAL for f in ticket_a.files)


def test_different_seed_diverges():
    tb_a, _ = small_chaos_run(seed=23)
    tb_b, _ = small_chaos_run(seed=24)
    assert ulm_sequence(tb_a) != ulm_sequence(tb_b)


def tape_chaos_run(seed: int):
    """A tape/HRM-heavy chaos run: every requested file is forced through
    the PDSF tape archive (disk replicas dropped), cut-through transfers
    are on, prefetch hints fire, and the HRM itself fails mid-stage."""
    from repro.gridftp.protocol import GridFtpConfig
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_rounds=3, base_delay=10.0, multiplier=2.0,
                          max_delay=40.0, jitter=0.25),
        breaker_failure_threshold=3, file_deadline=600.0)
    tb = EsgTestbed(seed=seed, with_tape=True,
                    file_size_override=8 * MB, resilience=resilience,
                    scheduler=SchedulerConfig(per_server_cap=2),
                    config=GridFtpConfig(parallelism=2,
                                         stage_watermark=0.25))
    tb.warm_nws(60.0)
    ds = tb.dataset_ids()[0]
    requests = [(ds, str(f["logical_name"]))
                for f in tb.datasets[ds][:6]]
    # Tape-only routing: the requested files exist nowhere but PDSF.
    for site_name in sorted(tb.sites):
        if site_name == "lbnl-pdsf":
            continue
        for _ds, name in requests:
            try:
                tb.replica_catalog.remove_file_from_location(
                    ds, site_name, name)
            except KeyError:
                pass                  # no replica registered there
    rng = tb.env.rng.stream("chaos.schedule")
    sched = FaultSchedule()
    sched.hrm_outage("hrm-pdsf", float(rng.uniform(30.0, 90.0)),
                     float(rng.uniform(20.0, 60.0)),
                     description="tape subsystem outage")
    sched.link_outage("wan-lbnl-pdsf:fwd", float(rng.uniform(100.0, 200.0)),
                      float(rng.uniform(20.0, 60.0)),
                      description="pdsf uplink outage")
    tb.fault_injector().install(sched)
    ticket = tb.request_manager.submit(requests)
    tb.env.run(until=tb.env.now + 900.0)
    return tb, ticket


def federated_chaos_run(seed: int):
    """A federated-catalog chaos run: sharded catalog with a slow sync
    and a stale-prone client cache, shard outage windows drawn from the
    seeded chaos stream, and deterministically doctored stale entries
    (replicas deleted behind the catalog's back) so verify-on-open
    demotion and re-selection fire mid-run."""
    tb, tickets = federated_chaos_tickets(seed, copies=1)
    return tb, tickets[0]


def federated_chaos_tickets(seed: int, copies: int):
    """:func:`federated_chaos_run` with its request list submitted
    ``copies`` times at once, one ticket each."""
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_rounds=2, base_delay=10.0, multiplier=2.0,
                          max_delay=30.0, jitter=0.25),
        breaker_failure_threshold=2, file_deadline=200.0)
    tb = EsgTestbed(seed=seed, with_tape=False,
                    file_size_override=8 * MB, resilience=resilience,
                    scheduler=SchedulerConfig(per_server_cap=2),
                    catalog_sites=3, catalog_sync_interval=45.0,
                    catalog_cache_ttl=120.0)
    tb.warm_nws(60.0)
    rng = tb.env.rng.stream("chaos.schedule")
    shards = sorted(tb.federation.sites)
    sched = FaultSchedule()
    for _ in range(2):
        shard = shards[int(rng.integers(len(shards)))]
        sched.catalog_outage(float(rng.uniform(5.0, 60.0)),
                             float(rng.uniform(30.0, 90.0)),
                             site=shard,
                             description=f"{shard} catalog shard down")
    tb.fault_injector().install(sched)
    ds = tb.dataset_ids()[0]
    # Deterministically ordered request list (sorted by logical name —
    # the DN ordering of the per-file lifelines).
    names = sorted(str(f["logical_name"]) for f in tb.datasets[ds][:4])
    # Warm the client cache so selection acts on cached entries...
    for name in names:
        tb.run_process(tb.federation.find_replicas(ds, name))
    # ...then doctor staleness behind the catalog's back: two files
    # (chaos-stream choice) lose every fast replica on disk, leaving
    # only a slow-WAN survivor — the RM must demote and re-select.
    slow = {"ncar", "isi", "sdsc", "llnl"}
    for index in sorted({int(rng.integers(len(names)))
                         for _ in range(2)}):
        name = names[index]
        holders = [loc.name
                   for loc in tb.federation.locations(ds)
                   if loc.holds(name)]
        survivor = next(h for h in holders if h in slow)
        for site_name in holders:
            if site_name != survivor:
                tb.sites[site_name].fs.delete(name)
    tickets = [tb.request_manager.submit([(ds, n) for n in names])
               for _ in range(copies)]
    tb.env.run(until=tb.env.now + 500.0)
    return tb, tickets


def test_same_seed_identical_federated_chaos_lifelines():
    """The federated catalog (sharded fan-out, async replication,
    stale cache, demotion) joins the determinism contract: chaos runs
    over it must replay bit-for-bit."""
    tb_a, ticket_a = federated_chaos_run(seed=41)
    tb_b, ticket_b = federated_chaos_run(seed=41)
    seq_a, seq_b = ulm_sequence(tb_a), ulm_sequence(tb_b)
    assert len(seq_a) > 50
    assert seq_a == seq_b
    assert [(f.logical_file, f.state, f.bytes_done, f.finished_at)
            for f in ticket_a.files] == \
        [(f.logical_file, f.state, f.bytes_done, f.finished_at)
         for f in ticket_b.files]
    assert all(f.state in _TERMINAL for f in ticket_a.files)
    # The run really exercised the federation: fan-out queries and the
    # demote/re-select loop are on the lifeline, identically.
    events_a = [r.event for r in tb_a.logger.records]
    assert "catalog.federated_query" in events_a
    assert "catalog.demote" in events_a
    stats_a, stats_b = tb_a.federation.stats(), tb_b.federation.stats()
    assert stats_a == stats_b
    assert stats_a["demotes"] > 0


def test_two_tickets_on_one_stale_file_each_keep_their_own_demotions():
    """Each ticket that finds a stale entry demotes it under its own
    ticket id, so a lifeline holds its own ``catalog.demote`` records
    and not the other ticket's."""
    tb, tickets = federated_chaos_tickets(seed=41, copies=2)
    lifelines = {(life.ticket, life.file): life
                 for life in reconstruct_lifelines(tb.logger.records)}
    demotes = 0
    for ticket in tickets:
        for fr in ticket.files:
            life = lifelines[(ticket.id_text, fr.logical_file)]
            records = [r for r in life.events if r.event == "catalog.demote"]
            assert len(records) == fr.stale_demotes
            assert all(r.fields["ticket"] == ticket.id_text
                       for r in records)
            demotes += fr.stale_demotes
    assert demotes >= 2


def test_federated_chaos_different_seed_diverges():
    tb_a, _ = federated_chaos_run(seed=41)
    tb_b, _ = federated_chaos_run(seed=42)
    assert ulm_sequence(tb_a) != ulm_sequence(tb_b)


def test_same_seed_identical_tape_chaos_lifelines():
    """The staging pipeline (batch tape scheduler, cut-through, prefetch)
    is part of the determinism contract too: a tape-heavy chaos run must
    replay bit-for-bit."""
    tb_a, ticket_a = tape_chaos_run(seed=31)
    tb_b, ticket_b = tape_chaos_run(seed=31)
    seq_a, seq_b = ulm_sequence(tb_a), ulm_sequence(tb_b)
    assert len(seq_a) > 50
    assert seq_a == seq_b
    assert [(f.logical_file, f.state, f.bytes_done, f.finished_at)
            for f in ticket_a.files] == \
        [(f.logical_file, f.state, f.bytes_done, f.finished_at)
         for f in ticket_b.files]
    assert all(f.state in _TERMINAL for f in ticket_a.files)
    # The run really exercised the tape path (mounts happened), and the
    # RM's dataset hint really reached the HRM.
    hrm = tb_a.sites["lbnl-pdsf"].hrm
    assert hrm.mss.tape.mounts_total > 0
    assert hrm.mss.tape.mounts_total == \
        tb_b.sites["lbnl-pdsf"].hrm.mss.tape.mounts_total
