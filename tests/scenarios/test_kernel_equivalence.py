"""Kernel-backend equivalence on the full stack.

The calendar queue must be observationally identical to the binary
heap: a seeded chaos run (faults, retries, scheduler, tape) on the
calendar kernel must emit the *same* NetLogger ULM lifeline —
timestamps, fields, ordering — as the same run on the
``HeapEnvironment`` oracle. This is the strongest cross-backend check
we have: any divergence in dispatch order anywhere in a ~10³-event run
shows up as a lifeline diff.
"""

from repro.net.faults import FaultSchedule
from repro.rm.request import FileState
from repro.rm.resilience import ResiliencePolicy, RetryPolicy
from repro.rm.scheduler import SchedulerConfig
from repro.scenarios.esg import EsgTestbed
from tests.sim.heap_kernel import HeapEnvironment, heap_kernel

MB = 2**20
_TERMINAL = (FileState.DONE, FileState.FAILED, FileState.CANCELLED)


def chaos_run(seed: int = 29):
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
    tb.fault_injector().install(sched)
    ds = tb.dataset_ids()[0]
    requests = [(ds, str(f["logical_name"]))
                for f in tb.datasets[ds][:4]]
    ticket = tb.request_manager.submit(requests)
    tb.env.run(until=tb.env.now + 400.0)
    return tb, ticket


def test_calendar_and_heap_chaos_lifelines_identical():
    tb_cal, ticket_cal = chaos_run()
    with heap_kernel():
        tb_heap, ticket_heap = chaos_run()
    assert isinstance(tb_heap.env, HeapEnvironment)
    seq_cal = list(tb_cal.logger.records)
    seq_heap = list(tb_heap.logger.records)
    assert len(seq_cal) > 50      # the run actually did something
    assert seq_cal == seq_heap
    assert [(f.logical_file, f.state, f.bytes_done, f.finished_at)
            for f in ticket_cal.files] == \
        [(f.logical_file, f.state, f.bytes_done, f.finished_at)
         for f in ticket_heap.files]
    assert all(f.state in _TERMINAL for f in ticket_cal.files)
    # Same event volume through the kernel, to the last event.
    assert tb_cal.env.kernel_stats["events_dispatched"] == \
        tb_heap.env.kernel_stats["events_dispatched"]
    assert tb_cal.env.kernel_stats["events_cancelled"] == \
        tb_heap.env.kernel_stats["events_cancelled"]
