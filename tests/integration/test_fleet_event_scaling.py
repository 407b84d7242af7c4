"""A fleet user's kernel events do not grow with the makespan.

A quiet in-flight transfer schedules nothing: the stall watchdog arms a
timer only while a flow's rate is zero, and an unmonitored request
manager takes no progress samples. So the same 40-user wave costs about
the same number of kernel events per user whether it finishes in 5 s
on the default backbone or in over two minutes behind a PoP uplink
narrowed to 20 Mb/s. (While both loops polled, the slow wave cost 1.34
times as many events per user.) It counts events; it times nothing.
"""

from repro.net import mbps
from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config

MiB = 2**20
USERS = 40


def _wave(downlink: float):
    """(kernel events dispatched per user, makespan) of one wave."""
    tb = EsgTestbed(seed=31, with_tape=False, file_size_override=8 * MiB,
                    aggregation_threshold=2, log_capacity=4096)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(USERS, users_per_pop=USERS, downlink=downlink,
                       config=fleet_config())
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    before = tb.env.kernel_stats["events_dispatched"]
    tickets = [rm.submit([(ds, name)]) for rm in rms]
    tb.env.run(until=tb.env.all_of([t.done for t in tickets]))
    assert not any(t.failed_files for t in tickets)
    events = tb.env.kernel_stats["events_dispatched"] - before
    makespan = max(f.finished_at - t.submitted_at
                   for t in tickets for f in t.files)
    return events / USERS, makespan


def test_events_per_user_do_not_grow_with_the_makespan():
    fast_events, fast_makespan = _wave(mbps(622))
    slow_events, slow_makespan = _wave(mbps(20))
    assert slow_makespan >= 4 * fast_makespan
    ratio = max(fast_events, slow_events) / min(fast_events, slow_events)
    assert ratio <= 1.2, (
        f"{fast_events:.1f} events per user in {fast_makespan:.1f} s, "
        f"{slow_events:.1f} in {slow_makespan:.1f} s")
