"""Calendar-queue kernel vs binary heap: equivalence and cancellation.

The calendar queue behind ``Environment.schedule``/``cancel`` must be
indistinguishable from the binary-heap oracle ``HeapEnvironment`` —
same dispatch order, same timestamps, same counters — so every test
here drives both kernels through identical workloads and compares
observable behaviour, plus directed regressions for the amortized
cancellation sweep (which must stay O(log n) sweeps under mass
cancellation instead of degenerating into repeated O(n) heapify
passes).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from tests.sim.heap_kernel import HeapEnvironment

_KERNELS = (Environment, HeapEnvironment)

# Delays draw from a grid straddling the calendar bucket width (0.25 s)
# so runs exercise same-bucket collisions, same-instant batches, bucket
# boundaries, and the overflow (current-bucket arrival) path.
_DELAYS = (0.0, 0.05, 0.1, 0.25, 0.24999, 0.250001, 0.3, 0.5, 1.0,
           2.75, 10.0, 100.0)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.sampled_from(range(len(_DELAYS)))),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("run"), st.sampled_from(range(len(_DELAYS)))),
    ),
    min_size=1, max_size=60)


def drive(env_cls, ops):
    """Run one schedule/cancel/run interleaving; return the dispatch log."""
    env = env_cls()
    log = []
    scheduled = []

    def logger(tag):
        def cb(ev):
            log.append((env.now, tag))
        return cb

    for op, arg in ops:
        if op == "sched":
            ev = env.timeout(_DELAYS[arg])
            ev.add_callback(logger(len(scheduled)))
            scheduled.append(ev)
        elif op == "cancel":
            if scheduled:
                env.cancel(scheduled[arg % len(scheduled)])
        else:  # partial run, then keep scheduling relative to the new now
            env.run(until=env.now + _DELAYS[arg])
    env.run()
    stats = env.kernel_stats
    return log, env.now, stats["events_dispatched"], stats["events_cancelled"]


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_calendar_matches_heap_on_random_interleavings(ops):
    """Identical dispatch order, timestamps, clock, and counters."""
    cal = drive(Environment, ops)
    heap = drive(HeapEnvironment, ops)
    assert cal == heap


def test_heap_oracle_bypasses_the_calendar():
    """The oracle must replace every calendar path, not share one."""
    env = HeapEnvironment()
    for delay in _DELAYS:
        env.timeout(delay)
    env.run(until=0.3)
    for delay in _DELAYS:  # would land in the calendar's open bucket
        env.timeout(delay)
    assert not env._slots and not env._overflow
    env.run()


def test_same_instant_events_dispatch_in_schedule_order():
    for env_cls in _KERNELS:
        env = env_cls()
        order = []
        for i in range(50):
            env.timeout(1.0).add_callback(
                lambda ev, i=i: order.append(i))
        env.run()
        assert order == list(range(50))
        assert env.now == 1.0


def test_cancelled_events_never_fire():
    for env_cls in _KERNELS:
        env = env_cls()
        fired = []
        evs = [env.timeout(t) for t in (0.1, 0.2, 0.3, 5.0)]
        for ev in evs:
            ev.add_callback(lambda e: fired.append(env.now))
        env.cancel(evs[1])
        env.cancel(evs[3])
        env.run()
        assert fired == [0.1, 0.3]
        stats = env.kernel_stats
        assert stats["events_cancelled"] == 2
        assert stats["events_dispatched"] == 2
        assert env.pending_count == 0


def test_mass_cancellation_uses_logarithmically_many_sweeps():
    """The O(n)-compaction regression (satellite of the fast-path work):
    cancelling almost everything must trigger at most O(log n) backing
    -store sweeps — each one removes >= 2/3 of residents — never a
    sweep per cancel. ``queue_compactions`` counts bucket-filter sweeps
    in the calendar kernel and heapify passes in the heap oracle."""
    n = 20_000
    for env_cls in (HeapEnvironment, Environment):
        env = env_cls()
        evs = [env.timeout(1000.0 + i * 1e-3) for i in range(n)]
        for ev in evs[: n - 1000]:
            env.cancel(ev)
        stats = env.kernel_stats
        assert stats["events_cancelled"] == n - 1000
        assert 1 <= stats["queue_compactions"] <= int(math.log2(n))
        # Physical residency stays within a constant factor of the live
        # population (sweep trigger: cancelled > 2x live + watermark).
        assert env.queue_depth() <= 3 * env.pending_count + 65
        env.run()
        assert env.kernel_stats["events_dispatched"] >= 1000


def test_cancel_heavy_churn_keeps_queue_bounded():
    """Steady schedule-then-cancel churn (the superseded-timer pattern)
    must not accumulate dead entries without bound."""
    for env_cls in (HeapEnvironment, Environment):
        env = env_cls()
        live = None
        for k in range(30_000):
            if live is not None:
                env.cancel(live)
            live = env.timeout(1e6 + k)  # far future, always superseded
        assert env.pending_count == 1
        assert env.queue_depth() <= 200
        assert env.kernel_stats["queue_compactions"] >= 10


def test_kernel_stats_counters_reconcile():
    for env_cls in _KERNELS:
        env = env_cls()
        evs = [env.timeout(float(i % 7) * 0.1) for i in range(100)]
        for ev in evs[::3]:
            env.cancel(ev)
        env.run()
        stats = env.kernel_stats
        assert stats["events_scheduled"] == 100
        assert stats["events_cancelled"] == 34
        assert stats["events_dispatched"] == 66
        assert env.pending_count == 0
        assert env.queue_depth() == 0
