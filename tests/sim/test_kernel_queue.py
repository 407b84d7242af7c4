"""The event queue: dispatch order, cancellation and the sweep bound.

``Environment`` dispatches in (time, priority, schedule order). The
property test states that contract on random schedule/cancel/run
interleavings against a sort the test computes itself, and checks
that the clock and the kernel counters reconcile. Directed tests
cover same-instant order, cancellation, and the amortized cancellation
sweep, which must stay O(log n) sweeps under mass cancellation instead
of degenerating into an O(n) pass per cancel.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, EventPriority

# Delays mix exact ties, near-ties and long gaps, so runs exercise
# same-instant batches and entries scheduled at the instant just run to.
_DELAYS = (0.0, 0.05, 0.1, 0.25, 0.24999, 0.250001, 0.3, 0.5, 1.0,
           2.75, 10.0, 100.0)
_PRIORITIES = tuple(EventPriority)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.sampled_from(range(len(_DELAYS)))),
        st.tuples(st.just("call"), st.sampled_from(range(len(_DELAYS))),
                  st.sampled_from(_PRIORITIES)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("run"), st.sampled_from(range(len(_DELAYS)))),
    ),
    min_size=1, max_size=60)


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_dispatch_is_the_sorted_schedule_on_random_interleavings(ops):
    """Every run dispatches the pending entries due by its horizon in
    (time, priority, schedule order); a cancel before dispatch removes
    an entry, one after it does nothing."""
    env = Environment()
    log, expected = [], []
    pending = {}      # tag -> (time, priority, tag), in the test's model
    timeouts = []     # (tag, event) of every cancellable entry
    now = 0.0
    scheduled = cancelled = 0

    def logger(tag):  # an event callback, or a bare call_later callable
        return lambda *_ev: log.append((env.now, tag))

    def run_model(horizon):
        nonlocal now
        for key in sorted(k for k in pending.values() if k[0] <= horizon):
            del pending[key[2]]
            expected.append((key[0], key[2]))
            now = max(now, key[0])

    for op in ops:
        kind, arg = op[0], op[1]
        if kind == "sched":
            tag = scheduled
            scheduled += 1
            ev = env.timeout(_DELAYS[arg])
            ev.add_callback(logger(tag))
            timeouts.append((tag, ev))
            pending[tag] = (now + _DELAYS[arg], EventPriority.NORMAL, tag)
        elif kind == "call":
            tag = scheduled
            scheduled += 1
            env.call_later(_DELAYS[arg], logger(tag), priority=op[2])
            pending[tag] = (now + _DELAYS[arg], int(op[2]), tag)
        elif kind == "cancel":
            if timeouts:
                tag, ev = timeouts[arg % len(timeouts)]
                env.cancel(ev)
                if tag in pending:
                    del pending[tag]
                    cancelled += 1
        else:  # partial run, then keep scheduling relative to the new now
            horizon = now + _DELAYS[arg]
            env.run(until=horizon)
            run_model(horizon)
            now = horizon
    env.run()
    run_model(math.inf)

    assert log == expected
    assert env.now == now
    stats = env.kernel_stats
    assert stats["events_scheduled"] == scheduled
    assert stats["events_dispatched"] == len(expected) == scheduled - cancelled
    assert stats["events_cancelled"] == cancelled
    assert env.pending_count == 0
    assert env.queue_depth() == 0


def test_same_instant_events_dispatch_in_schedule_order():
    env = Environment()
    order = []
    for i in range(50):
        env.timeout(1.0).add_callback(
            lambda ev, i=i: order.append(i))
    env.run()
    assert order == list(range(50))
    assert env.now == 1.0


def test_cancelled_events_never_fire():
    env = Environment()
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
    """Cancelling almost everything must trigger at most O(log n) heap
    sweeps — each one removes >= 2/3 of residents — never a sweep per
    cancel."""
    n = 20_000
    env = Environment()
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
    env = Environment()
    live = None
    for k in range(30_000):
        if live is not None:
            env.cancel(live)
        live = env.timeout(1e6 + k)  # far future, always superseded
    assert env.pending_count == 1
    assert env.queue_depth() <= 200
    assert env.kernel_stats["queue_compactions"] >= 10


def test_kernel_stats_counters_reconcile():
    env = Environment()
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
