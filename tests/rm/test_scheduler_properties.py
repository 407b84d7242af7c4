"""Property-based invariants of the multi-tenant transfer scheduler.

Random acquire/hold/release/abort workloads are driven through a real
simulated clock, and every invariant is checked against the scheduler's
audit log (ground truth of each transition) plus the grants the workers
actually received:

- concurrency caps (per-server and per-link) are never exceeded, at any
  audited instant;
- the wait queue never exceeds ``max_queue_depth`` and overflow is
  rejected loudly with :class:`QueueFull`;
- the starvation bound holds: a grant's eligible-bypass count never
  exceeds ``aging_rounds`` plus the backlog it queued behind;
- completed bytes are conserved: per-ticket goodput counters sum to
  exactly the bytes workers reported on release;
- scheduling is deterministic: the same workload against a fresh
  environment replays an identical audit log.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rm.scheduler import QueueFull, SchedulerConfig, TransferScheduler
from repro.sim import Environment
from repro.sim.events import Event

MB = 2**20

# One workload op: which server/flow asks, how big, how long it
# holds the slot, when it starts, and whether it aborts while queued.
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),                        # server index
        st.integers(0, 4),                        # flow index
        st.floats(0.0, 64.0),                     # size (MiB)
        st.integers(1, 8),                        # requested streams
        st.integers(0, 3),                        # priority class
        st.floats(0.0, 5.0),                      # start delay (s)
        st.floats(0.0, 4.0),                      # hold time (s)
        st.sampled_from([None, 0.5, 2.0]),        # abort after (s)
    ),
    min_size=1, max_size=24)

config_strategy = st.builds(
    SchedulerConfig,
    per_server_cap=st.integers(1, 4),
    max_queue_depth=st.integers(1, 8),
    aging_rounds=st.integers(0, 5),
    stream_budget=st.sampled_from([None, 1, 4, 8]))


def run_workload(ops, config, audit=True):
    """Drive one workload; returns (scheduler, outcomes).

    ``outcomes`` is one record per op:
    ``("granted", grant, released_bytes)``, ``("rejected", None, 0)``,
    or ``("withdrawn", None, 0)``.
    """
    env = Environment()
    sched = TransferScheduler(env, config, audit=audit)
    outcomes = [None] * len(ops)

    def worker(i, server, flow, size, streams, priority, start, hold,
               abort_after):
        yield env.timeout(start)
        abort = None
        if abort_after is not None:
            abort = Event(env)

            def trip(ev=abort, delay=abort_after):
                yield env.timeout(delay)
                if not ev.triggered:
                    ev.succeed("abort")
            env.process(trip())
        try:
            grant = yield from sched.acquire(
                f"srv{server}", flow=f"flow{flow}", size=size * MB,
                streams=streams, priority=priority, abort=abort)
        except QueueFull:
            outcomes[i] = ("rejected", None, 0.0)
            return
        if grant is None:
            outcomes[i] = ("withdrawn", None, 0.0)
            return
        yield env.timeout(hold)
        moved = grant.size * 0.5
        sched.release(grant, bytes_done=moved)
        outcomes[i] = ("granted", grant, moved)

    for i, op in enumerate(ops):
        env.process(worker(i, *op))
    env.run()
    return sched, outcomes


# -- caps --------------------------------------------------------------------

@given(ops_strategy, config_strategy)
@settings(max_examples=200, deadline=None)
def test_property_caps_never_exceeded(ops, config):
    """At every audited instant active <= per_server_cap."""
    sched, _ = run_workload(ops, config)
    for _t, _op, _server, _flow, _seq, active, _waiting in sched.audit_log:
        assert 0 <= active <= config.per_server_cap


@given(ops_strategy, config_strategy)
@settings(max_examples=200, deadline=None)
def test_property_queue_depth_bounded(ops, config):
    """Waiting never exceeds max_queue_depth; every overflow surfaced
    as a loud QueueFull rejection in the audit log."""
    sched, outcomes = run_workload(ops, config)
    rejects = 0
    for _t, op, _server, _flow, _seq, _active, waiting in sched.audit_log:
        assert waiting <= config.max_queue_depth
        if op == "reject":
            rejects += 1
            assert waiting == config.max_queue_depth
    assert rejects == sched.rejected
    assert rejects == sum(1 for o in outcomes if o[0] == "rejected")


# -- starvation bound --------------------------------------------------------

@given(ops_strategy, config_strategy)
@settings(max_examples=200, deadline=None)
def test_property_starvation_bounded(ops, config):
    """Aging caps how often an eligible head can be bypassed: every
    grant's bypass count <= aging_rounds + older waiters at enqueue."""
    _sched, outcomes = run_workload(ops, config)
    for kind, grant, _moved in outcomes:
        if kind != "granted":
            continue
        assert grant.bypasses <= config.aging_rounds + grant.backlog


# -- byte conservation -------------------------------------------------------

@given(ops_strategy, config_strategy)
@settings(max_examples=200, deadline=None)
def test_property_bytes_conserved(ops, config):
    """Per-ticket goodput counters sum to exactly the bytes released;
    nothing is invented, dropped, or double counted."""
    sched, outcomes = run_workload(ops, config)
    expected = {}
    for kind, grant, moved in outcomes:
        if kind == "granted":
            expected[grant.flow] = expected.get(grant.flow, 0.0) + moved
    assert set(sched.ticket_bytes) == set(expected)
    for flow, total in expected.items():
        # Tolerance only absorbs float summation order, not lost bytes.
        assert sched.ticket_bytes[flow] == pytest.approx(total, rel=1e-12)
    assert sched.total_bytes == pytest.approx(sum(expected.values()),
                                              rel=1e-12)
    # Every op reached a terminal outcome and counters reconcile.
    assert all(o is not None for o in outcomes)
    granted = sum(1 for o in outcomes if o[0] == "granted")
    withdrawn = sum(1 for o in outcomes if o[0] == "withdrawn")
    rejected = sum(1 for o in outcomes if o[0] == "rejected")
    assert sched.granted == granted
    assert sched.withdrawn == withdrawn
    assert sched.admitted == granted + withdrawn
    assert sched.admitted + rejected == len(ops)


# -- determinism -------------------------------------------------------------

@given(ops_strategy, config_strategy)
@settings(max_examples=200, deadline=None)
def test_property_deterministic_replay(ops, config):
    """The same workload replays to an identical audit log and stats
    against a fresh environment (fixed-seed reproducibility)."""
    sched_a, outcomes_a = run_workload(ops, config)
    sched_b, outcomes_b = run_workload(ops, config)
    assert sched_a.audit_log == sched_b.audit_log
    assert sched_a.stats() == sched_b.stats()
    for a, b in zip(outcomes_a, outcomes_b):
        assert a[0] == b[0]
        if a[0] == "granted":
            assert (a[1].seq, a[1].granted_at, a[1].streams,
                    a[1].bypasses) == \
                (b[1].seq, b[1].granted_at, b[1].streams, b[1].bypasses)


# -- directed behavioural checks ---------------------------------------------

def test_priority_class_preempts_queue_order():
    """An interactive (priority 0) arrival is admitted ahead of queued
    bulk (priority 1) requests once capacity frees."""
    env = Environment()
    sched = TransferScheduler(env, SchedulerConfig(per_server_cap=1,
                                                   aging_rounds=50))
    order = []

    def worker(name, priority, delay):
        yield env.timeout(delay)
        grant = yield from sched.acquire("srv", flow=name, size=1 * MB,
                                         priority=priority)
        order.append(name)
        yield env.timeout(1.0)
        sched.release(grant, bytes_done=1 * MB)

    env.process(worker("first-bulk", 1, 0.0))
    env.process(worker("queued-bulk", 1, 0.1))
    env.process(worker("interactive", 0, 0.2))
    env.run()
    assert order == ["first-bulk", "interactive", "queued-bulk"]


def test_aging_rescues_bypassed_bulk():
    """With aging_rounds=1, a twice-bypassed bulk head is force-granted
    ahead of an endless interactive stream (no starvation)."""
    env = Environment()
    sched = TransferScheduler(env, SchedulerConfig(per_server_cap=1,
                                                   aging_rounds=1))
    order = []

    def worker(name, priority, delay):
        yield env.timeout(delay)
        grant = yield from sched.acquire("srv", flow=name, size=1 * MB,
                                         priority=priority)
        order.append(name)
        yield env.timeout(1.0)
        sched.release(grant, bytes_done=1 * MB)

    env.process(worker("w0", 0, 0.0))
    env.process(worker("bulk", 5, 0.1))
    for i in range(4):
        env.process(worker(f"i{i}", 0, 0.2 + i * 0.01))
    env.run()
    # bulk is bypassed once (by i0), ages to 1, then wins the fast path.
    assert order.index("bulk") == 2


def test_stream_budget_split_across_active():
    """The grant's streams shrink as the server fills: budget 8 over an
    increasingly busy server hands out 8, then 4, then 2."""
    env = Environment()
    sched = TransferScheduler(env, SchedulerConfig(
        per_server_cap=4, stream_budget=8))
    got = []

    def worker(delay):
        yield env.timeout(delay)
        grant = yield from sched.acquire("srv", flow=f"f{delay}",
                                         size=1 * MB, streams=8)
        got.append(grant.streams)
        yield env.timeout(10.0)
        sched.release(grant)

    for i in range(3):
        env.process(worker(float(i)))
    env.run()
    assert got == [8, 4, 2]
