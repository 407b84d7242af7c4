"""``Environment.wait_for``: wait on an event with a timeout, and clean
up whichever side loses.

A poll loop built on ``any_of([event, timeout(t)])`` leaks on both
sides: a tick that loses is still dispatched later as a dead event, and
a tick that wins leaves the condition's callback on the watched event
for good. ``wait_for`` cancels the losing timer and detaches from the
event when the timer wins.
"""

import pytest

from repro.net import FlowError, FluidNetwork, Topology, mbps
from repro.sim import Environment


def test_event_wins_and_losing_timer_is_never_dispatched():
    env = Environment()
    ev = env.event()
    wait = env.wait_for(ev, 5.0)
    timer = wait._timer
    got = []

    def waiter():
        got.append((yield wait))

    def firer():
        yield env.timeout(1.0)
        ev.succeed("payload")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == ["payload"]
    # Detached both ways: the cancelled timer holds no callback.
    assert wait._timer is None and not timer.callbacks
    # The queue drained at t=1: the 5 s timer was cancelled, not run.
    assert env.now == 1.0
    stats = env.kernel_stats
    assert stats["events_cancelled"] == 1
    assert stats["events_dispatched"] == stats["events_scheduled"] - 1


def test_timer_wins_with_none_and_detaches_from_event():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield env.wait_for(ev, 2.0)))
        got.append(env.now)

    env.process(waiter())
    env.run()
    assert got == [None, 2.0]
    assert not ev.callbacks
    assert not ev.triggered


def test_already_processed_event_with_zero_timeout():
    env = Environment()
    ev = env.event()
    ev.succeed(7)
    env.run()
    got = []

    def waiter():
        got.append((yield env.wait_for(ev, 0.0)))

    env.process(waiter())
    env.run()
    # The timer was scheduled first, so it wins the tie; the late
    # re-delivery of the processed event must not trigger twice.
    assert got == [None]


def test_failure_propagates_and_is_defused():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield env.wait_for(ev, 10.0)
        except ValueError as exc:
            caught.append((str(exc), env.now))

    def firer():
        yield env.timeout(3.0)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()  # would raise if the failure were left unhandled
    assert caught == [("boom", 3.0)]
    assert ev._defused
    assert env.now == 3.0


def test_failure_in_the_timer_instant_is_left_to_the_waiter():
    """The event fails at the timer's instant but is processed after
    the timer: the timer wins, and the waiter reads the failure."""
    env = Environment()
    ev = env.event()
    env.timeout(1.0).add_callback(lambda _t: ev.fail(ValueError("late")))
    caught = []

    def waiter():
        got = yield env.wait_for(ev, 1.0)
        assert got is None and ev.processed
        try:
            ev.value
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()  # ev was processed with no callback: it must be defused
    assert caught == ["late"]


def _long_flow(env):
    topo = Topology()
    topo.duplex_link("A", "B", mbps(10), 0.001)
    net = FluidNetwork(env, topo)
    return topo, net, net.transfer("A", "B", 1e12)


def test_polls_of_a_long_flow_leave_nothing_behind():
    env = Environment()
    _topo, _net, flow = _long_flow(env)
    polls = []

    def watchdog():
        while len(polls) < 1000:
            yield env.wait_for(flow.done, 0.5)
            polls.append(env.now)

    env.run(until=env.process(watchdog()))
    assert len(polls) == 1000 and flow.active
    # No watchdog leftovers on the flow, and no dead ticks queued.
    assert not flow.done.callbacks
    assert env.kernel_stats["events_cancelled"] <= 1
    flow.abort("done polling")
    flow.done.defuse()


def _abort_on_stall(env, flow, poll, timeout, defuse):
    """A miniature of the transport and GridFTP stall watchdogs."""
    last_change, last = env.now, flow.transferred
    while flow.active:
        yield env.wait_for(flow.done, poll)
        if flow.done.processed:
            break
        if flow.transferred > last + 1e-9:
            last, last_change = flow.transferred, env.now
        elif env.now - last_change >= timeout:
            flow.abort(f"stalled for {timeout:.0f}s")
            break
    if defuse:
        flow.done.defuse()
    return flow.done.value


def _stalled_run(defuse):
    env = Environment()
    topo, net, flow = _long_flow(env)
    outcome = []

    def outage():
        yield env.timeout(1.0)
        topo.links["A<->B:fwd"].set_down()
        net.reallocate()

    def client():
        try:
            yield from _abort_on_stall(env, flow, 1.0, 5.0, defuse)
        except FlowError as exc:
            outcome.append((str(exc), env.now))

    env.process(outage())
    env.process(client())
    env.run()
    return outcome


def test_watchdog_abort_consumes_its_own_failure():
    assert _stalled_run(defuse=True) == [("stalled for 5s", 6.0)]


def test_watchdog_abort_without_defuse_is_unhandled():
    # The timer won the last poll, so nothing else waits on flow.done:
    # a watcher that reads the failure itself must defuse it.
    with pytest.raises(FlowError, match="stalled"):
        _stalled_run(defuse=False)
