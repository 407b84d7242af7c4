"""Tests for the simulation environment and event queue."""

import gc
import weakref

import pytest

from repro.sim import Environment, Event, SimulationError, Timeout


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=7.5).now == 7.5


def test_timeout_advances_clock():
    env = Environment()
    t = env.timeout(3.0, value="x")
    result = env.run(until=t)
    assert result == "x"
    assert env.now == 3.0


def test_run_until_number_advances_clock_even_with_no_events():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_number_does_not_process_later_events():
    env = Environment()
    fired = []
    env.timeout(5.0).add_callback(lambda ev: fired.append(env.now))
    env.timeout(15.0).add_callback(lambda ev: fired.append(env.now))
    env.run(until=10.0)
    assert fired == [5.0]
    assert env.now == 10.0
    env.run(until=20.0)
    assert fired == [5.0, 15.0]


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_drains_queue_when_until_none():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    env.run()
    assert env.now == 2.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []
    for i in range(5):
        env.timeout(1.0, value=i).add_callback(
            lambda ev: order.append(ev.value))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_value():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    ev.succeed(42)
    assert ev.triggered and not ev.processed
    env.run()
    assert ev.processed
    assert ev.value == 42


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_fail_needs_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_failed_event_raises_at_processing():
    env = Environment()
    env.event().fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_defused_failed_event_is_silent():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    env.run()
    assert ev.exception is not None


def test_value_of_untriggered_event_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        _ = env.event().value


def test_callback_on_processed_event_still_runs():
    env = Environment()
    ev = env.timeout(1.0, value="late")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    env.run()
    assert seen == ["late"]


def test_run_until_event_returns_its_value_and_stops_clock():
    env = Environment()
    target = env.timeout(4.0, value="hit")
    env.timeout(100.0)
    assert env.run(until=target) == "hit"
    assert env.now == 4.0


def test_run_until_never_fired_event_raises():
    env = Environment()
    pending = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=pending)


def test_run_until_drained_target_leaves_no_stop_behind():
    """A target that fires after its run gave up must not end a later
    plain run: that run drains the queue and returns None."""
    env = Environment()
    target = env.event()
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=target)
    target.succeed(42)
    env.timeout(3.0)
    assert env.run() is None
    assert env.now == 3.0


def test_run_until_interrupted_by_a_raising_callback_leaves_no_stop():
    """After a callback raises out of ``run(until=target)``, the stale
    target firing at t=1 must not end ``run(until=other)`` at t=3."""
    env = Environment()
    target = env.event()

    def boom(_ev):
        raise ValueError("callback failed")

    env.timeout(0.5).add_callback(boom)
    env.timeout(1.0).add_callback(lambda _ev: target.succeed(42))
    with pytest.raises(ValueError, match="callback failed"):
        env.run(until=target)
    other = env.timeout(2.5, value="other")
    assert env.run(until=other) == "other"
    assert env.now == 3.0


def test_run_until_processed_target_interrupted_leaves_no_stop():
    """A target already processed stops its run through a queue entry;
    a callback raising before that entry runs revokes it."""
    env = Environment()
    target = env.timeout(0.0, value="done")
    env.run(until=target)
    boom = env.event()
    boom.add_callback(lambda _ev: 1 / 0)
    boom.succeed()
    with pytest.raises(ZeroDivisionError):
        env.run(until=target)
    env.timeout(2.0)
    assert env.run() is None
    assert env.now == 2.0


def test_run_until_failed_event_raises_its_exception():
    env = Environment()
    ev = env.event()

    def failer(env, ev):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("transfer died"))

    env.process(failer(env, ev))
    with pytest.raises(RuntimeError, match="transfer died"):
        env.run(until=ev)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(9.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_step_with_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_trigger_chains_outcomes():
    env = Environment()
    src = env.event()
    dst = env.event()
    src.succeed("payload")
    dst.trigger(src)
    env.run()
    assert dst.value == "payload"


def test_rng_streams_attached_to_environment():
    a = Environment(seed=1).rng.stream("x").random()
    b = Environment(seed=1).rng.stream("x").random()
    c = Environment(seed=2).rng.stream("x").random()
    assert a == b
    assert a != c


def test_event_priority_ordering_at_same_time():
    from repro.sim import EventPriority
    env = Environment()
    order = []
    urgent = env.event()
    urgent._triggered = True
    env.schedule(urgent, delay=1.0, priority=EventPriority.LOW)
    urgent.add_callback(lambda ev: order.append("low"))
    normal = env.timeout(1.0)
    normal.add_callback(lambda ev: order.append("normal"))
    env.run()
    assert order == ["normal", "low"]


def test_schedule_callback_runs_at_current_time():
    env = Environment()
    seen = []

    def main(env):
        ev = env.timeout(3.0, value="x")
        yield ev
        env.schedule_callback(lambda e: seen.append((env.now, e.value)),
                              ev)
        yield env.timeout(0)

    env.process(main(env))
    env.run()
    assert seen == [(3.0, "x")]


def test_condition_value_maps_processed_children():
    from repro.sim import AllOf
    env = Environment()

    def main(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(2.0, value="b")
        results = yield AllOf(env, [t1, t2])
        return {ev.value for ev in results}

    p = env.process(main(env))
    env.run()
    assert p.value == {"a", "b"}


def test_condition_rejects_mixed_environments():
    from repro.sim import AllOf
    env_a, env_b = Environment(), Environment()
    with pytest.raises(ValueError):
        AllOf(env_a, [env_a.timeout(1), env_b.timeout(1)])


def test_call_later_orders_like_events_and_needs_no_process():
    from repro.sim import EventPriority
    env = Environment()
    order = []
    env.timeout(1.0).add_callback(lambda ev: order.append("timeout"))
    env.call_later(1.0, lambda: order.append(("normal", env.now)))
    env.call_later(1.0, lambda: order.append(("urgent", env.now)),
                   EventPriority.URGENT)
    env.call_later(0.5, lambda: order.append(("early", env.now)))
    env.run()
    assert order == [("early", 0.5), ("urgent", 1.0), "timeout",
                     ("normal", 1.0)]
    with pytest.raises(ValueError):
        env.call_later(-1.0, lambda: None)


# -- the cyclic collector pauses for a run -----------------------------------

@pytest.fixture
def collector_on():
    """Start with the cyclic collector on; put back what the test found."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def _watch_collector(env, at=1.0):
    """Record ``gc.isenabled()`` from a callback at ``at``: every run
    below must read it off there."""
    seen = []
    env.timeout(at).add_callback(lambda _ev: seen.append(gc.isenabled()))
    return seen


def test_collector_restored_after_a_drained_queue(collector_on):
    env = Environment()
    seen = _watch_collector(env)
    assert env.run() is None
    assert seen == [False] and gc.isenabled()


def test_collector_restored_after_a_numeric_horizon(collector_on):
    env = Environment()
    seen = _watch_collector(env)
    env.timeout(50.0)
    env.run(until=10.0)
    assert seen == [False] and gc.isenabled()


def test_collector_restored_after_a_target_event(collector_on):
    env = Environment()
    seen = _watch_collector(env)
    assert env.run(until=env.timeout(2.0, value="hit")) == "hit"
    assert seen == [False] and gc.isenabled()


def test_collector_restored_after_a_stop_simulation(collector_on):
    """A callback raising ``StopSimulation`` itself ends a plain run
    with that exception."""
    from repro.sim import StopSimulation
    env = Environment()
    seen = _watch_collector(env, 0.5)

    def stop(_ev):
        raise StopSimulation("halt")

    env.timeout(1.0).add_callback(stop)
    with pytest.raises(StopSimulation):
        env.run()
    assert seen == [False] and gc.isenabled()


def test_collector_restored_after_a_failed_target(collector_on):
    env = Environment()
    seen = _watch_collector(env, 0.5)
    target = env.event()
    env.timeout(1.0).add_callback(
        lambda _ev: target.fail(RuntimeError("transfer died")))
    with pytest.raises(RuntimeError, match="transfer died"):
        env.run(until=target)
    assert seen == [False] and gc.isenabled()


def test_collector_restored_when_the_queue_drains_before_the_target(
        collector_on):
    env = Environment()
    seen = _watch_collector(env, 0.5)
    env.timeout(1.0)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=env.event())
    assert seen == [False] and gc.isenabled()


def test_collector_restored_after_a_raising_callback(collector_on):
    env = Environment()
    seen = _watch_collector(env, 0.5)
    env.timeout(1.0).add_callback(lambda _ev: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        env.run(until=5.0)
    assert seen == [False] and gc.isenabled()


def test_collector_restored_after_keyboard_interrupt(collector_on):
    env = Environment()
    seen = _watch_collector(env, 0.5)

    def interrupt(_ev):
        raise KeyboardInterrupt

    env.timeout(1.0).add_callback(interrupt)
    with pytest.raises(KeyboardInterrupt):
        env.run()
    assert seen == [False] and gc.isenabled()


def test_nested_run_leaves_the_collector_off(collector_on):
    outer, inner = Environment(), Environment()
    seen = []

    def nested(_ev):
        inner.timeout(1.0)
        inner.run()
        seen.append(gc.isenabled())

    outer.timeout(1.0).add_callback(nested)
    outer.run()
    assert seen == [False] and gc.isenabled()


def test_collector_stays_off_when_the_caller_disabled_it(collector_on):
    env = Environment()
    gc.disable()
    env.timeout(1.0)
    env.run()
    assert not gc.isenabled()
    env.timeout(1.0).add_callback(lambda _ev: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        env.run()
    assert not gc.isenabled()


def test_a_cycle_made_in_a_run_is_freed_after_it(collector_on):
    """Nothing is lost: a cycle made inside a run outlives every
    allocation the run makes and goes at the first collection after."""

    class Node:
        pass

    env = Environment()
    refs = []
    alive = []

    def make_cycle(_ev):
        node = Node()
        node.me = node
        refs.append(weakref.ref(node))

    def churn(_ev):
        # Far past the gen-0 threshold: a collection here would free it.
        junk = [[] for _ in range(20 * gc.get_threshold()[0])]
        del junk
        alive.append(refs[0]() is not None)

    env.timeout(1.0).add_callback(make_cycle)
    env.timeout(2.0).add_callback(churn)
    env.run()
    assert alive == [True]
    gc.collect()
    assert refs[0]() is None
