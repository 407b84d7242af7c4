"""Tests for the simulation environment and event queue."""

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
