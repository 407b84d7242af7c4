"""The kernel's callback contract.

``Event.callbacks`` holds nothing (``None``), one callable, or a list
once a second callable is added. Callbacks run once, in the order they
were added; ``remove_callback`` drops the first one equal to its
argument. Kernel waiters are callables themselves: a process, a
condition and a ``wait_for`` event register the waiter object, never a
bound method made for the occasion.
"""

import pytest

from repro.sim import Environment, Interrupt


class _Recorder:
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def hit(self, ev):
        self.log.append((self.tag, ev.value))


def test_callbacks_go_from_none_to_one_callable_to_a_list():
    env = Environment()
    ev = env.event()
    log = []
    first, second, third = (_Recorder(log, t).hit for t in "abc")
    assert ev.callbacks is None
    ev.add_callback(first)
    assert ev.callbacks is first
    ev.add_callback(second)
    assert ev.callbacks == [first, second]
    ev.add_callback(third)
    assert ev.callbacks == [first, second, third]
    ev.succeed(7)
    env.run()
    assert log == [("a", 7), ("b", 7), ("c", 7)]
    assert ev.callbacks is None and ev.processed


def test_removal_from_each_form():
    env = Environment()
    log = []
    f, g, h = (_Recorder(log, t).hit for t in "fgh")

    empty = env.event()
    empty.remove_callback(f)             # nothing registered: a no-op
    assert empty.callbacks is None

    one = env.event()
    one.add_callback(f)
    one.remove_callback(g)               # not registered: a no-op
    assert one.callbacks is f
    one.remove_callback(f)
    assert one.callbacks is None

    many = env.event()
    for fn in (f, g, h):
        many.add_callback(fn)
    many.remove_callback(g)
    assert many.callbacks == [f, h]
    many.remove_callback(g)              # already gone: a no-op
    many.remove_callback(f)
    many.remove_callback(h)
    assert not many.callbacks

    for ev in (empty, one, many):
        ev.succeed("x")
    env.run()
    assert log == []


def test_a_removed_callback_leaves_the_others_in_order():
    env = Environment()
    ev = env.event()
    log = []
    f, g, h = (_Recorder(log, t).hit for t in "fgh")
    for fn in (f, g, h):
        ev.add_callback(fn)
    ev.remove_callback(f)
    ev.succeed(1)
    env.run()
    assert log == [("g", 1), ("h", 1)]


def test_a_bound_method_is_removed_by_an_equal_distinct_object():
    env = Environment()
    log = []
    rec = _Recorder(log, "r")
    other = _Recorder(log, "o")
    single, listed = env.event(), env.event()
    single.add_callback(rec.hit)
    listed.add_callback(other.hit)
    listed.add_callback(rec.hit)
    again = rec.hit
    assert again is not single.callbacks and again == single.callbacks
    single.remove_callback(again)
    listed.remove_callback(rec.hit)
    assert single.callbacks is None
    assert listed.callbacks == [other.hit]
    single.succeed(1)
    listed.succeed(2)
    env.run()
    assert log == [("o", 2)]


def test_add_callback_on_a_processed_event_runs_it_later_this_instant():
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()
    assert ev.processed and ev.callbacks is None
    log = []
    ev.add_callback(lambda e: log.append((e.value, env.now)))
    assert log == [] and ev.callbacks is None   # scheduled, not run inline
    env.run()
    assert log == [("v", 0.0)]


def test_a_callback_added_while_processing_runs_after_the_others():
    env = Environment()
    ev = env.event()
    log = []

    def late(e):
        log.append("late")

    def first(e):
        log.append("first")
        e.add_callback(late)

    ev.add_callback(first)
    ev.add_callback(lambda e: log.append("second"))
    ev.succeed()
    env.run()
    assert log == ["first", "second", "late"]


def test_a_waiting_process_is_itself_the_callback():
    env = Environment()
    ev = env.event()

    def body():
        return (yield ev)

    proc = env.process(body())
    env.run()
    assert ev.callbacks is proc and proc.target is ev
    ev.succeed(5)
    env.run()
    assert proc.value == 5 and proc.target is None


def test_a_condition_is_itself_the_callback_of_each_child():
    env = Environment()
    a, b = env.event(), env.event()
    both = env.all_of([a, b])
    either = env.any_of([a, b])
    assert a.callbacks == [both, either] and b.callbacks == [both, either]
    a.succeed(1)
    env.run()
    assert either.value == {a: 1} and not both.triggered
    b.succeed(2)
    env.run()
    assert both.value == {a: 1, b: 2}


def test_a_failed_event_whose_only_callback_is_a_process_is_handled():
    env = Environment()
    ev = env.event()
    caught = []

    def body():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    proc = env.process(body())
    env.run()
    assert ev.callbacks is proc
    ev.fail(ValueError("boom"))
    env.run()                       # handled by the process: no raise
    assert caught == ["boom"]


def test_a_failed_event_whose_callbacks_were_all_removed_is_re_raised():
    env = Environment()
    ev = env.event()
    f, g = _Recorder([], "f").hit, _Recorder([], "g").hit
    ev.add_callback(f)
    ev.add_callback(g)
    ev.remove_callback(f)
    ev.remove_callback(g)
    ev.fail(ValueError("orphaned"))
    with pytest.raises(ValueError, match="orphaned"):
        env.run()


def test_interrupt_detaches_the_process_from_its_target():
    env = Environment()
    ev = env.event()
    seen = []

    def sleeper():
        try:
            yield ev
        except Interrupt as intr:
            seen.append(("interrupted", intr.cause, env.now))
        seen.append(("resumed", (yield env.timeout(2.0, "tick"))))

    def poker(proc):
        yield env.timeout(1.0)
        proc.interrupt("wake")
        assert ev.callbacks is None     # the stale wake-up is gone
        ev.succeed("stale")

    proc = env.process(sleeper())
    env.process(poker(proc))
    env.run()
    assert seen == [("interrupted", "wake", 1.0), ("resumed", "tick")]
    assert proc.value is None


def test_interrupt_detaches_one_of_several_waiters():
    env = Environment()
    ev = env.event()

    def waiter():
        try:
            yield ev
        except Interrupt:
            return "interrupted"
        return "woken"

    keep, drop = env.process(waiter()), env.process(waiter())
    env.run()
    assert ev.callbacks == [keep, drop]
    drop.interrupt()
    assert ev.callbacks == [keep]
    ev.succeed()
    env.run()
    assert (keep.value, drop.value) == ("woken", "interrupted")


def test_wait_for_registers_itself_on_both_sides():
    env = Environment()
    ev = env.event()
    wait = env.wait_for(ev, 3.0)
    timer = wait._timer
    assert ev.callbacks is wait and timer.callbacks is wait
    ev.succeed("done")
    env.run()
    assert wait.value == "done" and not ev.callbacks and not timer.callbacks


def test_wait_for_an_already_processed_event_returns_its_value_now():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run(until=1.0)
    got = []

    def waiter():
        got.append(((yield env.wait_for(ev, 5.0)), env.now))

    env.process(waiter())
    env.run()
    # The re-delivered event wins; its timer is cancelled, not run.
    assert got == [("early", 1.0)]
    assert env.now == 1.0
    assert env.kernel_stats["events_cancelled"] == 1


def test_wait_for_an_already_failed_event_raises_in_the_waiter():
    env = Environment()
    ev = env.event()
    ev.fail(KeyError("gone"))
    ev.defuse()
    env.run()
    caught = []

    def waiter():
        try:
            yield env.wait_for(ev, 5.0)
        except KeyError as exc:
            caught.append((exc.args[0], env.now))

    env.process(waiter())
    env.run()
    assert caught == [("gone", 0.0)]
