"""The poll-free stall watchdog against the polling loop it replaced.

Twin environments run one fault script each: flows (exact, or members
of aggregates) start at scripted instants and are watched by
:meth:`~repro.net.transport.Connection.watch`; links go down and come
back, flow caps drop to 0 and rise again, and flows are aborted mid
window. One twin watches with the allocator's rate signal and one abort
timer, the other with :func:`tests.net.reference_watchdog.reference_watch`,
which wakes every poll and reads the flow's progress. Both must abort
the same flows at the same instants with the same text, deliver the
same bytes and dispatch the same (time, priority) sequence of every
event the two share. Left out are the reference's tick timers and wait
events and the watchdog's abort timers, which only one twin has, and
the allocator's own bookkeeping: its completion timers, its end-of-
instant flush events and the ``done`` of a retired aggregate, which
nothing waits on. A reference tick reads progress through a forced
flush, so the bookkeeping of a flush due later in that instant may run
at the tick instead (same instant, same rates, same bytes).

:func:`run_script` is also the harness of the directed watchdog cases
in ``tests/net/test_transport.py``.

A request-manager twin does the same over a small faulted fleet: the
reference samples every attempt's progress with the fleet's old
back-off (:func:`tests.net.reference_watchdog.reference_polling`), the
request manager samples none, and the records and the files' final
fields must agree, as must the shared events each instant dispatches
at each priority. Their order within an instant may differ there: an
attempt that waits on its transfer directly resumes when the transfer
ends, where the reference resumes through its wait event after the
instant's other NORMAL events, and what it then starts (an URGENT
process start) moves with it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    FlowError,
    FluidNetwork,
    TcpParams,
    TcpStream,
    Topology,
    Transport,
)
from repro.net.transport import Connection, _AbortBatch
from repro.sim import Environment
from repro.sim.events import Timeout
from tests.net.reference_watchdog import reference_polling

# node pairs a flow may take: all cross R; A->B and C->B share R->B
PATHS = (("A", "B"), ("C", "B"), ("A", "C"), ("B", "A"))
LINKS = ("A<->R:fwd", "R<->B:fwd", "C<->R:fwd", "C<->R:rev")


def _shared(event, aggregate_done: Set) -> bool:
    """False for the events the comparison leaves out (see the module
    docstring)."""
    kind = type(event).__name__
    cbs = event.callbacks
    if kind == "_WaitFor" or event in aggregate_done:
        return False
    if kind == "_Call" and isinstance(event._fn, _AbortBatch):
        return False
    if cbs is not None and getattr(cbs, "__name__", "") in (
            "_on_timer_event", "_on_flush_event"):
        return False
    return not (isinstance(event, Timeout)
                and type(cbs).__name__ == "_WaitFor")


def record_dispatch(env: Environment,
                    net: FluidNetwork) -> List[Tuple[float, int]]:
    """Log (time, priority) of every shared event ``env`` dispatches."""
    log: List[Tuple[float, int]] = []
    aggregate_done: Set = set()
    dispatch = env._dispatch
    make_aggregate = net._make_aggregate

    def logged(event):
        if _shared(event, aggregate_done):
            log.append((event._t, event._prio))
        dispatch(event)

    def made(key):
        agg = make_aggregate(key)
        aggregate_done.add(agg.done)
        return agg

    env._dispatch = logged
    net._make_aggregate = made
    return log


def run_script(flows: Sequence[tuple], actions: Sequence[tuple],
               timeout: float, poll: Optional[float], aggregate: bool,
               reference: bool, horizon: float = 400.0) -> dict:
    """Run one fault script; returns what the twins must agree on.

    ``flows``: ``(src, dst, nbytes, cap, start)`` each. ``actions``:
    ``("down"|"up", link, t)``, ``("cap", flow index, cap, t)`` or
    ``("abort", flow index, t)``; an action on a flow not yet started
    or already ended does nothing.
    """
    env = Environment(seed=5)
    topo = Topology()
    topo.duplex_link("A", "R", 100.0, 0.001)
    topo.duplex_link("R", "B", 60.0, 0.001)
    topo.duplex_link("C", "R", 80.0, 0.001)
    net = FluidNetwork(env, topo, aggregation_threshold=2 if aggregate
                       else None)
    transport = Transport(env, net)
    params = TcpParams(stall_timeout=timeout, stall_poll=poll)
    log = record_dispatch(env, net)
    started: Dict[int, object] = {}
    outcome: Dict[int, tuple] = {}

    def watcher(i, flow, conn):
        try:
            yield from conn.watch(flow)
            outcome[i] = ("done", env.now)
        except FlowError as exc:
            outcome[i] = ("aborted", env.now, str(exc))

    def start(i, src, dst, nbytes, cap):
        flow = net.transfer(src, dst, nbytes, cap=cap)
        started[i] = flow
        conn = Connection(transport, src, dst, params,
                          TcpStream(env, 0.002, params))
        env.process(watcher(i, flow, conn))

    def act(action):
        kind = action[0]
        if kind in ("down", "up"):
            link = topo.links[action[1]]
            link.set_down() if kind == "down" else link.restore()
            net.link_updated(link)
            return
        flow = started.get(action[1])
        if flow is None or not flow.active:
            return
        if kind == "cap":
            flow.set_cap(action[2])
        else:
            flow.abort("aborted mid-window")

    for i, (src, dst, nbytes, cap, t) in enumerate(flows):
        env.call_later(t, lambda i=i, s=src, d=dst, n=nbytes, c=cap:
                       start(i, s, d, n, c))
    for action in actions:
        env.call_later(action[-1], lambda a=action: act(a))
    with reference_polling() if reference else nullcontext():
        env.run(until=horizon)
    return {
        "outcome": outcome,
        "transferred": {i: f.transferred for i, f in started.items()},
        "dispatched": log,
        "aggregates": net.aggregates_created,
    }


def twins(*args, **kwargs) -> Tuple[dict, dict]:
    """The script on the watchdog and on the polling reference."""
    return (run_script(*args, reference=False, **kwargs),
            run_script(*args, reference=True, **kwargs))


half_seconds = st.integers(0, 120).map(lambda k: k / 2.0)
flow_spec = st.tuples(st.sampled_from(PATHS), st.integers(50, 4000),
                      st.sampled_from([10.0, 25.0, 40.0, math.inf]),
                      half_seconds).map(
                          lambda f: (*f[0], float(f[1]), f[2], f[3]))
action_spec = st.one_of(
    st.tuples(st.sampled_from(["down", "up"]), st.sampled_from(LINKS),
              half_seconds),
    st.tuples(st.just("cap"), st.integers(0, 5),
              st.sampled_from([0.0, 5.0, 30.0, math.inf]), half_seconds),
    st.tuples(st.just("abort"), st.integers(0, 5), half_seconds),
)


@settings(max_examples=250, deadline=None)
@given(flows=st.lists(flow_spec, min_size=1, max_size=6),
       actions=st.lists(action_spec, max_size=10),
       timeout=st.sampled_from([3.0, 6.0, 10.0, 30.0]),
       poll=st.sampled_from([None, 1.0, 2.0, 2.5, 4.0]),
       aggregate=st.booleans())
def test_watchdog_matches_polling_loop(flows, actions, timeout, poll,
                                       aggregate):
    ours, ref = twins(flows, actions, timeout, poll, aggregate)
    assert ours["outcome"] == ref["outcome"]
    assert ours["transferred"] == ref["transferred"]
    assert ours["dispatched"] == ref["dispatched"]
    assert ours["aggregates"] == ref["aggregates"]


def test_scripts_abort_and_aggregate():
    """The generated scripts reach the cases the twins compare."""
    flows = [("A", "B", 2000.0, 25.0, 0.0), ("A", "B", 2000.0, 25.0, 0.5),
             ("A", "B", 2000.0, 25.0, 1.0)]
    actions = [("down", "R<->B:fwd", 5.0), ("up", "R<->B:fwd", 7.0),
               ("cap", 1, 0.0, 8.0), ("down", "A<->R:fwd", 20.0)]
    ours, ref = twins(flows, actions, 6.0, 2.0, True)
    assert ours == ref
    assert ours["aggregates"] == 1
    kinds = sorted(o[0] for o in ours["outcome"].values())
    assert kinds == ["aborted"] * 3


# -- the request manager over a faulted fleet --------------------------------

def _fleet(reference: bool):
    from repro.net import FaultSchedule
    from repro.scenarios import EsgTestbed
    from repro.scenarios.esg import fleet_config
    with reference_polling(poll_max=60.0) if reference else nullcontext():
        tb = EsgTestbed(seed=31, with_tape=False,
                        file_size_override=64 * 2**20,
                        aggregation_threshold=2)
        tb.warm_nws(90.0)
        rms = tb.add_fleet(24, users_per_pop=8, config=fleet_config())
        # One PoP's uplink dies for longer than the stall timeout, one
        # for less: aborts, restarts and resumed streams.
        tb.fault_injector().install(
            FaultSchedule()
            .link_outage("wan-pop0:rev", start=3.0, duration=200.0)
            .link_outage("wan-pop1:rev", start=4.0, duration=50.0))
        ds = tb.dataset_ids()[0]
        names = tb.metadata_catalog.resolve(ds, "tas")[:3]
        log = record_dispatch(tb.env, tb.network)
        tickets = [rm.submit([(ds, names[i % 3])])
                   for i, rm in enumerate(rms)]
        tb.env.run(until=tb.env.all_of([t.done for t in tickets]))
    files = [(f.logical_file, f.state, f.bytes_done, f.size, f.restarts,
              f.finished_at, f.error) for t in tickets for f in t.files]
    records = [(r.t, r.event, sorted(r.fields.items()))
               for r in tb.logger.records]
    return files, records, log


def test_request_manager_matches_sampling_every_attempt():
    ours, ref = _fleet(False), _fleet(True)
    files, records, log = ours
    assert files == ref[0]
    assert records == ref[1]
    assert sorted(log) == sorted(ref[2])
    # The script exercised what it is for: stalled streams restarted.
    assert any(restarts for *_, restarts, _, _ in files)
