"""The callback TCP window driver against the generator oracle.

Twin same-seed environments run identical transfer scripts, one on
:class:`~repro.net.tcp.TcpStream` (kernel callbacks) and one on
:class:`tests.net.reference_tcp.ReferenceTcpStream` (a process per
flow). Both must pass bit-identical ``(env.now, cap)`` sequences to
``set_cap``, leave the same ``cwnd`` and loss count, draw the same loss
gaps and finish every flow at the same instant. The reference dispatches
exactly one event more per driven flow, its process's completion; with
those left out, both dispatch the same sequence of (time, priority).
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowError, FluidNetwork, TcpParams, TcpStream, Topology, mbps
from repro.net import tcp
from repro.sim import Environment, Process
from tests.net.reference_tcp import ReferenceTcpStream

MSS = 1460.0


class CountingRng:
    """Loss-gap generator that counts its draws."""

    def __init__(self, gen):
        self.gen = gen
        self.draws = 0

    def exponential(self, scale):
        self.draws += 1
        return self.gen.exponential(scale)


def record_dispatch(env):
    """Log (time, priority) of every event ``env`` dispatches except the
    reference driver's process completions."""
    trace = []
    dispatch = env._dispatch

    def traced(event):
        if not (isinstance(event, Process)
                and event.name == "_window_process"):
            trace.append((event._t, event._prio))
        dispatch(event)

    env._dispatch = traced
    return trace


def run_script(stream_cls, case):
    """Run ``case`` with ``stream_cls`` driving every window; return
    everything the twins must agree on."""
    env = Environment(seed=case["seed"])
    trace = record_dispatch(env)
    topo = Topology()
    topo.duplex_link("A", "B", capacity=case["capacity"],
                     latency=case["rtt"] / 2)
    net = FluidNetwork(env, topo, aggregation_threshold=(
        2 if case["aggregated"] else None))
    caps = []

    def recording(set_cap):
        def wrapper(flow, cap):
            caps.append((env.now, flow.name, cap))
            set_cap(flow, cap)
        return wrapper

    net.set_cap = recording(net.set_cap)
    net.member_set_cap = recording(net.member_set_cap)
    if case["aggregated"]:
        # One eligible exact flow on the path: every later capped
        # transfer joins an aggregate as a member.
        net.transfer("A", "B", 4e6, cap=mbps(50), name="background")

    streams, flows = [], []

    def user(i, stream, transfers):
        for j, (size, abort_after) in enumerate(transfers):
            flow = net.transfer("A", "B", size, cap=stream.window_cap,
                                name=f"s{i}.{j}")
            flows.append(flow)
            stream.drive(flow)
            if abort_after is not None:
                env.process(aborter(flow, abort_after))
            try:
                yield flow.done
            except FlowError:
                pass

    def aborter(flow, delay):
        yield env.timeout(delay)
        flow.abort()

    # The initial window and the recovery step count are module
    # constants; the twins run at the case's values of both.
    with mock.patch.object(tcp, "INIT_CWND_SEGMENTS", case["init_segments"]), \
            mock.patch.object(tcp, "RECOVERY_STEPS", case["recovery_steps"]):
        for i, spec in enumerate(case["streams"]):
            params = TcpParams(mss=MSS, buffer_bytes=case["buffer"],
                               loss_rate=spec["loss_rate"])
            rng = (CountingRng(env.rng.spawn("loss", i))
                   if spec["loss_rate"] > 0 else None)
            stream = stream_cls(env, case["rtt"], params, rng=rng)
            if spec["warm"] is not None:
                stream.cwnd = MSS + spec["warm"] * (case["buffer"] - MSS)
            streams.append(stream)
            env.process(user(i, stream, spec["transfers"]))
        env.run()
    return {
        "caps": caps,
        "windows": [(s.cwnd, s.losses, s.rng.draws if s.rng else 0)
                    for s in streams],
        "finished": [(f.name, f.finished_at) for f in flows],
        "trace": trace,
        "drives": len(flows),
        "dispatched": env.kernel_stats["events_dispatched"],
    }


def assert_twins_agree(case):
    ref = run_script(ReferenceTcpStream, case)
    new = run_script(TcpStream, case)
    assert new["caps"] == ref["caps"]
    assert new["windows"] == ref["windows"]
    assert new["finished"] == ref["finished"]
    assert new["trace"] == ref["trace"]
    # Only the reference's process completion events disappear.
    assert ref["dispatched"] - new["dispatched"] == ref["drives"]
    return ref


transfers = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e3, 3e6)),
              st.one_of(st.none(), st.floats(0.0, 2.0))),
    min_size=1, max_size=3)

stream_specs = st.fixed_dictionaries({
    "loss_rate": st.one_of(st.just(0.0), st.floats(0.2, 30.0)),
    # None: a cold stream at the initial window; else the fraction of
    # the way from one MSS to the buffer a warm window starts at.
    "warm": st.one_of(st.none(), st.floats(0.0, 1.0)),
    "transfers": transfers,
})

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "capacity": st.floats(mbps(10), mbps(1000)),
    "rtt": st.floats(0.002, 0.2),
    # A one-MSS buffer leaves no deficit after a loss: zero recovery
    # steps, straight to the next loss-gap draw.
    "buffer": st.one_of(st.just(MSS), st.floats(MSS, 4e6)),
    "init_segments": st.integers(1, 10),
    "recovery_steps": st.integers(1, 8),
    "aggregated": st.booleans(),
    "streams": st.lists(stream_specs, min_size=1, max_size=3),
})


@given(cases)
@settings(max_examples=150, deadline=None)
def test_callback_driver_matches_generator(case):
    assert_twins_agree(case)


def lossy_case(abort_after=None, aggregated=False):
    return {
        "seed": 5, "capacity": mbps(622), "rtt": 0.05, "buffer": 1 << 20,
        "init_segments": 2, "recovery_steps": 6, "aggregated": aggregated,
        "streams": [{"loss_rate": 2.0, "warm": None,
                     "transfers": [(40e6, abort_after)]}],
    }


def test_aborts_mid_ramp_and_mid_recovery():
    """Aborts placed between two caps of a slow-start ramp and of a
    loss recovery, found from an undisturbed reference run."""
    for aggregated in (False, True):
        caps = assert_twins_agree(lossy_case(aggregated=aggregated))["caps"]
        times = [t for t, _name, _cap in caps]
        values = [cap for _t, _name, cap in caps]
        ramp = (times[1] + times[2]) / 2
        loss = next(k for k in range(1, len(values))
                    if values[k] < values[k - 1])
        assert times[loss + 1] > times[loss]  # a recovery step follows
        recovery = (times[loss] + times[loss + 1]) / 2
        for abort_after in (ramp, recovery):
            ref = assert_twins_agree(lossy_case(abort_after, aggregated))
            assert ref["caps"][-1][0] < abort_after
