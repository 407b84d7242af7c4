"""Chaos survival — randomized fault schedules against the ESG testbed.

The Figure 8 run survived a power failure, DNS problems, and backbone
faults; this bench generalizes that to the *control plane*. Each seed
draws a randomized schedule (link outages, a GridFTP server crash,
MDS and replica-catalog outage windows, an HRM failure, a degraded
backbone link) from a named sim RNG stream and slams it into a
multi-file request running under the hardened Request Manager pipeline
(retry-with-backoff, circuit breakers, deadlines, degraded-mode
ranking).

Invariant under test: **every submitted file reaches DONE, FAILED (with
a typed FailureClass), or CANCELLED before its deadline — no file
thread left pending when the simulation drains.** Outcomes are
deterministic per seed (jitter comes from named RNG streams).

``REPRO_CHAOS_SEEDS=N`` limits the run to the first N seeds (CI smoke).
"""

import os

import pytest

from repro.net.faults import FaultSchedule
from repro.netlogger import extract_fault_windows
from repro.rm.request import FileState
from repro.rm.resilience import ResiliencePolicy, RetryPolicy
from repro.scenarios.esg import EsgTestbed

from benchmarks.conftest import record, run_once

SEEDS = [11, 23, 37, 41, 53]
_limit = os.environ.get("REPRO_CHAOS_SEEDS")
if _limit:
    SEEDS = SEEDS[:max(1, int(_limit))]

FILE_DEADLINE = 450.0   # seconds from submit, per file
HORIZON = 1800.0        # run the sim this far past submit
FILE_SIZE = 48 * 2**20  # bytes per catalog file

_TERMINAL = (FileState.DONE, FileState.FAILED, FileState.CANCELLED)


def random_schedule(tb: EsgTestbed) -> FaultSchedule:
    """Draw a randomized fault schedule from the testbed's RNG.

    The draws come from the named stream ``chaos.schedule``, so the
    schedule is a pure function of the testbed seed and never perturbs
    the other simulation streams (NWS probes, loss processes, jitter).
    """
    rng = tb.env.rng.stream("chaos.schedule")
    sites = sorted(tb.sites)
    hosts = sorted(tb.registry)

    def u(lo: float, hi: float) -> float:
        return float(rng.uniform(lo, hi))

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    sched = FaultSchedule()
    for _ in range(2):
        site = pick(sites)
        sched.link_outage(f"wan-{site}:fwd", u(5.0, 300.0), u(60.0, 300.0),
                          description=f"{site} uplink outage")
    if rng.random() < 0.5:
        # The user's own downlink goes dark: everything stalls; restart
        # markers and deadlines decide which files still make it.
        sched.link_outage("wan-client:rev", u(20.0, 200.0), u(120.0, 420.0),
                          description="client downlink outage")
    sched.degrade(f"wan-{pick(sites)}:fwd", u(5.0, 300.0), u(120.0, 400.0),
                  fraction=u(0.05, 0.4), description="backbone degraded")
    for _ in range(2):
        sched.server_outage(pick(hosts), u(5.0, 300.0), u(60.0, 300.0),
                            description="gridftp daemon crash")
    # Control-plane outages pinned near submit time, when the initial
    # lookup/rank burst happens — that is what degraded ranking and
    # retry rounds exist for.
    sched.mds_outage(0.0, u(60.0, 240.0), mode="fail",
                     description="MDS/GIIS outage")
    sched.catalog_outage(0.0, u(30.0, 90.0),
                         mode="hang" if rng.random() < 0.5 else "fail",
                         description="replica catalog outage")
    sched.hrm_outage("hrm-pdsf", u(5.0, 400.0), u(60.0, 300.0),
                     description="tape drive failure")
    return sched


def run_chaos(seed: int):
    """One chaos run; returns (testbed, ticket, schedule, injector)."""
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_rounds=4, base_delay=15.0, multiplier=2.0,
                          max_delay=60.0, jitter=0.25),
        breaker_failure_threshold=2, breaker_reset_timeout=120.0,
        file_deadline=FILE_DEADLINE)
    tb = EsgTestbed(seed=seed, years=1, with_tape=True,
                    file_size_override=FILE_SIZE, resilience=resilience)
    tb.warm_nws(120.0)
    sched = random_schedule(tb)
    inj = tb.fault_injector()
    inj.install(sched)
    requests = []
    for ds in tb.dataset_ids():
        requests += [(ds, str(f["logical_name"]))
                     for f in tb.datasets[ds][:6]]
    ticket = tb.request_manager.submit(requests)
    tb.env.run(until=tb.env.now + HORIZON)
    return tb, ticket, sched, inj


def fingerprint(ticket):
    """Deterministic per-file outcome tuple (for the determinism check)."""
    return tuple(
        (f.logical_file, f.state.value,
         f.failure_class.value if f.failure_class is not None else None,
         round(f.finished_at, 6) if f.finished_at is not None else None,
         round(f.bytes_done, 3), f.replica_switches, f.restarts,
         f.breaker_skips, f.degraded_rankings)
        for f in ticket.files)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_survival(benchmark, show, seed):
    tb, ticket, sched, inj = run_once(benchmark, lambda: run_chaos(seed))

    states = {}
    classes = {}
    for f in ticket.files:
        states[f.state.value] = states.get(f.state.value, 0) + 1
        if f.failure_class is not None:
            key = f.failure_class.value
            classes[key] = classes.get(key, 0) + 1
    board = ticket.breakers
    show()
    show(f"=== chaos seed {seed}: {len(sched)} faults, "
         f"{len(ticket.files)} files ===")
    for w in extract_fault_windows(tb.logger):
        show(f"  {w.start:7.1f}-{w.end:7.1f}s {w.kind} {w.target}: "
             f"{w.description}")
    show(f"  states {states}; failure classes {classes or '{}'}; "
         f"breaker trips {board.total_trips}, skips {board.total_skips}; "
         f"degraded rankings "
         f"{sum(f.degraded_rankings for f in ticket.files)}")
    record(benchmark, seed=seed, states=states, failure_classes=classes,
           breaker_trips=board.total_trips, breaker_skips=board.total_skips)

    # The survival contract: every file terminal, classified, on time.
    assert ticket.done.triggered and ticket.complete
    for f in ticket.files:
        assert f.state in _TERMINAL, \
            f"{f.logical_file} left {f.state.value}"
        assert f.finished_at is not None
        if f.deadline_at is not None:
            assert f.finished_at <= f.deadline_at + 1e-6, \
                f"{f.logical_file} finalized after its deadline"
        if f.state is FileState.FAILED:
            assert f.failure_class is not None, \
                f"{f.logical_file} failed unclassified: {f.error}"


def test_chaos_outcomes_deterministic(show):
    """Identical seed → identical per-file outcomes, to the microsecond."""
    _, first, _, _ = run_chaos(SEEDS[0])
    _, second, _, _ = run_chaos(SEEDS[0])
    assert fingerprint(first) == fingerprint(second)
    show(f"\n  seed {SEEDS[0]} reproduced "
         f"{len(fingerprint(first))} file outcomes exactly")
