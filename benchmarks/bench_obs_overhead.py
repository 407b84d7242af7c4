"""Observability overhead — wired instrumentation must be close to free.

The claim for ``repro.obs``: wiring ULM events and metrics through the
fleet request path costs < 5% of the run's wall time. The workload is
the PoP-grouped fleet wave of ``pop_fleet_run``
(``bench_extension_user_scaling.py``) at n = 2000 users, each pulling
one 8 MiB file, where the emit path runs about 33 times per user.

Method: one untimed warm-up pair, then ``PAIRS`` alternating pairs of
runs, the wired side first in even pairs and the unwired side first in
odd ones. Every run builds the same testbed after a full collection, so
no run inherits another's garbage. The unwired side then clears the
legs of the testbed's shared bundle before the run starts, so every
component holding it emits through the no-op ``event`` and the shared
no-op children: the same calls reach the bundle, and only the work
behind them is gone. Each run phase is timed between two
:class:`SpeedMeter` marks and corrected for the speed of the shared
core (``benchmarks/suite/speed.py``). The overhead is the median over
the pairs of the wired time over the unwired time, minus one. The
warm-up pair takes the first-touch cost of growing the heap, which
otherwise lands on the early pairs and hits the side that allocates
more. Instrumentation does no simulation yields, so both sides must
give the same makespans.
"""

import gc
import statistics

from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config

from benchmarks.conftest import record, run_once
from benchmarks.suite import speed

USERS = 2000
PAIRS = 20
SIZE = 8 * 2**20
USERS_PER_POP = 64


def _run(meter, wired: bool):
    """One fleet wave; returns (corrected run seconds, bundle, makespans)."""
    gc.collect()
    tb = EsgTestbed(seed=31, file_size_override=SIZE, with_tape=False,
                    aggregation_threshold=2, log_capacity=4096)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(USERS, users_per_pop=USERS_PER_POP,
                       config=fleet_config())
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:1]
    obs = tb.obs
    if not wired:
        obs.logger = obs.metrics = obs.tracer = None
    begin = meter.mark()
    tickets = [rm.submit([(ds, n) for n in names]) for rm in rms]
    for t in tickets:
        tb.env.run(until=t.done)
    end = meter.mark()
    assert all(not t.failed_files for t in tickets)
    makespans = [max(f.finished_at for f in t.files) - t.submitted_at
                 for t in tickets]
    return meter.corrected(begin, end), obs, makespans


def test_obs_overhead_under_five_percent(benchmark, show):
    def run():
        meter = speed.SpeedMeter()
        meter.start()
        try:
            # The warm-up pair; its wired bundle is the one checked
            # below, alive through every timed run on both sides.
            obs = _run(meter, True)[1]
            _run(meter, False)
            times = {True: [], False: []}
            makespans = {}
            for i in range(PAIRS):
                for wired in ((True, False) if i % 2 == 0
                              else (False, True)):
                    took, _, spans = _run(meter, wired)
                    times[wired].append(took)
                    makespans.setdefault(wired, spans)
        finally:
            meter.stop()
        return times, makespans, obs

    times, makespans, obs = run_once(benchmark, run)
    assert makespans[True] == makespans[False]
    bare = statistics.median(times[False])
    instrumented = statistics.median(times[True])
    overhead_pct = 100.0 * statistics.median(
        w / u - 1.0 for w, u in zip(times[True], times[False]))
    show()
    show(f"=== observability overhead (fleet wave, n={USERS}, "
         f"{PAIRS} pairs, corrected s) ===")
    for i, (w, u) in enumerate(zip(times[True], times[False])):
        show(f"  pair {i:2d}: wired {w:7.3f}  unwired {u:7.3f}  "
             f"{100.0 * (w / u - 1.0):+6.2f} %")
    show(f"  unwired median: {bare:8.3f} s")
    show(f"  wired median:   {instrumented:8.3f} s")
    show(f"  overhead:       {overhead_pct:+7.2f} % (median of pairs)")
    show(f"  events={obs.logger.emitted} "
         f"metrics={len(obs.metrics.names())}")
    record(benchmark,
           users=USERS, pairs=PAIRS,
           bare_run_s=round(bare, 4),
           instrumented_run_s=round(instrumented, 4),
           overhead_pct=round(overhead_pct, 2))

    # The instrumentation must actually observe the run...
    assert obs.logger.emitted > 0
    assert obs.metrics.counter("gridftp.transfers_total").total > 0
    # ...and stay under the 5% wall-time budget.
    assert overhead_pct < 5.0
