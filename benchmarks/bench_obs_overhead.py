"""Observability overhead — instrumentation must be close to free.

The tentpole claim for ``repro.obs``: wiring metrics + ULM events
through the hot transfer path costs < 5% wall time on the Table 1
schedule. The ULM log is the one event stream: the tracer records
nothing while the run goes and rebuilds spans from the log only when
read, so it adds no cost here. Components always hold a bundle: the
bare run's client and servers carry the unwired ``Observability()``,
whose emit helpers return after one leg check, so both runs make the
same calls. Events/counters do no simulation yields, so the schedule's
event count is identical with and without a wired bundle.

Measured as best-of-N wall time for the same seeded ScinetTestbed run,
with the wired bundle attached post-construction (the testbed itself
takes no code path differences).
"""

import time

from repro.obs import Observability
from repro.scenarios import ScinetTestbed, run_table1_schedule

from benchmarks.conftest import record, run_once

DURATION = 90.0      # sim seconds of the Table 1 schedule
ROUNDS = 3           # best-of to shave scheduler noise


def _run(with_obs: bool):
    testbed = ScinetTestbed(seed=3)
    obs = None
    if with_obs:
        obs = Observability.create(testbed.env, host="scinet",
                                   prog="table1")
        testbed.client.obs = obs
        for server in testbed.servers:
            server.obs = obs
    t0 = time.perf_counter()
    run_table1_schedule(testbed, duration=DURATION)
    return time.perf_counter() - t0, obs


def test_obs_overhead_under_five_percent(benchmark, show):
    def run():
        bare = min(_run(with_obs=False)[0] for _ in range(ROUNDS))
        timed = [_run(with_obs=True) for _ in range(ROUNDS)]
        instrumented = min(t for t, _ in timed)
        return bare, instrumented, timed[0][1]

    bare, instrumented, obs = run_once(benchmark, run)
    overhead_pct = 100.0 * (instrumented - bare) / bare
    show()
    show("=== observability overhead (Table 1 schedule) ===")
    show(f"  bare:         {bare:8.3f} s")
    show(f"  instrumented: {instrumented:8.3f} s")
    show(f"  overhead:     {overhead_pct:+7.2f} %")
    show(f"  events={obs.logger.emitted} "
         f"metrics={len(obs.metrics.names())}")
    record(benchmark,
           bare_wall_s=round(bare, 4),
           instrumented_wall_s=round(instrumented, 4),
           overhead_pct=round(overhead_pct, 2))

    # The instrumentation must actually observe the run...
    assert obs.logger.emitted > 0
    assert obs.metrics.counter("gridftp.transfers_total").total > 0
    # ...and stay under the 5% wall-time budget.
    assert overhead_pct < 5.0
