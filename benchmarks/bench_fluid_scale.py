"""Infrastructure bench — allocator scaling curve (not a paper figure).

Wall-time to simulate the same cap-churn workload under the incremental
allocator versus the ``ReferenceFluidNetwork`` test oracle (full
recompute on every change),
across growing flow counts. The workload is many disjoint site
components, so the incremental allocator touches only the disturbed
component per change while the reference allocator refills the world —
the gap is the point. Results are written to ``BENCH_fluid_scale.json``
at the repo root so the scale curve is versioned alongside the code.

Set ``REPRO_SCALE_COUNTS=32,96`` (comma-separated flow counts) to run a
reduced sweep, e.g. for CI smoke.
"""

import json
import os
import time
from pathlib import Path

from repro.net import FluidNetwork, Topology, mbps
from repro.sim import Environment

from benchmarks.conftest import record, run_once
from tests.net.reference_fluid import ReferenceFluidNetwork

N_COMPONENTS = 16          # disjoint site stars (>= 8 per the guard)
HORIZON = 4.0              # simulated seconds per run
CHURN_PERIOD = 0.011       # per-churner cap step, ~32-stream cadence
FLOW_COUNTS = (32, 96, 208, 304)
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_fluid_scale.json"


def _counts():
    env_counts = os.environ.get("REPRO_SCALE_COUNTS")
    if env_counts:
        return tuple(int(c) for c in env_counts.split(","))
    return FLOW_COUNTS


def build_and_run(n_flows: int, network_cls):
    """One churny workload; returns (wall_seconds, final_rates, net)."""
    env = Environment(seed=7)
    topo = Topology()
    for c in range(N_COMPONENTS):
        for h in range(4):
            topo.duplex_link(f"c{c}h{h}", f"c{c}core",
                             mbps(800 + 40 * c), 0.001)
    net = network_cls(env, topo)
    flows = []
    for i in range(n_flows):
        c = i % N_COMPONENTS
        f = net.transfer(f"c{c}h{i % 4}", f"c{c}h{(i + 1) % 4}", 1e15,
                         cap=mbps(25 + i % 40), name=f"f{i}")
        f.done.defuse()
        flows.append(f)

    def churner(env, flow, period, base):
        k = 0
        while True:
            yield env.timeout(period)
            k += 1
            flow.set_cap(mbps(base + (k % 11) * 9))

    # Two churners per component, plus a stream of short finite flows so
    # the completion path is exercised too.
    for c in range(N_COMPONENTS):
        mine = flows[c::N_COMPONENTS]
        for j, f in enumerate(mine[:2]):
            env.process(churner(env, f, CHURN_PERIOD + 1e-4 * c,
                                20 + 5 * j))

    def injector(env, c):
        k = 0
        while True:
            yield env.timeout(0.25)
            k += 1
            f = net.transfer(f"c{c}h{k % 4}", f"c{c}core",
                             mbps(5) * 0.05, name=f"s{c}.{k}")
            f.done.defuse()

    for c in range(N_COMPONENTS):
        env.process(injector(env, c))

    t0 = time.perf_counter()
    env.run(until=HORIZON)
    wall = time.perf_counter() - t0
    rates = {f.name: f.rate for f in flows}
    return wall, rates, net


def test_fluid_scale_curve(benchmark, show):
    counts = _counts()

    def run():
        rows = []
        for n in counts:
            wall_inc, rates_inc, net_inc = build_and_run(n, FluidNetwork)
            wall_ref, rates_ref, _ = build_and_run(n, ReferenceFluidNetwork)
            # Differential check rides along: same workload, same rates.
            for name, r_inc in rates_inc.items():
                r_ref = rates_ref[name]
                assert abs(r_inc - r_ref) <= max(abs(r_ref) * 1e-6, 1e-3)
            rows.append({
                "flows": n,
                "components": N_COMPONENTS,
                "incremental_s": round(wall_inc, 3),
                "reference_s": round(wall_ref, 3),
                "speedup": round(wall_ref / wall_inc, 2),
                "reallocations": net_inc.reallocations,
            })
        return rows

    rows = run_once(benchmark, run)
    show()
    show("=== Fluid allocator scaling (incremental vs reference) ===")
    show(f"  {'flows':>6} {'incr(s)':>8} {'ref(s)':>8} {'speedup':>8}")
    for r in rows:
        show(f"  {r['flows']:>6} {r['incremental_s']:>8.3f} "
             f"{r['reference_s']:>8.3f} {r['speedup']:>7.2f}x")

    OUT_PATH.write_text(json.dumps({
        "workload": {
            "components": N_COMPONENTS, "horizon_s": HORIZON,
            "churn_period_s": CHURN_PERIOD,
        },
        "rows": rows,
    }, indent=2) + "\n")
    record(benchmark, rows=rows)

    # Small workloads must not regress: the incremental bookkeeping may
    # not cost more than a modest constant over the full recompute.
    assert rows[0]["incremental_s"] <= rows[0]["reference_s"] * 1.5
    # At >= 200 flows across >= 8 disjoint components, component scoping
    # must pay for itself at least 3x.
    big = [r for r in rows if r["flows"] >= 200]
    for r in big:
        assert r["speedup"] >= 3.0, (
            f"only {r['speedup']}x at {r['flows']} flows")
