"""Extension bench — community-scale access (the abstract's premise).

"A new class of Data Grid infrastructure is required to support
management, transport, distributed access to, and analysis of these
datasets by potentially thousands of users." Two harnesses:

``test_user_scaling`` (the original shared-services study) attaches
independent ``add_client`` user sites and shows catalog load scaling
linearly while per-user makespan degrades sublinearly.

``test_fleet_scaling_sweep`` pushes the fleet-construction fast path —
``add_fleet`` PoP grouping and fluid flow aggregation — through
n = 10² to 10⁴ users (10⁵ with ``REPRO_USER_SCALING_FULL=1``),
recording wall time, events/sec, and peak RSS per row to
``BENCH_user_scaling.json`` at the repo root. An exact-flow baseline
at the same n anchors the speedup claim (>= 10x events/sec at
n >= 10³), and ``test_fleet_aggregation_differential`` proves the
aggregate fluid model agrees with the exact per-flow model (per-user
makespans within 1% at n = 48).

Env knobs for CI smoke: ``REPRO_USER_SCALING_COUNTS=100,1000``
(comma-separated sweep), ``REPRO_USER_SCALING_WALL_GATE=240`` (seconds
allowed for the n = 10⁴ row; 0 disables the gate).
"""

import json
import os
import resource
import time
from pathlib import Path

from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config

from benchmarks.conftest import record, run_once

FILES_PER_USER = 3
SIZE = 24 * 2**20

FLEET_SIZE = 8 * 2**20      # bytes per user in the fleet sweep
FLEET_SWEEP = (100, 1000, 2000, 10000)
BASELINE_N = 2000           # exact-flow anchor for the speedup gate
USERS_PER_POP = 64
AGG_THRESHOLD = 2
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_user_scaling.json"


def fleet_run(n_users: int):
    tb = EsgTestbed(seed=31, file_size_override=SIZE)
    tb.warm_nws(90.0)
    rms = [tb.add_client(f"user{i}") for i in range(n_users)]
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:FILES_PER_USER]
    ops_before = tb.replica_catalog.directory.operations
    t0 = tb.env.now
    tickets = [rm.submit([(ds, n) for n in names]) for rm in rms]
    for t in tickets:
        tb.env.run(until=t.done)
    assert all(not t.failed_files for t in tickets)
    makespans = [max(f.finished_at for f in t.files) - t.submitted_at
                 for t in tickets]
    total_bytes = sum(t.bytes_done for t in tickets)
    wall = tb.env.now - t0
    return {
        "mean_makespan": sum(makespans) / len(makespans),
        "worst_makespan": max(makespans),
        "aggregate_mbps": total_bytes / wall * 8 / 1e6,
        "catalog_ops": tb.replica_catalog.directory.operations
        - ops_before,
    }


def test_user_scaling(benchmark, show):
    def run():
        return {n: fleet_run(n) for n in (1, 4, 12, 48)}

    results = run_once(benchmark, run)
    show()
    show(f"=== User scaling: {FILES_PER_USER} x {SIZE // 2**20} MiB "
         f"per user ===")
    show(f"  {'users':>6} {'mean(s)':>9} {'worst(s)':>9} "
         f"{'agg Mb/s':>9} {'catalog ops':>12}")
    for n, r in results.items():
        show(f"  {n:>6} {r['mean_makespan']:>9.1f} "
             f"{r['worst_makespan']:>9.1f} {r['aggregate_mbps']:>9.1f} "
             f"{r['catalog_ops']:>12}")
    record(benchmark, results={
        n: {k: round(v, 1) for k, v in r.items()}
        for n, r in results.items()})

    # Catalog load scales linearly with users (one lookup per file)...
    assert results[12]["catalog_ops"] >= 10 * results[1]["catalog_ops"]
    # ...aggregate delivered bandwidth grows with the fleet...
    assert results[4]["aggregate_mbps"] > 2 * results[1]["aggregate_mbps"]
    assert results[12]["aggregate_mbps"] > results[4]["aggregate_mbps"]
    # ...and per-user latency degrades sublinearly (replicas spread load).
    assert results[12]["mean_makespan"] < 6 * results[1]["mean_makespan"]
    # At community scale (48 users) the fleet still moves more aggregate
    # traffic than at 12, and catalog load stays linear in users.
    assert results[48]["aggregate_mbps"] >= results[12]["aggregate_mbps"]
    assert results[48]["catalog_ops"] >= 3 * results[12]["catalog_ops"]


# -- fleet fast path (flow aggregation) ---------------------------------------

def _sweep():
    env_counts = os.environ.get("REPRO_USER_SCALING_COUNTS")
    if env_counts:
        return tuple(int(c) for c in env_counts.split(","))
    sweep = list(FLEET_SWEEP)
    if os.environ.get("REPRO_USER_SCALING_FULL"):
        sweep.append(100_000)
    return tuple(sweep)


def _rss_mib():
    """(current, peak-so-far) resident set in MiB, stdlib only."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    current = pages * resource.getpagesize() / 2**20
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return current, peak


def pop_fleet_run(n_users: int, aggregation=AGG_THRESHOLD, seed: int = 31,
                  size: int = FLEET_SIZE):
    """One PoP-grouped fleet request wave; every user pulls one file.

    ``aggregation=None`` runs every transfer as an exact fluid flow.
    """
    tb = EsgTestbed(seed=seed, file_size_override=size,
                    with_tape=False, aggregation_threshold=aggregation,
                    log_capacity=4096)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(n_users, users_per_pop=USERS_PER_POP,
                       config=fleet_config())
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:1]
    t0 = time.perf_counter()
    tickets = [rm.submit([(ds, n) for n in names]) for rm in rms]
    for t in tickets:
        tb.env.run(until=t.done)
    wall = time.perf_counter() - t0
    assert all(not t.failed_files for t in tickets)
    makespans = [max(f.finished_at for f in t.files) - t.submitted_at
                 for t in tickets]
    stats = tb.env.kernel_stats
    rss_now, rss_peak = _rss_mib()
    return {
        "users": n_users,
        "aggregation": aggregation,
        "wall_s": round(wall, 2),
        "events": stats["events_dispatched"],
        "events_per_s": round(stats["events_dispatched"] / wall),
        "mean_makespan_s": round(sum(makespans) / len(makespans), 3),
        "worst_makespan_s": round(max(makespans), 3),
        "makespans": makespans,
        "aggregates": tb.network.aggregates_created,
        "aggregate_joins": tb.network.aggregate_joins,
        "rss_mib": round(rss_now, 1),
        "peak_rss_mib": round(rss_peak, 1),
    }


def test_fleet_aggregation_differential(benchmark, show):
    """Aggregate fluid classes must reproduce the exact per-flow model.

    At n = 48 the run is cheap enough to do twice: with aggregation
    and exact. Per-user makespans must agree within 1%.
    """
    def run():
        agg = pop_fleet_run(48)
        exact = pop_fleet_run(48, aggregation=None)
        return agg, exact

    agg, exact = run_once(benchmark, run)
    assert agg["aggregates"] > 0, "aggregation never engaged at n=48"
    worst = 0.0
    for m_agg, m_exact in zip(agg["makespans"], exact["makespans"]):
        delta = abs(m_agg - m_exact) / m_exact
        worst = max(worst, delta)
        assert delta <= 0.01, (
            f"aggregate makespan {m_agg:.3f}s vs exact {m_exact:.3f}s "
            f"({delta * 100:.2f}% off)")
    show()
    show("=== Aggregation differential (n=48) ===")
    show(f"  worst per-user makespan delta: {worst * 100:.4f}%")
    record(benchmark, worst_delta_pct=round(worst * 100, 4),
           aggregates=agg["aggregates"])


def test_fleet_scaling_sweep(benchmark, show):
    counts = _sweep()
    wall_gate = float(os.environ.get("REPRO_USER_SCALING_WALL_GATE", 240))

    def run():
        rows = [pop_fleet_run(n) for n in counts]
        baseline_n = min(BASELINE_N, max(counts))
        baseline = pop_fleet_run(baseline_n, aggregation=None)
        return rows, baseline

    rows, baseline = run_once(benchmark, run)
    show()
    show(f"=== Fleet scaling: 1 x {FLEET_SIZE // 2**20} MiB per user, "
         f"{USERS_PER_POP} users/PoP ===")
    show(f"  {'users':>7} {'flows':>9} {'wall(s)':>8} {'events':>9} "
         f"{'ev/s':>7} {'mean mk(s)':>10} {'RSS MiB':>8}")
    for r in rows + [baseline]:
        label = "aggregate" if r["aggregation"] else "exact"
        show(f"  {r['users']:>7} {label:>9} {r['wall_s']:>8.2f} "
             f"{r['events']:>9} {r['events_per_s']:>7} "
             f"{r['mean_makespan_s']:>10.1f} {r['rss_mib']:>8.1f}")

    def strip(r):
        return {k: v for k, v in r.items() if k != "makespans"}

    OUT_PATH.write_text(json.dumps({
        "workload": {
            "bytes_per_user": FLEET_SIZE,
            "users_per_pop": USERS_PER_POP,
            "aggregation_threshold": AGG_THRESHOLD,
            "baseline": f"queue=heap, exact flows, n={baseline['users']}",
        },
        "rows": [strip(r) for r in rows],
        "baseline": strip(baseline),
    }, indent=2) + "\n")
    record(benchmark, rows=[strip(r) for r in rows],
           baseline=strip(baseline))

    by_n = {r["users"]: r for r in rows}
    # The fast path must hold >= 10x the baseline's events/sec at fleet
    # scale (n >= 10^3): aggregation keeps the allocator out of the
    # O(flows) regime.
    # Prefer the row at the baseline's own n (identical workload);
    # fall back to the best comparable row on reduced CI sweeps.
    peer = by_n.get(baseline["users"])
    comparable = [peer] if peer else [
        r for r in rows if r["users"] >= 1000]
    if comparable and baseline["users"] >= BASELINE_N:
        fast = max(r["events_per_s"] for r in comparable)
        floor = 10 * baseline["events_per_s"]
        assert fast >= floor, (
            f"fast path {fast} ev/s < 10x baseline "
            f"{baseline['events_per_s']} ev/s")
    # Bounded wall time at n = 10^4 — the headline scaling claim.
    if wall_gate and 10_000 in by_n:
        assert by_n[10_000]["wall_s"] <= wall_gate, (
            f"n=10^4 took {by_n[10_000]['wall_s']}s > {wall_gate}s gate")
    # Aggregation must actually engage in every fleet row.
    for r in rows:
        assert r["aggregates"] > 0, f"no aggregation at n={r['users']}"
