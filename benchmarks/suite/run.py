"""Benchmark suite for the simulator: four workloads, end-to-end
metrics, and a traced per-layer split.

Usage, from the repository root::

    python3 benchmarks/suite/run.py [--workload W] [--seed S]
        [--repeats N] [--seconds T] [--trace [0|1]] [--quick]
        [--stability] [--out FILE]

``PYTHONPATH=src python -m benchmarks.suite`` runs the same program.

Each repeat runs in a fresh child process (``child.py``), one child at
a time. Children run until ``--repeats`` have finished and the next
one would end past the run length: ``run_seconds`` from
``BENCHMARK.json`` unless ``--seconds`` restates it, and none with
``--quick``. Every end-to-end
metric is the median over the children, printed with its IQR.
``setup_s`` and ``run_s`` are wall times corrected for the speed of
the shared core the child ran on; see ``speed.py``.
``--trace`` (or ``--trace 1``; ``--trace 0`` is the same as leaving it
out) adds one child under ``cProfile`` that gives the per-layer split;
it is never used for end-to-end numbers. Every child of one seed must
give the same ``sim_digest``, or the run aborts.

The last line of standard output for each workload is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics, or with ``--trace`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from layers import ENTRY_POINTS, LAYERS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
CHILD = SUITE / "child.py"
SPEC = ROOT / "BENCHMARK.json"
DEADLINE_S = 170.0       # a whole invocation ends within this per workload

WORKLOADS = ("fleet_wave", "campaign_faulted", "portal_subset",
             "catalog_fanout")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}

COUNTERS = {
    "sim.events_dispatched": "count", "sim.events_cancelled": "count",
    "sim.queue_resident_end": "count", "net.flushes": "count",
    "net.reallocations": "count", "net.flows_recomputed": "count",
    "net.recompute_per_flush": "ratio", "gridftp.transfers_served": "count",
    "gridftp.eret_decoded_mib": "MiB", "gridftp.derived_hit_ratio": "ratio",
    "storage.tape_mounts": "count", "storage.stages": "count",
    "storage.range_staged": "count", "rm.sched_granted": "count",
    "rm.sched_rejected": "count", "campaign.journal_records": "count",
    "campaign.corruptions_caught": "count",
    "campaign.useful_byte_ratio": "ratio", "ldap.operations": "count",
    "ldap.entries_scanned": "count", "ldap.scanned_per_op": "ratio",
    "replica.replicated_ops": "count", "obs.spans_end": "count",
    "netlogger.emitted": "count", "netlogger.dropped": "count",
    "nws.probes_sent": "count",
}
# Host-time medians over the untraced children.
HOST = {"sim.events_per_s": "1/s", "replica.publish_per_s": "files/s",
        "replica.lookups_per_s": "lookups/s", "replica.lookup_p50_us": "us",
        "replica.lookup_p99_us": "us", "setup.import_s": "s",
        "setup.build_s": "s"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s", "trace.total_s": "s", "trace.overhead_ratio": "ratio",
    **{f"{ep}.calls": "count" for ep in ENTRY_POINTS},
    **{f"{ep}.cum_s": "s" for ep in ENTRY_POINTS},
    "net.aggregate_join_ratio": "ratio",
    **COUNTERS,
    **HOST,
}


class SuiteError(Exception):
    """A child failed or the repeats disagreed; no result is printed."""


def spawn(workload, seed, quick, trace, deadline) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SuiteError(f"{workload}: out of time before the next repeat")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise SuiteError(f"{workload}: repeat timed out") from exc
    if proc.returncode != 0:
        raise SuiteError(f"{workload}: repeat exited {proc.returncode}\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3); q1 == q3 == median for a single value."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(workload, seed, repeats, until, quick, deadline) -> list:
    """Untraced repeats until at least ``repeats`` have run and another
    one, as long as the last, would end past the monotonic time
    ``until``; returns their results."""
    children = []
    took = 0.0
    while len(children) < repeats or time.monotonic() + took <= until:
        started = time.monotonic()
        children.append(spawn(workload, seed, quick, False, deadline))
        took = time.monotonic() - started
    digests = {c["sim_digest"] for c in children}
    if len(digests) != 1:
        raise SuiteError(f"{workload}: sim_digest differs between repeats "
                         f"of one seed: {sorted(digests)}")
    return children


def end_to_end(children) -> dict:
    samples = {
        "setup_s": [c["corrected"]["setup_s"] for c in children],
        "run_s": [c["corrected"]["run_s"] for c in children],
        "peak_rss_mib": [c["peak_rss_mib"] for c in children],
    }
    return {name: spread(values) for name, values in samples.items()}


def per_layer(children, traced) -> dict:
    if traced["sim_digest"] != children[0]["sim_digest"]:
        raise SuiteError("traced run changed the sim_digest")
    split = traced["layers"]
    run_s = statistics.median(c["run_s"] for c in children)
    entry = traced["entry_points"]
    out = {f"{layer}.self_s": split[layer] for layer in LAYERS}
    out["other.self_s"] = split["other"]
    out["trace.total_s"] = split["total"]
    out["trace.overhead_ratio"] = traced["run_s"] / run_s
    out.update(entry)
    transfers = entry["net.transfer.calls"]
    out["net.aggregate_join_ratio"] = (
        traced["counters"]["net.aggregate_joins"] / transfers
        if transfers else 0.0)
    out.update({k: traced["counters"][k] for k in COUNTERS})
    host = [c.get("host", {}) for c in children]

    def median_of(key):
        return statistics.median(h.get(key, 0.0) for h in host)

    out["sim.events_per_s"] = statistics.median(
        c["counters"]["sim.events_dispatched"] / c["run_s"] for c in children)
    out["replica.publish_per_s"] = median_of("publish_per_s")
    out["replica.lookups_per_s"] = median_of("lookups_per_s")
    out["replica.lookup_p50_us"] = median_of("lookup_p50_us")
    out["replica.lookup_p99_us"] = median_of("lookup_p99_us")
    out["setup.import_s"] = statistics.median(c["import_s"] for c in children)
    out["setup.build_s"] = statistics.median(c["build_s"] for c in children)
    return out


def report(workload, children, e2e, layer) -> dict:
    """Print one workload's tables; returns the contract's result line."""
    first = children[0]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(f"== {workload}  seed {first['seed']}  repeats {len(children)}")
    print(f"  {'metric':<16} {'unit':<6} {'median':>12} {'IQR':>12}")
    for name, unit in END_TO_END.items():
        med, q1, q3 = e2e[name]
        print(f"  {name:<16} {unit:<6} {med:>12.4f} {q3 - q1:>12.4f}")
    print(f"  failed_frac      ratio  {failed / attempted:>12.4f}"
          f"   ({failed} of {attempted} operations)")
    kernel_us = statistics.median(c["kernel_s"] for c in children) * 1e6
    print(f"  speed kernel {kernel_us:.0f} us a sample (times are corrected "
          f"to {speed.REF_KERNEL_S * 1e6:.0f} us)")
    print(f"  sim_digest {first['sim_digest']}")
    for key, value in first["outputs"].items():
        print(f"  output {key} = {json.dumps(value)}")
    if layer is not None:
        print(f"  {'per-layer metric':<36} {'unit':<10} {'value':>14}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<36} {unit:<10} {layer[name]:>14.6g}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def stability(workload, seed, repeats, seconds, quick, deadline) -> dict:
    """Two sets of repeats of the same code; IQR/median per set and the
    difference between the two set medians."""
    sets = [measure(workload, seed, repeats, time.monotonic() + seconds,
                    quick, deadline) for _ in range(2)]
    if sets[0][0]["sim_digest"] != sets[1][0]["sim_digest"]:
        raise SuiteError(f"{workload}: sim_digest differs between sets")
    print(f"== {workload} stability: two sets of {repeats} repeats")
    print(f"  {'metric':<16} {'median 1':>10} {'IQR/med 1':>10} "
          f"{'median 2':>10} {'IQR/med 2':>10} {'diff':>8}")
    rows = {}
    for name in END_TO_END:
        (m1, a1, b1), (m2, a2, b2) = (end_to_end(s)[name] for s in sets)
        row = rows[name] = {"median": [m1, m2],
                            "iqr_ratio": [(b1 - a1) / m1, (b2 - a2) / m2],
                            "diff": (m2 - m1) / m1}
        print(f"  {name:<16} {m1:>10.4f} {row['iqr_ratio'][0]:>10.4f} "
              f"{m2:>10.4f} {row['iqr_ratio'][1]:>10.4f} "
              f"{row['diff']:>+8.4f}")
    return rows


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark suite: four simulator workloads.")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum untraced repeats (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default run_seconds from "
                             "BENCHMARK.json, or 0 with --quick")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add a profiled run and print per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="scale every workload down to about 1 s")
    parser.add_argument("--stability", action="store_true",
                        help="run two sets of repeats and compare them")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write all results as JSON to this file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.stability and args.trace:
        parser.error("--stability compares untraced runs; drop --trace")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else json.loads(
            SPEC.read_text())["run_seconds"]
    results = {}
    try:
        for workload in args.workload or WORKLOADS:
            start = time.monotonic()
            deadline = start + DEADLINE_S
            if args.stability:
                results[workload] = stability(workload, args.seed,
                                              args.repeats, seconds,
                                              args.quick, deadline)
                continue
            # The traced child runs first and inside the run length, so
            # a traced invocation lasts no longer than an untraced one.
            traced = (spawn(workload, args.seed, args.quick, True, deadline)
                      if args.trace else None)
            children = measure(workload, args.seed, args.repeats,
                               start + seconds, args.quick, deadline)
            layer = per_layer(children, traced) if traced else None
            line = report(workload, children, end_to_end(children), layer)
            results[workload] = {"result": line, "children": children,
                                 "per_layer": layer}
            print(json.dumps(line), flush=True)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
