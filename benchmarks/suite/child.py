"""One repeat of one workload, in a fresh process.

``run.py`` starts this script once per repeat, one at a time, so each
repeat pays its own ``import repro`` and reports its own peak RSS.
Usage::

    python benchmarks/suite/child.py --workload fleet_wave [--seed N]
        [--quick] [--trace]

The last line of standard output is one JSON object: set-up, import
and run wall times, peak RSS, operations attempted and failed, the
``sim_digest`` and a summary of the simulated outputs, any host-time
rates the workload measured itself, and the layer counters read after
the run. Without ``--trace`` a :class:`speed.SpeedMeter` samples the
core's speed throughout, and the object also carries the speed-corrected
set-up and run times and the median kernel time. With ``--trace`` the
run phase (only) is profiled under ``cProfile`` and the object carries
the per-layer split and entry-point call statistics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parents[2] / "src"


def digest(outputs: dict) -> str:
    """blake2s over the simulated outputs (lists already sorted)."""
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.blake2s(blob).hexdigest()


def summarize(outputs: dict) -> dict:
    """Printable form of the outputs: lists become count/mean/min/max."""
    out = {}
    for key, value in outputs.items():
        if isinstance(value, list):
            out[key] = {"n": len(value),
                        "mean": sum(value) / len(value) if value else 0.0,
                        "min": min(value, default=0.0),
                        "max": max(value, default=0.0)}
        else:
            out[key] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    meter = speed.SpeedMeter()
    if not args.trace:
        # The traced child is never used for end-to-end numbers, and the
        # sampler would show up in its profile.
        meter.start()
    t0 = meter.mark()
    sys.path.insert(0, str(SRC))
    import workloads                      # imports repro
    t1 = meter.clock()
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.SEED if args.seed is None else args.seed
    wl = cls(seed, args.quick)
    wl.clock = meter.clock
    if args.trace:
        import cProfile
        import pstats

        import layers
        # Installed before build so no bound method escapes the counters,
        # then zeroed so only the run's calls count.
        counted = layers.count_calls()
    wl.build()
    t2 = meter.mark()
    if args.trace:
        for box in counted.values():
            box[0] = 0
        profiler = cProfile.Profile()
        profiler.enable()
        outcome = wl.run()
        profiler.disable()
    else:
        outcome = wl.run()
    t3 = meter.mark()
    meter.stop()

    counters = wl.counters()
    result = {
        "workload": args.workload,
        "seed": seed,
        "import_s": t1 - t0,
        "build_s": t2 - t1,
        "run_s": t3 - t2,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "sim_digest": digest(outcome.outputs),
        "outputs": summarize(outcome.outputs),
        "counters": counters,
    }
    if not args.trace:
        result["corrected"] = {"setup_s": meter.corrected(t0, t2),
                               "run_s": meter.corrected(t2, t3)}
        result["kernel_s"] = statistics.median(k for _, k in meter.samples)
    if outcome.host:
        result["host"] = outcome.host
    if args.trace:
        stats = pstats.Stats(profiler).stats
        result["layers"] = layers.split_self_time(stats)
        result["entry_points"] = layers.entry_point_stats(stats, counted)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
