#!/usr/bin/env python3
"""The Figure 8 reliability experiment, shortened.

One Dallas workstation pushes a 2 GB file to Argonne over commodity
internet, over and over, while the SC'2000 incident timeline plays out:
a SCinet power failure, DNS problems, and backbone trouble. GridFTP's
restartable transfers pick up where they left off each time.

Run:  python examples/reliable_transfer.py            (4 h, ~2 s wall)
      python examples/reliable_transfer.py --full     (the 14 h run)
"""

import sys

from repro.net import FaultSchedule
from repro.scenarios import CommodityTestbed, run_figure8_schedule
from repro.scenarios.commodity import HOURS, default_fault_schedule


def compressed_schedule() -> FaultSchedule:
    """The same three incidents, packed into four hours."""
    return (FaultSchedule()
            .site_outage("dallas", start=0.8 * HOURS, duration=1200.0,
                         description="SCinet power failure")
            .dns_outage(start=1.8 * HOURS, duration=900.0,
                        description="DNS problems")
            .degrade("commodity:fwd", start=2.8 * HOURS, duration=1500.0,
                     fraction=0.15,
                     description="backbone problems on the floor"))


def main() -> None:
    full = "--full" in sys.argv
    duration = 14 * HOURS if full else 4 * HOURS
    faults = default_fault_schedule() if full else compressed_schedule()
    parallelism = ([(0.0, 2), (duration * 0.55, 4),
                    (duration * 0.8, 8)])
    print(f"Simulating {duration / HOURS:.0f} hours...")
    testbed = CommodityTestbed(seed=8)
    result = run_figure8_schedule(testbed, duration=duration,
                                  faults=faults,
                                  parallelism=parallelism,
                                  bin_seconds=duration / 120)

    print(f"\ncompleted transfers: {result.transfers_completed}  "
          f"failed connects: {result.transfers_failed}  "
          f"restarts: {result.restarts}")
    print(f"plateau bandwidth: {result.plateau_rate * 8 / 1e6:.1f} Mb/s "
          f"(paper: ~80 Mb/s, disk-limited)")
    print(f"total moved: {result.total_bytes / 2**30:.1f} GiB")

    print("\n=== Incident log ===")
    for w in result.faults:
        print(f"  {w.start / HOURS:5.2f}-{w.end / HOURS:5.2f} h  "
              f"{w.kind:<8} {w.description or w.target}")

    print("\n=== Bandwidth timeline (Figure 8) ===")
    peak = result.bin_rates.max() or 1.0
    for t, r in list(zip(result.bin_times, result.bin_rates))[::2]:
        bar = "#" * int(48 * r / peak)
        print(f"  {t / HOURS:5.2f} h {r * 8 / 1e6:7.1f} Mb/s {bar}")


if __name__ == "__main__":
    main()
