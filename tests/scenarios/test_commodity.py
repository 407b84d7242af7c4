"""Tests for the Figure 8 commodity-internet reliability scenario."""

import numpy as np
import pytest

from repro.net import FaultSchedule, mbps
from repro.scenarios import CommodityTestbed, run_figure8_schedule
from repro.scenarios.commodity import (
    HOURS,
    default_fault_schedule,
    default_parallelism_schedule,
)

GB = 2 ** 30


def quick_run(duration=1.0 * HOURS, faults=None, parallelism=None, **kw):
    tb = CommodityTestbed(seed=5, **kw)
    if faults is None:
        faults = FaultSchedule()  # clean run unless specified
    if parallelism is None:
        parallelism = [(0.0, 2)]
    return tb, run_figure8_schedule(tb, duration=duration, faults=faults,
                                    parallelism=parallelism,
                                    bin_seconds=60.0)


def test_plateau_is_disk_limited():
    """~80 Mb/s: below the 100 Mb/s NIC because the disk is 10 MB/s."""
    tb, res = quick_run()
    plateau = res.plateau_rate * 8 / 1e6
    assert 70 <= plateau <= 90
    assert res.transfers_completed >= 10
    assert res.total_bytes >= res.transfers_completed * 2 * GB * 0.99


def test_fast_disk_moves_bottleneck_to_nic():
    tb, res = quick_run(disk_rate=40 * 2**20)
    plateau = res.plateau_rate * 8 / 1e6
    assert plateau > 90  # now NIC-limited near 100 Mb/s


def test_power_failure_zeroes_bandwidth_then_recovers():
    faults = FaultSchedule().site_outage("dallas", start=600.0,
                                         duration=600.0,
                                         description="power failure")
    tb, res = quick_run(duration=0.7 * HOURS, faults=faults)
    rates = res.bin_rates
    # Bins inside the outage are (near) zero.
    outage_bins = rates[11:19]
    assert outage_bins.max() < mbps(10)
    # Recovery afterwards.
    assert rates[25:].max() > mbps(60)
    assert res.restarts >= 1
    site = [w for w in res.faults if w.kind == "site"]
    assert [(w.start, w.end, w.description) for w in site] == [
        (600.0, 1200.0, "power failure")]


def test_degraded_backbone_reduces_but_does_not_kill():
    faults = FaultSchedule().degrade("commodity:fwd", start=600.0,
                                     duration=900.0, fraction=0.15)
    tb, res = quick_run(duration=0.7 * HOURS, faults=faults)
    during = res.bin_rates[11:24]
    before = res.bin_rates[:9]
    assert 0 < during.mean() < before.mean() * 0.5


def test_dns_outage_blocks_new_transfers_only():
    faults = FaultSchedule().dns_outage(start=300.0, duration=600.0)
    tb, res = quick_run(duration=0.5 * HOURS, faults=faults)
    assert res.transfers_failed >= 1  # connects refused during outage
    assert res.transfers_completed >= 3


def test_default_schedules_shape():
    sched = default_fault_schedule()
    assert len(sched) == 3
    kinds = {f.kind for f in sched.faults}
    assert kinds == {"site", "dns", "degrade"}
    steps = default_parallelism_schedule()
    assert steps[0][0] == 0.0
    assert max(n for _, n in steps) == 8


def test_parallelism_changes_visible():
    """Higher parallelism raises throughput when window-limited."""
    tb = CommodityTestbed(seed=5, disk_rate=40 * 2**20,
                          one_way_latency=0.150)  # fat RTT: window bites
    res = run_figure8_schedule(
        tb, duration=0.6 * HOURS, faults=FaultSchedule(),
        parallelism=[(0.0, 1), (0.3 * HOURS, 8)], bin_seconds=60.0)
    first = res.bin_rates[2:16].mean()
    second = res.bin_rates[20:34].mean()
    assert second > 1.5 * first


def test_timeline_rows_units():
    tb, res = quick_run(duration=0.2 * HOURS)
    assert all(0 <= t / HOURS <= 0.2 for t in res.bin_times)
    assert any(r * 8 / 1e6 > 50 for r in res.bin_rates)  # Mb/s scale


def test_restarts_resume_across_outage():
    """A transfer interrupted by the outage finishes afterwards without
    re-sending everything: total bytes ≈ completed transfers × 2 GB."""
    faults = FaultSchedule().site_outage("dallas", start=200.0,
                                         duration=400.0)
    tb, res = quick_run(duration=0.5 * HOURS, faults=faults)
    assert res.restarts >= 1
    assert res.total_bytes == pytest.approx(
        res.transfers_completed * 2 * GB, rel=0.02)


def test_figure8_outputs_are_pinned():
    """The 1.5 h default schedule, exactly (no fault falls inside it)."""
    res = run_figure8_schedule(CommodityTestbed(seed=5),
                               duration=1.5 * HOURS, bin_seconds=60)
    assert res.transfers_completed == 26
    assert res.transfers_failed == 0
    assert res.total_bytes == 55_834_574_848
    assert res.restarts == 0
    assert res.outage_bins() == 1


def test_connect_after_the_first_proxy_expires():
    """The client renews its proxy: a connect at 12.1 h, past the
    lifetime of the proxy it delegated at its first connect, succeeds
    (the 14 h Figure 8 run used to go dark after 12 h)."""
    tb = CommodityTestbed(seed=8)

    def connect():
        session = yield from tb.client.connect(tb.dst_host,
                                               "dallas-ws.scinet")
        session.close()
        return session.subjects

    def main():
        yield from connect()
        yield tb.env.timeout(12.1 * HOURS - tb.env.now)
        return (yield from connect())

    p = tb.env.process(main())
    tb.env.run(until=p)
    assert p.value == ("/CN=anl-user", "/CN=gridftp/dallas-ws.scinet")
