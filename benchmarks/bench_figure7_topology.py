"""Figure 7 — the SC'2000 wide-area connectivity (NTON/HSCC).

The figure is the network map: SCinet at the Dallas Convention Center,
the HSCC/NTON optical infrastructure, and the OC-48 into LBNL. The
bench validates our rendition of it — capacities, latencies, and the
end-to-end path — and measures a raw path-capacity probe against the
provisioned numbers.
"""

from repro.net import gbps, to_gbps
from repro.scenarios import ScinetTestbed

from benchmarks.conftest import record, run_once


def test_figure7_scinet_connectivity(benchmark, show):
    def run():
        tb = ScinetTestbed(seed=1)
        # Raw capacity probe: one unconstrained bulk flow per host pair,
        # no floor traffic — what the provisioned path could carry.
        flows = [tb.network.transfer(tb.dallas_hosts[i].app_node,
                                     tb.lbl_hosts[i].app_node, 1e12)
                 for i in range(len(tb.dallas_hosts))]
        tb.network.reallocate()
        aggregate = sum(f.rate for f in flows)
        for f in flows:
            f.abort()
            f.done.defuse()
        return tb, aggregate

    tb, aggregate = run_once(benchmark, run)
    topo = tb.topology
    show()
    show("=== Figure 7 topology (reproduced) ===")
    for name in ("bond-dallas:fwd", "oc48:fwd", "bond-lbl:fwd"):
        link = topo.links[name]
        show(f"  {name:<18} {to_gbps(link.nominal_capacity):5.2f} Gb/s  "
             f"{link.latency * 1e3:6.2f} ms")
    rtt = topo.rtt(tb.dallas_hosts[0].node, tb.lbl_hosts[0].node)
    show(f"  host-to-host RTT: {rtt * 1e3:.1f} ms (paper: 10-20 ms)")
    show(f"  8-pair idle aggregate: {to_gbps(aggregate):.2f} Gb/s")
    record(benchmark, rtt_ms=round(rtt * 1e3, 2),
           idle_aggregate_gbps=round(to_gbps(aggregate), 2))

    assert topo.links["oc48:fwd"].nominal_capacity == gbps(2.5)
    assert topo.links["bond-dallas:fwd"].nominal_capacity == gbps(2)
    assert 0.010 <= rtt <= 0.020
    # Idle aggregate is limited by the bonded-GbE/CPU ceilings below
    # the OC-48 — the network itself was never our bottleneck.
    assert to_gbps(aggregate) <= 2.51
    assert to_gbps(aggregate) >= 1.2
