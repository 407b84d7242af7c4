"""Command-line interface: the paper's experiments from a shell.

Installed as the ``repro`` console script::

    repro demo                 # the quickstart flow (browse/fetch/render)
    repro table1 [--minutes N] # the SC'2000 striped-transfer experiment
    repro figure8 [--hours N]  # the commodity-internet reliability run
    repro browse               # list the synthetic archive
    repro portal VAR           # an ESG-II server-side subset request
    repro trace                # per-file NetLogger lifelines of a demo run
    repro metrics [--json]     # the same run's metrics registry
    repro slo                  # per-tenant SLO burn-rate evaluation
    repro report [--files N]   # campaign reconciliation certificate
    repro catalog [--sites N]  # federated replica catalog walkthrough
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_demo(args) -> int:
    from repro.esg import EarthSystemGrid
    esg = EarthSystemGrid.demo_testbed(seed=args.seed)
    result, viz = esg.fetch_and_analyze("pcmdi.ncar_csm.run1", "tas",
                                        months=(6, 8))
    print(viz)
    print(f"\n{len(result.logical_files)} files from "
          f"{sorted(set(f.chosen_location for f in result.ticket.files))} "
          f"in {result.transfer_seconds:.1f} simulated seconds")
    return 0


def _cmd_browse(args) -> int:
    from repro.esg import EarthSystemGrid
    esg = EarthSystemGrid.demo_testbed(seed=args.seed, materialize=False)
    for entry in esg.browse():
        variables = ", ".join(v["name"] for v in entry["variables"])
        print(f"{entry['dataset']:<28} model={entry['model']:<10} "
              f"files={entry['files']:>4}  [{variables}]")
    return 0


def _cmd_table1(args) -> int:
    from repro.scenarios import ScinetTestbed, run_table1_schedule
    duration = args.minutes * 60.0
    print(f"simulating the SC'2000 schedule for {args.minutes} min...",
          file=sys.stderr)
    result = run_table1_schedule(ScinetTestbed(seed=args.seed),
                                 duration=duration)
    for label, value in result.rows():
        print(f"{label:<48} {value}")
    return 0


def _cmd_figure8(args) -> int:
    from repro.net import FaultSchedule
    from repro.scenarios import CommodityTestbed, run_figure8_schedule
    from repro.scenarios.commodity import HOURS, default_fault_schedule
    duration = args.hours * HOURS
    faults = (default_fault_schedule() if args.hours >= 10
              else FaultSchedule()
              .site_outage("dallas", start=duration * 0.2,
                           duration=duration * 0.08,
                           description="SCinet power failure")
              .degrade("commodity:fwd", start=duration * 0.6,
                       duration=duration * 0.1, fraction=0.15,
                       description="backbone problems"))
    print(f"simulating {args.hours} h of repeated 2 GB transfers...",
          file=sys.stderr)
    result = run_figure8_schedule(CommodityTestbed(seed=args.seed),
                                  duration=duration, faults=faults,
                                  bin_seconds=duration / 100)
    peak = result.bin_rates.max() or 1.0
    for t, r in zip(result.bin_times, result.bin_rates):
        bar = "#" * int(46 * r / peak)
        print(f"{t / HOURS:6.2f} h {r * 8 / 1e6:7.1f} Mb/s {bar}")
    print(f"plateau {result.plateau_rate * 8 / 1e6:.1f} Mb/s; "
          f"{result.transfers_completed} transfers, "
          f"{result.restarts} restarts")
    return 0


def _cmd_portal(args) -> int:
    from repro.cdat import render_field
    from repro.scenarios import EsgTestbed
    tb = EsgTestbed(seed=args.seed, materialize=True,
                    sdbf_chunks={"time": 1, "lat": 8, "lon": 16})
    tb.warm_nws(90.0)

    if args.series:
        # Aggregation view: one request fans across the dataset's whole
        # file series at the best replicas; the user never sees files.
        def flow():
            series = yield from tb.portal.open_series(
                "pcmdi.ncar_csm.run1")
            return (yield from series.fetch(args.variable,
                                            operation="subset"))

        resp = tb.run_process(flow())
        field = resp.dataset[args.variable].data.mean(axis=0)
        title = (f"{args.variable}: annual mean over "
                 f"{resp.files}-file series")
    else:
        def flow():
            return (yield from tb.portal.request(
                "pcmdi.ncar_csm.run1", args.variable,
                operation="time_mean", months=(1, 1)))

        resp = tb.run_process(flow())
        field = resp.dataset[args.variable].data
        title = f"{args.variable}: server-side January mean"
    print(render_field(field, title=title, width=64, height=16))
    print(f"moved {resp.bytes_shipped / 1024:.1f} KB of "
          f"{resp.full_bytes / 1024:.1f} KB "
          f"({resp.reduction:.1f}x less than a full download); "
          f"servers decoded {resp.server_decoded_bytes / 1024:.1f} KB, "
          f"{resp.cache_hits} cache hits; from {resp.source_hostname}")
    return 0


def _demo_fetch(seed: int):
    """Run the demo fetch once; returns the instrumented testbed."""
    from repro.esg import EarthSystemGrid
    esg = EarthSystemGrid.demo_testbed(seed=seed)
    esg.fetch_and_analyze("pcmdi.ncar_csm.run1", "tas", months=(6, 8))
    return esg.testbed


def _cmd_trace(args) -> int:
    from repro.netlogger import (failure_breakdown, reconstruct_lifelines,
                                 reconstruction_report, stage_breakdown,
                                 ttfb_values)
    tb = _demo_fetch(args.seed)
    lives = sorted(reconstruct_lifelines(tb.logger.records),
                   key=lambda life: (life.requested_at or 0.0, life.file))
    print(reconstruction_report(lives, dropped=tb.logger.dropped).render())
    print(f"=== lifelines ({len(lives)} files, seed {args.seed}) ===")
    for life in lives:
        dur = (f"{life.duration:7.2f}s" if life.duration is not None
               else "      ?")
        ttfb = (f"{life.ttfb:6.3f}s" if life.ttfb is not None
                else "     ?")
        stages = " ".join(f"{name}={secs:.2f}" for name, secs
                          in life.stage_totals().items())
        mark = "" if life.complete else "  [INCOMPLETE]"
        print(f"{life.file:<44} {life.outcome or '?':<9} dur={dur} "
              f"ttfb={ttfb}  {stages}{mark}")
    print("\n=== per-stage latency ===")
    for stats in stage_breakdown(lives).values():
        print(f"{stats.name:<12} n={stats.count:<4} "
              f"mean={stats.mean:8.3f}s  max={stats.max:8.3f}s  "
              f"total={stats.total:8.3f}s")
    ttfbs = ttfb_values(lives)
    if ttfbs:
        print(f"\nTTFB: n={len(ttfbs)} "
              f"mean={sum(ttfbs) / len(ttfbs):.3f}s "
              f"max={max(ttfbs):.3f}s")
    failures = failure_breakdown(lives)
    if failures:
        print("failures: " + ", ".join(f"{cls}={n}" for cls, n
                                       in failures.items()))
    faults = sorted({(w.kind, w.target, w.start, w.end)
                     for life in lives for w in life.faults})
    if faults:
        print("\n=== fault windows touching lifelines ===")
        for kind, target, start, end in faults:
            print(f"{kind:<10} {target:<24} "
                  f"[{start:.1f}s .. {end:.1f}s]")
    if args.spans:
        from repro.obs.trace import render_trace, trace_ids
        print("\n=== spans ===")
        spans = tb.obs.tracer.spans
        for trace_id in trace_ids(spans):
            print(render_trace(spans, trace_id))
    return 0


def _cmd_metrics(args) -> int:
    import json
    tb = _demo_fetch(args.seed)
    kernel = tb.env.kernel_stats
    if args.json:
        doc = tb.obs.metrics.to_json()
        doc["netlogger"] = {"emitted": tb.logger.emitted,
                            "dropped": tb.logger.dropped}
        doc["kernel"] = kernel
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        text = tb.obs.metrics.render_prometheus()
        print(text, end="" if text.endswith("\n") else "\n")
        # the event log's own health: a nonzero dropped count means
        # lifeline reconstruction downstream is working from holes.
        print(f"# netlogger_events_emitted {tb.logger.emitted}")
        print(f"# netlogger_events_dropped {tb.logger.dropped}")
        # simulator substrate health: dispatch volume and cancellation
        # hygiene of the event kernel behind everything above.
        for key, value in kernel.items():
            print(f"# kernel_{key} {value}")
    return 0


def _cmd_slo(args) -> int:
    from repro.net.units import mbps
    from repro.obs.slo import SloEngine, SloSpec
    from repro.rm.scheduler import SchedulerConfig
    from repro.scenarios import EsgTestbed

    tb = EsgTestbed(seed=args.seed, with_tape=True,
                    file_size_override=24 * 2**20,
                    scheduler=SchedulerConfig())
    tb.start_timeseries()
    engine = SloEngine(tb.env, tb.obs, eval_interval=15.0)
    engine.add(SloSpec("client-ttfb", "p95_ttfb",
                       threshold=args.ttfb, tenant="client",
                       long_window=240.0, short_window=60.0))
    engine.add(SloSpec("client-queue", "queue_wait_p95",
                       threshold=10.0, tenant="client",
                       long_window=240.0, short_window=60.0))
    engine.add(SloSpec("client-goodput", "goodput_floor",
                       threshold=mbps(1) / 8, tenant="client",
                       long_window=240.0, short_window=60.0))
    engine.start()
    tb.warm_nws(120.0)
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:8]
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    tb.env.run(until=ticket.done)
    tb.env.run(until=tb.env.now + 60.0)
    print(f"=== SLO summary at t={tb.env.now:.0f}s "
          f"(seed {args.seed}) ===")
    header = (f"{'slo':<16} {'tenant':<8} {'objective':<16} "
              f"{'value':>10} {'burn L/S':>12} {'state':<9} alerts")
    print(header)
    for row in engine.summary():
        value = ("-" if row["value"] is None
                 else f"{row['value']:.3f}")
        burn = f"{row['burn_long']:.2f}/{row['burn_short']:.2f}"
        state = "BREACHING" if row["breaching"] else "ok"
        print(f"{row['slo']:<16} {row['tenant']:<8} "
              f"{row['objective']:<16} {value:>10} {burn:>12} "
              f"{state:<9} {row['alerts']}")
    for alert in engine.alerts:
        closed = (f"closed {alert.closed_at:.0f}s"
                  if alert.closed_at is not None else "OPEN")
        print(f"breach: {alert.spec} tenant={alert.tenant} "
              f"opened {alert.opened_at:.0f}s {closed} "
              f"peak burn {alert.peak_burn:.2f}")
    return 0


def _cmd_report(args) -> int:
    from repro.campaign import (CampaignManifest, ReplicationCampaign,
                                plan_campaign, reconcile)
    from repro.data.digest import add_mark
    from repro.gridftp.protocol import GridFtpConfig
    from repro.net.units import mbps
    from repro.rm.scheduler import SchedulerConfig
    from repro.scenarios import EsgTestbed

    tb = EsgTestbed(seed=args.seed, with_tape=True,
                    file_size_override=16 * 2**20,
                    scheduler=SchedulerConfig())
    tb.warm_nws(90.0)
    cfg = GridFtpConfig(parallelism=4, verify_checksum=True)
    rm = tb.add_client("mirror", downlink=mbps(622), config=cfg)
    ds = tb.dataset_ids()[0]
    manifest, replicas = plan_campaign(tb.replica_catalog, [ds])
    manifest = CampaignManifest(manifest.entries[:args.files])
    campaign = ReplicationCampaign(tb.env, rm, manifest, replicas,
                                   obs=tb.obs, name="mirror",
                                   batch_size=4)
    done = campaign.start()
    tb.env.run(until=done)
    if args.inject_discrepancy:
        # tamper with a delivered copy after the fact: the certificate
        # must catch silent post-delivery corruption.
        victim = manifest.entries[0]
        if rm.dest_fs.exists(victim.logical_file):
            add_mark(rm.dest_fs.stat(victim.logical_file), "bitrot")
    report = reconcile(campaign)
    print(report.render())
    return report.exit_code


def _cmd_catalog(args) -> int:
    from repro.replica import FederatedReplicaCatalog
    from repro.sim.core import Environment

    env = Environment(seed=args.seed)
    sites = [f"site-{chr(ord('a') + i)}" for i in range(args.sites)]
    fed = FederatedReplicaCatalog(env, sites, replication=2,
                                  sync_interval=5.0,
                                  cache_ttl=args.cache_ttl)
    fed.start()
    collections = [f"pcmdi.demo.run{i:02d}"
                   for i in range(args.collections)]
    for coll in collections:
        files = [f"{coll}.nc{j:04d}" for j in range(args.files)]
        fed.create_collection(coll, description="CLI walkthrough")
        fed.register_location(coll, "origin", "gsiftp",
                              f"{fed.router.home(coll)}.example.org",
                              2811, "/archive", files)
        fed.register_location(coll, "mirror", "gsiftp",
                              "mirror.example.org", 2811, "/cache",
                              files[: max(1, args.files // 2)])
    fed.sync_now()

    # knock out the home shard of the first collection mid-run: its
    # lookups must degrade to partial answers served by the peer copy.
    victim = fed.router.home(collections[0])
    fed.sites[victim].directory.add_outage(start=10.0, duration=25.0)

    lost = [0]

    def driver():
        for i in range(args.lookups):
            coll = collections[i % len(collections)]
            name = f"{coll}.nc{(i * 7) % args.files:04d}"
            try:
                yield from fed.find_replicas(coll, name)
            except Exception as exc:
                lost[0] += 1
                print(f"t={env.now:6.1f}s  {name}: LOST ({exc})")
            yield env.timeout(1.0)
        # the stale-tolerance loop in miniature: a verify-on-open
        # mismatch demotes the entry, a home write refreshes it.
        coll = collections[0]
        name = f"{coll}.nc0000"
        fed.demote(coll, name, "mirror")
        hidden = yield from fed.find_replicas(coll, name)
        fed.add_file_to_location(coll, "origin", f"{coll}.extra")
        refreshed = yield from fed.find_replicas(coll, name)
        print(f"t={env.now:6.1f}s  demoted {name}@mirror: offered "
              f"{[loc.name for loc in hidden]}, after refresh "
              f"{[loc.name for loc in refreshed]}")

    proc = env.process(driver())
    env.run(until=proc)

    print(f"\n=== shard map ({args.collections} collections over "
          f"{args.sites} sites, seed {args.seed}) ===")
    for coll, prefs in sorted(fed.shard_map().items()):
        mark = "  [home was down 10-35s]" if prefs[0] == victim else ""
        print(f"{coll:<22} home={prefs[0]:<8} "
              f"peers={','.join(prefs[1:])}{mark}")
    stats = fed.stats()
    print("\n=== federation stats ===")
    print("entries/site  " + "  ".join(
        f"{site}={n}" for site, n in sorted(stats["sites"].items())))
    for key in ("queries", "cache_hits", "stale_hits", "partial_queries",
                "demotes", "refreshes", "replicated_ops",
                "conflicts_resolved", "syncs"):
        print(f"{key:<20} {stats[key]}")
    print(f"{'lookups_lost':<20} {lost[0]}")
    print("breakers      " + "  ".join(
        f"{site}={state}"
        for site, state in sorted(stats["breakers"].items())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Earth System Grid prototype reproduction (SC 2001)")
    parser.add_argument("--seed", type=int, default=7,
                        help="simulation seed (default 7)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="quickstart: fetch + visualize")
    sub.add_parser("browse", help="list the synthetic archive")
    t1 = sub.add_parser("table1", help="the Table 1 experiment")
    t1.add_argument("--minutes", type=float, default=10.0)
    f8 = sub.add_parser("figure8", help="the Figure 8 experiment")
    f8.add_argument("--hours", type=float, default=2.0)
    pt = sub.add_parser("portal", help="ESG-II server-side request")
    pt.add_argument("variable", choices=["tas", "pr", "clt"])
    pt.add_argument("--series", action="store_true",
                    help="fan one request across the dataset's whole "
                         "file series (aggregation view)")
    tr = sub.add_parser("trace",
                        help="per-file lifelines of a demo fetch")
    tr.add_argument("--spans", action="store_true",
                    help="also print the causal span trees")
    mt = sub.add_parser("metrics",
                        help="metrics registry of a demo fetch")
    mt.add_argument("--json", action="store_true",
                    help="JSON export instead of Prometheus text")
    sl = sub.add_parser("slo",
                        help="per-tenant SLO burn-rate evaluation")
    sl.add_argument("--ttfb", type=float, default=2.0,
                    help="p95 TTFB bound in seconds (default 2.0)")
    rp = sub.add_parser(
        "report",
        help="run a mirror campaign and print its reconciliation "
             "certificate (exit 1 on discrepancies)")
    rp.add_argument("--files", type=int, default=8,
                    help="campaign size in files (default 8)")
    rp.add_argument("--inject-discrepancy", action="store_true",
                    help="corrupt one delivered file post-hoc (the "
                         "report must exit nonzero)")
    ct = sub.add_parser(
        "catalog",
        help="federated replica catalog walkthrough: sharded publish, "
             "fan-out lookups through a shard outage, demote/refresh")
    ct.add_argument("--sites", type=int, default=4,
                    help="site catalogs in the federation (default 4)")
    ct.add_argument("--collections", type=int, default=12,
                    help="logical collections to publish (default 12)")
    ct.add_argument("--files", type=int, default=40,
                    help="files per collection (default 40)")
    ct.add_argument("--lookups", type=int, default=48,
                    help="timed federated lookups to run (default 48)")
    ct.add_argument("--cache-ttl", type=float, default=5.0,
                    help="client lookup cache TTL in seconds (default 5)")
    return parser


_COMMANDS = {
    "demo": _cmd_demo,
    "browse": _cmd_browse,
    "table1": _cmd_table1,
    "figure8": _cmd_figure8,
    "portal": _cmd_portal,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "slo": _cmd_slo,
    "report": _cmd_report,
    "catalog": _cmd_catalog,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (console script ``repro``)."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
