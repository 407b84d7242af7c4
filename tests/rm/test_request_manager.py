"""Integration tests for the request manager over the full testbed."""

import pytest

from repro.gridftp import (ClientSession, FtpReply, GridFtpError,
                           ReliabilityPolicy)
from repro.net import FaultInjector, FaultSchedule, mbps
from repro.replica import RandomPolicy
from repro.rm import CorbaChannel, FileState, TransferMonitor
from repro.scenarios.esg import EsgTestbed


def make_testbed(**kw):
    tb = EsgTestbed(seed=11, **kw)
    tb.warm_nws(90.0)
    return tb


def first_files(tb, n=3, dataset=None):
    ds = dataset or tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:n]
    return ds, names


def test_multi_file_request_completes():
    tb = make_testbed()
    ds, names = first_files(tb, 3)
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    tb.env.run(until=ticket.done)
    assert ticket.complete
    assert not ticket.failed_files
    for fr in ticket.files:
        assert fr.state is FileState.DONE
        assert tb.client_fs.exists(fr.logical_file)
        assert fr.chosen_location is not None
    assert ticket.bytes_done == pytest.approx(
        sum(tb.client_fs.stat(n).size for n in names))


def test_request_via_corba_channel():
    tb = make_testbed()
    ds, names = first_files(tb, 2)
    rpc = CorbaChannel(tb.env)

    def main():
        ticket = yield from rpc.call(
            tb.request_manager.request, [(ds, n) for n in names],
            n_items=len(names))
        return ticket

    ticket = tb.run_process(main())
    assert ticket.complete
    assert rpc.calls == 1


def test_nws_best_prefers_fast_sites():
    """With warmed forecasts, the RM should prefer the 622 Mb/s sites
    over the 155 Mb/s ones when both hold the file."""
    tb = make_testbed()
    ds, names = first_files(tb, 6)
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    tb.env.run(until=ticket.done)
    fast_sites = {"anl", "lbnl-clipper", "lbnl-pdsf"}
    chosen = [fr.chosen_location for fr in ticket.files]
    # Disk replicas exist at 2 of 6 sites per file; the pdsf copy always
    # exists. NWS-best should mostly land on fast sites.
    fast_fraction = sum(1 for c in chosen if c in fast_sites) / len(chosen)
    assert fast_fraction >= 0.5


def test_unknown_file_fails_cleanly():
    tb = make_testbed()
    ds = tb.dataset_ids()[0]
    ticket = tb.request_manager.submit([(ds, "ghost.nc")])
    tb.env.run(until=ticket.done)
    assert len(ticket.failed_files) == 1
    assert ticket.files[0].state is FileState.FAILED
    assert "no replicas" in ticket.files[0].error


def test_tape_resident_file_staged_via_hrm():
    """A file only at LBNL-PDSF (tape) is staged, then transferred."""
    tb = make_testbed()
    ds = tb.dataset_ids()[0]
    # Remove every disk replica of one file from the catalog so only the
    # tape copy remains.
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    for loc in tb.replica_catalog.locations(ds):
        if loc.name != "lbnl-pdsf" and name in loc.files:
            tb.replica_catalog.remove_file_from_location(ds, loc.name,
                                                         name)
    ticket = tb.request_manager.submit([(ds, name)])
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.DONE
    assert fr.chosen_location == "lbnl-pdsf"
    pdsf = tb.sites["lbnl-pdsf"]
    assert pdsf.hrm.mss.stage_count >= 1
    assert pdsf.fs.exists(name)  # staged copy on the serving disk


def test_replica_switch_on_site_outage():
    """If the chosen site dies mid-transfer, the RM tries the next."""
    tb = make_testbed(file_size_override=400 * 2**20)
    ds, names = first_files(tb, 1)
    name = names[0]
    # Find which site the RM would choose: warm forecasts favour anl.
    # Take down anl's WAN link shortly after the transfer starts.
    # Fault start times are relative to install time (here t=90).
    sched = FaultSchedule().link_outage(
        "wan-anl:fwd", start=5.0, duration=3000.0,
        description="anl dark")
    FaultInjector(tb.env, tb.network, tb.dns).install(sched)
    tb.request_manager.config.stall_timeout = 8.0
    tb.request_manager.config.retry_limit = 1
    tb.request_manager.config.retry_backoff = 2.0
    ticket = tb.request_manager.submit([(ds, name)])
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.DONE
    # Either the first choice was not anl (fine) or a switch happened.
    if fr.tried_locations[0] == "anl":
        assert fr.replica_switches >= 1
        assert fr.chosen_location != "anl"


def test_reliability_policy_triggers_switch():
    """Degrade the chosen path to a trickle: the §7 plug-in fires."""
    tb = EsgTestbed(seed=11, file_size_override=400 * 2**20)
    tb.request_manager.reliability = ReliabilityPolicy(
        min_rate=mbps(5), grace_period=10.0, consecutive_samples=3)
    tb.warm_nws(90.0)
    ds, names = first_files(tb, 1)
    # Throttle every fast site to a crawl mid-transfer.
    sched = FaultSchedule()
    for site in ("anl", "lbnl-clipper", "lbnl-pdsf"):
        sched.degrade(f"wan-{site}:fwd", start=3.0,
                      duration=4000.0, fraction=0.001)
    FaultInjector(tb.env, tb.network, tb.dns).install(sched)
    ticket = tb.request_manager.submit([(ds, names[0])])
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.DONE
    assert fr.replica_switches >= 1


def test_random_policy_works_end_to_end():
    tb = EsgTestbed(seed=13)
    tb.request_manager.policy = RandomPolicy(
        tb.env.rng.stream("selection"))
    tb.warm_nws(60.0)
    ds, names = first_files(tb, 2)
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    tb.env.run(until=ticket.done)
    assert ticket.complete and not ticket.failed_files


def test_transfers_feed_nws_observations():
    tb = make_testbed()
    ds, names = first_files(tb, 1)
    ticket = tb.request_manager.submit([(ds, names[0])])
    tb.env.run(until=ticket.done)
    src_site = ticket.files[0].chosen_location
    server = tb.registry[
        tb.sites[src_site].hostname]
    fc = tb.nws.forecast(server.host.node, tb.client_host.node)
    assert fc is not None and fc.samples >= 1


def test_monitor_renders_figure4_panes():
    tb = make_testbed()
    ds, names = first_files(tb, 3)
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    monitor = TransferMonitor(tb.env, tb.request_manager, ticket,
                              period=1.0)
    tb.env.process(monitor.run())
    tb.env.run(until=ticket.done)
    out = monitor.render()
    assert "File Transfer Progress" in out
    assert "Replica Selections" in out
    assert "Messages" in out
    assert "TOTAL transferred" in out
    for n in names:
        assert n in out
    assert len(monitor.snapshots) >= 2
    # Snapshot totals are monotone nondecreasing.
    totals = [b for _, b in monitor.snapshots]
    assert all(b2 >= b1 - 1e-6 for b1, b2 in zip(totals, totals[1:]))


def test_monitor_validation():
    tb = make_testbed()
    ds, names = first_files(tb, 1)
    ticket = tb.request_manager.submit([(ds, names[0])])
    with pytest.raises(ValueError):
        TransferMonitor(tb.env, tb.request_manager, ticket, period=0)
    tb.env.run(until=ticket.done)


def test_progress_bar_rendering():
    from repro.rm import FileRequest
    fr = FileRequest("c", "f", size=100.0, bytes_done=50.0)
    bar = fr.progress_bar(width=10)
    assert bar == "[#####-----]"
    assert fr.fraction == 0.5
    done = FileRequest("c", "f", size=100.0, state=FileState.DONE)
    assert done.fraction == 1.0


def test_ticket_find_and_repr():
    tb = make_testbed()
    ds, names = first_files(tb, 2)
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    assert [f.logical_file for f in ticket.files] == names
    assert "RequestTicket" in repr(ticket)
    tb.env.run(until=ticket.done)


def test_multiple_users_served_concurrently():
    """§4: the RM serves 'multiple file transfers on behalf of multiple
    users concurrently' — three tickets submitted together all complete,
    and their transfers overlap in time."""
    tb = make_testbed(file_size_override=16 * 2**20)
    ds_a, ds_b = tb.dataset_ids()
    tickets = [
        tb.request_manager.submit(
            [(ds_a, n) for n in
             tb.metadata_catalog.resolve(ds_a, "tas")[:3]]),
        tb.request_manager.submit(
            [(ds_b, n) for n in
             tb.metadata_catalog.resolve(ds_b, "pr")[:3]]),
        tb.request_manager.submit(
            [(ds_a, n) for n in
             tb.metadata_catalog.resolve(ds_a, "clt")[3:6]]),
    ]
    for t in tickets:
        tb.env.run(until=t.done)
    assert all(t.complete and not t.failed_files for t in tickets)
    # Overlap: every ticket started before the first one finished.
    first_finish = min(max(f.finished_at for f in t.files)
                       for t in tickets)
    for t in tickets:
        assert t.submitted_at < first_finish


def test_spread_policy_uses_more_sites_than_greedy():
    from repro.replica import NwsSpreadPolicy

    def run(policy):
        tb = make_testbed(file_size_override=16 * 2**20)
        if policy is not None:
            tb.request_manager.policy = policy
        ds = tb.dataset_ids()[0]
        names = tb.metadata_catalog.resolve(ds, "tas")[:8]
        ticket = tb.request_manager.submit([(ds, n) for n in names])
        tb.env.run(until=ticket.done)
        return {f.chosen_location for f in ticket.files}

    greedy_sites = run(None)
    spread_sites = run(NwsSpreadPolicy(tolerance=0.6))
    assert len(spread_sites) >= len(greedy_sites)
    assert len(spread_sites) >= 3


def test_ticket_cancellation_stops_inflight_and_pending():
    """§4 'initiate, control and monitor': a user can abort a request;
    in-flight transfers stop, untouched files never start."""
    tb = make_testbed(file_size_override=200 * 2**20)
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:4]
    ticket = tb.request_manager.submit([(ds, n) for n in names])

    def canceller():
        yield tb.env.timeout(5.0)  # transfers are mid-flight
        ticket.cancel("user closed VCDAT")

    tb.env.process(canceller())
    tb.env.run(until=ticket.done)
    assert ticket.cancelled
    assert ticket.complete
    states = {fr.state for fr in ticket.files}
    assert FileState.CANCELLED in states
    assert FileState.DONE not in states  # 200 MiB needs >5 s at 100 Mb/s
    # Cancellation takes effect promptly for transfers; a file that was
    # mid-tape-staging finishes its (non-interruptible) stage first.
    assert tb.env.now < ticket.submitted_at + 120


def test_cancel_before_start_skips_everything():
    tb = make_testbed()
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:2]
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    ticket.cancel()
    tb.env.run(until=ticket.done)
    assert all(fr.state is FileState.CANCELLED for fr in ticket.files)
    assert ticket.bytes_done == 0


def test_transfer_failing_at_a_progress_tick_is_consumed(monkeypatch):
    """Every transfer fails in the instant the RM's progress tick wins,
    so no wait is left on the transfer when its failure is processed:
    the RM reads that failure itself and must defuse it, or the kernel
    re-raises it as unhandled."""
    tb = make_testbed()
    ds, names = first_files(tb, 1)
    poll = tb.request_manager.config.progress_poll
    failed_at = []

    def get_failing_at_first_tick(self, path, *args, **kwargs):
        yield self.env.timeout(poll)
        failed_at.append(self.env.now)
        raise GridFtpError(FtpReply(426, "aborted at a progress tick"))

    monkeypatch.setattr(ClientSession, "get", get_failing_at_first_tick)
    ticket = tb.request_manager.submit([(ds, names[0])])
    tb.env.run(until=ticket.done)
    assert failed_at
    assert [fr.logical_file for fr in ticket.failed_files] == [names[0]]
