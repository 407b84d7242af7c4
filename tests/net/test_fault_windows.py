"""Every fault kind runs through one window: begin → apply → undo → end.

On a wired :class:`~repro.scenarios.esg.EsgTestbed`, each of the eleven
kinds must leave exactly one ``fault.begin``/``fault.end`` pair in the
ULM stream (the only record of the fault), have its side effect active
mid-window, and undo it afterwards (``corrupt_replica`` is persistent:
disks do not heal).
"""

import pytest

from repro.data.digest import marks_of
from repro.ldap.directory import DirectoryUnavailable
from repro.net import DnsError, FaultSchedule
from repro.netlogger import FaultWindow, extract_fault_windows
from repro.scenarios.esg import EsgTestbed

START, DURATION = 10.0, 20.0
SERVER = "gridftp.anl.gov"
LINK = "wan-ncar:fwd"


class Crashable:
    """A stand-in for a crashable process (the "rm" kind)."""

    def __init__(self):
        self.down = False

    def crash(self):
        self.down = True

    def restart(self):
        self.down = False


def _attempt(tb, gen):
    """Run one timed lookup; True if it failed."""
    def main():
        try:
            yield from gen
        except (DnsError, DirectoryUnavailable):
            return True
        return False

    return tb.run_process(main())


def _served_file(tb):
    return next(iter(tb.registry[SERVER].fs)).name


def _build(kind):
    """(testbed, crashables, fault target, schedule builder, probe).

    The builder adds the ``kind`` fault (window ``START``..+``DURATION``,
    described as "<kind> incident") to a schedule; ``probe(tb)`` reads
    the fault's side effect: True while it is active.
    """
    w = dict(start=START, duration=DURATION, description=f"{kind} incident")
    tb = EsgTestbed(seed=3, years=1, with_tape=True,
                    file_size_override=2**20)
    links = tb.network.topology.links
    link = LINK
    hrm = tb.sites["lbnl-pdsf"].hrm
    server = tb.registry[SERVER]
    rm = Crashable()
    path = _served_file(tb)
    cases = {
        "link": (link, lambda s: s.link_outage(link, **w),
                 lambda tb: links[link].capacity == 0.0),
        "site": ("anl", lambda s: s.site_outage("anl", **w),
                 lambda tb: all(not l.is_up for l in links.values()
                                if "anl" in (l.site, l.src.site,
                                             l.dst.site))),
        "degrade": (link, lambda s: s.degrade(link, fraction=0.25, **w),
                    lambda tb: links[link].capacity
                    == pytest.approx(0.25 * links[link].nominal_capacity)),
        "corrupt": (link, lambda s: s.corrupt_transfer(link, **w),
                    lambda tb: links[link].corrupting),
        "server": (SERVER, lambda s: s.server_outage(SERVER, **w),
                   lambda tb: not server.up),
        "hrm": ("hrm-pdsf", lambda s: s.hrm_outage("hrm-pdsf", **w),
                lambda tb: hrm.down),
        "truncate_stage": ("hrm-pdsf",
                           lambda s: s.truncate_stage("hrm-pdsf", **w),
                           lambda tb: hrm.truncating),
        "rm": ("campaign", lambda s: s.rm_crash("campaign", **w),
               lambda tb: rm.down),
        "directory": ("mds", lambda s: s.mds_outage(**w),
                      lambda tb: _attempt(
                          tb, tb.mds.directory.read("mds=esg"))),
        "dns": ("", lambda s: s.dns_outage(**w),
                lambda tb: _attempt(tb, tb.dns.resolve(SERVER))),
        "corrupt_replica": (SERVER,
                            lambda s: s.corrupt_replica(SERVER, path, **w),
                            lambda tb: bool(marks_of(server.fs.stat(path)))),
    }
    target, add, probe = cases[kind]
    return tb, {"campaign": rm}, target, add, probe


KINDS = ["link", "site", "dns", "degrade", "corrupt", "server",
         "directory", "hrm", "rm", "corrupt_replica", "truncate_stage"]


@pytest.mark.parametrize("kind", KINDS)
def test_one_window_per_fault(kind):
    tb, crashables, target, add, probe = _build(kind)
    injector = tb.fault_injector(crashables=crashables)
    assert not probe(tb)
    t0 = tb.env.now      # after the probe: a timed lookup takes time
    injector.install(add(FaultSchedule()))
    tb.env.run(until=t0 + START + DURATION / 2)
    assert probe(tb)
    tb.env.run(until=t0 + START + DURATION + 1.0)
    # Corruption at rest is persistent; every other kind is undone.
    assert probe(tb) == (kind == "corrupt_replica")
    assert extract_fault_windows(tb.logger) == [
        FaultWindow(kind, target, t0 + START, t0 + START + DURATION,
                    f"{kind} incident")]
    assert not tb.logger.select("fault.skipped")


def test_server_window_brackets_the_crash_and_restart():
    tb, crashables, _, add, _ = _build("server")
    tb.fault_injector().install(add(FaultSchedule()))
    tb.env.run(until=tb.env.now + START + DURATION + 1.0)
    events = [r.event for r in tb.logger.records
              if r.event.startswith(("fault.", "gridftp.server."))]
    assert events == ["fault.begin", "gridftp.server.crash",
                      "gridftp.server.restart", "fault.end"]


def test_missing_replica_is_skipped_and_the_run_goes_on():
    tb = EsgTestbed(seed=3, years=1, with_tape=True,
                    file_size_override=2**20)
    t0 = tb.env.now
    tb.fault_injector().install(
        FaultSchedule()
        .corrupt_replica(SERVER, "no-such.nc", START, DURATION)
        .server_outage(SERVER, START + DURATION, DURATION))
    tb.env.run(until=t0 + START + 2 * DURATION + 1.0)
    skipped = tb.logger.select("fault.skipped")
    assert len(skipped) == 1
    fields = skipped[0].fields
    assert (skipped[0].t, fields["kind"], fields["target"]) == (
        t0 + START, "corrupt_replica", SERVER)
    assert "no-such.nc" in fields["error"]
    # Both windows still open and close.
    assert [(w.kind, w.end) for w in extract_fault_windows(tb.logger)] == [
        ("corrupt_replica", t0 + START + DURATION),
        ("server", t0 + START + 2 * DURATION)]
