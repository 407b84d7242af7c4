"""Tests for fault schedules, the injector, and composing faults."""

import pytest

from repro.net import (
    Fault,
    FaultInjector,
    FaultSchedule,
    FluidNetwork,
    NameService,
    Topology,
    mbps,
)
from repro.sim import Environment


def fixture():
    env = Environment(seed=7)
    topo = Topology()
    topo.duplex_link("A", "B", capacity=mbps(100), latency=0.01,
                     name="ab")
    topo.duplex_link("B", "C", capacity=mbps(50), latency=0.01,
                     name="bc")
    net = FluidNetwork(env, topo)
    ns = NameService(env)
    ns.register("c.host", "C")
    return env, topo, net, ns


# -- Fault / FaultSchedule validation ---------------------------------------

def test_fault_rejects_bad_start_and_duration():
    with pytest.raises(ValueError):
        Fault("link", "ab:fwd", start=-1.0, duration=5.0)
    with pytest.raises(ValueError):
        Fault("link", "ab:fwd", start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        Fault("link", "ab:fwd", start=0.0, duration=-3.0)


def test_fault_rejects_non_finite_start_and_duration():
    """NaN/inf windows would silently wedge the injector's timeline —
    they must be rejected at construction, including via the builders."""
    nan, inf = float("nan"), float("inf")
    for start, duration in ((nan, 5.0), (inf, 5.0), (0.0, nan),
                            (0.0, inf), (nan, nan)):
        with pytest.raises(ValueError):
            Fault("link", "ab:fwd", start=start, duration=duration)
    with pytest.raises(ValueError):
        FaultSchedule().corrupt_transfer("ab:fwd", nan, 1.0)
    with pytest.raises(ValueError):
        FaultSchedule().link_outage("ab:fwd", 0.0, inf)
    with pytest.raises(ValueError):
        FaultSchedule().rm_crash("campaign", inf, 1.0)


def test_fault_rejects_non_finite_degrade_fraction():
    with pytest.raises(ValueError):
        Fault("degrade", "ab:fwd", 0.0, 5.0, fraction=float("nan"))


def test_corrupt_replica_requires_path():
    with pytest.raises(ValueError):
        Fault("corrupt_replica", "gridftp.x.gov", 0.0, 5.0)


def test_fault_rejects_bad_degrade_fraction():
    with pytest.raises(ValueError):
        Fault("degrade", "ab:fwd", 0.0, 5.0, fraction=1.0)
    with pytest.raises(ValueError):
        Fault("degrade", "ab:fwd", 0.0, 5.0, fraction=-0.1)


def test_fault_rejects_bad_mode():
    with pytest.raises(ValueError):
        Fault("directory", "mds", 0.0, 5.0, mode="explode")


def test_control_fault_needs_target():
    for kind in ("server", "directory", "hrm"):
        with pytest.raises(ValueError):
            Fault(kind, "", 0.0, 5.0)


def test_schedule_builders_accumulate():
    sched = (FaultSchedule()
             .link_outage("ab:fwd", 1.0, 2.0)
             .site_outage("B", 1.0, 2.0)
             .dns_outage(1.0, 2.0)
             .degrade("ab:fwd", 1.0, 2.0, fraction=0.5)
             .server_outage("gridftp.x.gov", 1.0, 2.0)
             .mds_outage(1.0, 2.0)
             .catalog_outage(1.0, 2.0, mode="hang")
             .hrm_outage("hrm-x", 1.0, 2.0)
             .corrupt_transfer("ab:fwd", 1.0, 2.0)
             .corrupt_replica("gridftp.x.gov", "f.nc", 1.0, 2.0)
             .truncate_stage("hrm-x", 1.0, 2.0)
             .rm_crash("campaign", 1.0, 2.0))
    assert len(sched) == 12
    kinds = [f.kind for f in sched.faults]
    assert kinds == ["link", "site", "dns", "degrade", "server",
                     "directory", "directory", "hrm", "corrupt",
                     "corrupt_replica", "truncate_stage", "rm"]


# -- injector target validation ---------------------------------------------

def test_injector_validates_targets_at_install():
    env, topo, net, ns = fixture()
    inj = FaultInjector(env, net, ns)
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().site_outage("mars", 1.0, 1.0))
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().server_outage("gridftp.x.gov",
                                                  1.0, 1.0))
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().mds_outage(1.0, 1.0))
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().hrm_outage("hrm-x", 1.0, 1.0))


def test_injector_validates_integrity_fault_targets():
    env, topo, net, ns = fixture()
    inj = FaultInjector(env, net, ns)
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().corrupt_transfer("nope:fwd",
                                                     1.0, 1.0))
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().corrupt_replica("gridftp.x.gov",
                                                    "f.nc", 1.0, 1.0))
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().truncate_stage("hrm-x", 1.0, 1.0))
    with pytest.raises(KeyError):
        inj.install(FaultSchedule().rm_crash("campaign", 1.0, 1.0))


def test_dns_fault_requires_name_service():
    env, topo, net, ns = fixture()
    inj = FaultInjector(env, net)
    with pytest.raises(ValueError):
        inj.install(FaultSchedule().dns_outage(1.0, 1.0))


# -- site / dns / degrade execution paths ----------------------------------

def test_site_outage_downs_every_touching_link():
    env, topo, net, ns = fixture()
    inj = FaultInjector(env, net, ns)
    inj.install(FaultSchedule().site_outage("B", 1.0, 5.0))
    env.run(until=2.0)
    affected = [l for l in topo.links.values()
                if l.src.site == "B" or l.dst.site == "B"]
    assert affected and all(not l.is_up for l in affected)
    env.run(until=10.0)
    assert all(l.is_up for l in topo.links.values())


def test_dns_outage_window_blocks_resolution():
    env, topo, net, ns = fixture()
    inj = FaultInjector(env, net, ns)
    inj.install(FaultSchedule().dns_outage(1.0, 5.0))

    from repro.net.dns import DnsError

    def probe(at):
        yield env.timeout(at - env.now)
        try:
            yield from ns.resolve("c.host")
            return (at, True)
        except DnsError:
            return (at, False)

    p1 = env.process(probe(2.0))
    env.run()
    assert p1.value == (2.0, False)


def test_degrade_reduces_and_restores_capacity():
    env, topo, net, ns = fixture()
    link = topo.links["ab:fwd"]
    inj = FaultInjector(env, net, ns)
    inj.install(FaultSchedule().degrade("ab:fwd", 1.0, 5.0, fraction=0.25))
    env.run(until=2.0)
    assert link.capacity == pytest.approx(link.nominal_capacity * 0.25)
    env.run(until=10.0)
    assert link.capacity == pytest.approx(link.nominal_capacity)


# -- overlapping faults compose (reference-counted link state) ---------------

def test_overlapping_outages_do_not_restore_early():
    env, topo, net, ns = fixture()
    link = topo.links["ab:fwd"]
    inj = FaultInjector(env, net, ns)
    # [1, 6) and [3, 10): the first restore at t=6 must NOT bring the
    # link back while the second outage still holds it.
    inj.install(FaultSchedule()
                .link_outage("ab:fwd", 1.0, 5.0)
                .link_outage("ab:fwd", 3.0, 7.0))
    env.run(until=7.0)
    assert not link.is_up
    env.run(until=11.0)
    assert link.is_up
    assert link.capacity == pytest.approx(link.nominal_capacity)


def test_outage_overlapping_degrade_composes():
    env, topo, net, ns = fixture()
    link = topo.links["ab:fwd"]
    inj = FaultInjector(env, net, ns)
    # degrade [1, 11); outage [2, 6). After the outage lifts the link
    # must return to the degraded rate, not nominal.
    inj.install(FaultSchedule()
                .degrade("ab:fwd", 1.0, 10.0, fraction=0.5)
                .link_outage("ab:fwd", 2.0, 4.0))
    env.run(until=3.0)
    assert link.capacity == 0.0
    env.run(until=8.0)
    assert link.capacity == pytest.approx(link.nominal_capacity * 0.5)
    env.run(until=12.0)
    assert link.capacity == pytest.approx(link.nominal_capacity)


def test_stacked_degrades_apply_most_severe():
    env, topo, net, ns = fixture()
    link = topo.links["ab:fwd"]
    link.degrade_hold(0.5)
    link.degrade_hold(0.2)
    assert link.capacity == pytest.approx(link.nominal_capacity * 0.2)
    link.release_degrade(0.2)
    assert link.capacity == pytest.approx(link.nominal_capacity * 0.5)
    link.release_degrade(0.5)
    assert link.capacity == pytest.approx(link.nominal_capacity)
    assert not link.faulted


def test_explicit_restore_clears_all_holds():
    env, topo, net, ns = fixture()
    link = topo.links["ab:fwd"]
    link.set_down()
    link.degrade_hold(0.5)
    # The capacity-override form (bonding/upgrade scenarios) forces the
    # link regardless of held faults.
    link.restore(capacity=mbps(200))
    assert link.capacity == pytest.approx(mbps(200))
    assert not link.faulted


# -- control-plane fault execution ------------------------------------------

def test_server_fault_crashes_and_restarts():
    env, topo, net, ns = fixture()

    class FakeServer:
        def __init__(self):
            self.up = True
            self.events = []

        def crash(self):
            self.up = False
            self.events.append(("crash", env.now))

        def restart(self):
            self.up = True
            self.events.append(("restart", env.now))

    server = FakeServer()
    inj = FaultInjector(env, net, ns,
                        servers={"gridftp.x.gov": server})
    inj.install(FaultSchedule().server_outage("gridftp.x.gov", 2.0, 3.0))
    env.run(until=10.0)
    assert server.events == [("crash", 2.0), ("restart", 5.0)]
    assert server.up


def test_hrm_fault_fails_and_restores():
    env, topo, net, ns = fixture()

    class FakeHrm:
        def __init__(self):
            self.down = False
            self.events = []

        def fail_staging(self):
            self.down = True
            self.events.append(("down", env.now))

        def restore(self):
            self.down = False
            self.events.append(("up", env.now))

    hrm = FakeHrm()
    inj = FaultInjector(env, net, ns, hrms={"hrm-x": hrm})
    inj.install(FaultSchedule().hrm_outage("hrm-x", 1.0, 4.0))
    env.run(until=10.0)
    assert hrm.events == [("down", 1.0), ("up", 5.0)]


def test_directory_fault_schedules_outage_window():
    env, topo, net, ns = fixture()
    from repro.ldap.directory import DirectoryServer, DirectoryUnavailable
    directory = DirectoryServer(env, "mds-test")
    directory.add("mds=x", {"objectclass": "mds"})
    inj = FaultInjector(env, net, ns, directories={"mds": directory})
    inj.install(FaultSchedule().mds_outage(1.0, 5.0, mode="fail"))

    def reader(at):
        yield env.timeout(at - env.now)
        try:
            yield from directory.read("mds=x")
            return True
        except DirectoryUnavailable:
            return False

    p_in = env.process(reader(2.0))
    env.run()
    p_out = env.process(reader(20.0))
    env.run()
    assert p_in.value is False
    assert p_out.value is True
    assert directory.outage_hits == 1


def test_directory_hang_mode_blocks_until_window_ends():
    env, topo, net, ns = fixture()
    from repro.ldap.directory import DirectoryServer
    directory = DirectoryServer(env, "mds-test", base_latency=0.005)
    directory.add("mds=x", {"objectclass": "mds"})
    directory.add_outage(1.0, 4.0, mode="hang")

    def reader():
        yield env.timeout(2.0)
        entry = yield from directory.read("mds=x")
        return (env.now, entry.dn)

    p = env.process(reader())
    env.run()
    t, dn = p.value
    # Blocked from t=2 to the window end at t=5, then the normal latency.
    assert t == pytest.approx(5.005)


# -- integrity fault execution ----------------------------------------------

def test_corrupt_transfer_window_opens_and_closes():
    env, topo, net, ns = fixture()
    link = topo.links["ab:fwd"]
    inj = FaultInjector(env, net, ns)
    inj.install(FaultSchedule().corrupt_transfer("ab:fwd", 1.0, 4.0))
    assert not link.corrupting
    env.run(until=2.0)
    assert link.corrupting
    # A corrupting window degrades data, not capacity.
    assert link.capacity == pytest.approx(link.nominal_capacity)
    env.run(until=10.0)
    assert not link.corrupting


def test_overlapping_corrupt_windows_refcount():
    env, topo, net, ns = fixture()
    link = topo.links["ab:fwd"]
    inj = FaultInjector(env, net, ns)
    # [1, 6) and [3, 10): the first close must not end the second.
    inj.install(FaultSchedule()
                .corrupt_transfer("ab:fwd", 1.0, 5.0)
                .corrupt_transfer("ab:fwd", 3.0, 7.0))
    env.run(until=2.0)
    assert topo.corrupting_links == 1
    env.run(until=7.0)
    assert link.corrupting and topo.corrupting_links == 1
    env.run(until=11.0)
    assert not link.corrupting
    assert topo.corrupting_links == 0


def test_topology_counts_links_with_a_corrupt_hold():
    _, topo, _, _ = fixture()
    a, b = topo.links["ab:fwd"], topo.links["ab:rev"]
    for hold in (a, a, b):
        hold.corrupt_hold()
    assert topo.corrupting_links == 2
    a.release_corrupt()
    assert topo.corrupting_links == 2
    for release in (a, b, a, b):  # a second release at zero is a no-op
        release.release_corrupt()
    assert topo.corrupting_links == 0
    assert not a.corrupting and not b.corrupting


def test_corrupt_replica_marks_file_at_rest():
    from repro.data.digest import file_digest, marks_of
    from repro.storage import FileObject

    env, topo, net, ns = fixture()

    class FakeServer:
        def __init__(self):
            self.file = FileObject("f.nc", 100)

        def corrupt_file(self, path, tag="at-rest"):
            from repro.data.digest import add_mark
            if path != self.file.name:
                raise KeyError(path)
            return add_mark(self.file, tag)

    server = FakeServer()
    clean = file_digest(server.file)
    inj = FaultInjector(env, net, ns,
                        servers={"gridftp.x.gov": server})
    inj.install(FaultSchedule().corrupt_replica(
        "gridftp.x.gov", "f.nc", 2.0, 1.0))
    env.run(until=5.0)
    assert marks_of(server.file)
    assert file_digest(server.file) != clean


def test_corrupt_replica_missing_file_is_skipped_not_fatal():
    env, topo, net, ns = fixture()

    class FakeServer:
        def corrupt_file(self, path, tag="at-rest"):
            raise KeyError(path)

    inj = FaultInjector(env, net, ns,
                        servers={"gridftp.x.gov": FakeServer()})
    inj.install(FaultSchedule().corrupt_replica(
        "gridftp.x.gov", "absent.nc", 1.0, 1.0))
    env.run(until=5.0)  # must not raise out of the injector process


def test_truncate_stage_toggles_hrm_flag():
    env, topo, net, ns = fixture()

    class FakeHrm:
        def __init__(self):
            self.truncating = False

        def begin_truncating(self):
            self.truncating = True

        def end_truncating(self):
            self.truncating = False

    hrm = FakeHrm()
    inj = FaultInjector(env, net, ns, hrms={"hrm-x": hrm})
    inj.install(FaultSchedule().truncate_stage("hrm-x", 1.0, 4.0))
    env.run(until=2.0)
    assert hrm.truncating
    env.run(until=10.0)
    assert not hrm.truncating


def test_rm_crash_fault_kills_and_restarts_crashable():
    env, topo, net, ns = fixture()

    class FakeCampaign:
        def __init__(self):
            self.events = []

        def crash(self):
            self.events.append(("crash", env.now))

        def restart(self):
            self.events.append(("restart", env.now))

    camp = FakeCampaign()
    inj = FaultInjector(env, net, ns, crashables={"campaign": camp})
    inj.install(FaultSchedule().rm_crash("campaign", 2.0, 3.0))
    env.run(until=10.0)
    assert camp.events == [("crash", 2.0), ("restart", 5.0)]
