"""RM lifecycle hooks: exact ``(stage, file_request, info)`` deliveries.

Call sites skip building the info dict when no hook is registered, so
this pins what a registered hook receives on every stage: attempt,
delivered, integrity_failed, verified and failed.
"""

from repro.rm import FileState, manager
from repro.rm.manager import RequestManager
from tests.rm.test_integrity import first_files, holders, make_testbed

MiB = 2**20


def test_registered_hook_sees_every_stage():
    tb = make_testbed()
    rm = tb.request_manager
    calls = []
    rm.add_hook(lambda stage, fr, info: calls.append((stage, fr, info)))
    ds, names = first_files(tb, 1)
    name = names[0]
    sites = {s.name: s for s in holders(tb, name)}
    # Corrupt the two fast replicas; isi, the slowest, stays clean.
    for site in ("anl", "lbnl-pdsf"):
        sites[site].server.corrupt_file(name, tag="at-rest")
    ticket = rm.submit([(ds, name), (ds, "missing.nc")])
    tb.env.run(until=ticket.done)
    good, missing = ticket.files
    assert good.state is FileState.DONE
    scan = 8 * MiB / manager.CHECKSUM_RATE
    anl = {"host": "gridftp.anl.gov", "location": "anl"}
    isi = {"host": "gridftp.isi.gov", "location": "isi"}
    assert calls == [
        ("failed", missing, {"reason": "no replicas registered",
                             "cls": "lookup"}),
        ("attempt", good, anl),
        ("delivered", good, {**anl, "bytes": float(8 * MiB)}),
        ("integrity_failed", good, anl),
        ("attempt", good, isi),
        ("delivered", good, {**isi, "bytes": float(8 * MiB)}),
        ("verified", good, {**isi, "seconds": scan,
                            "bytes": float(8 * MiB)}),
    ]
    assert all(info.__class__ is dict for _, _, info in calls)



def test_hook_alone_does_not_sample_progress(monkeypatch):
    """A hook runs only when an attempt starts or after it ends, so an
    attempt with a hook, no monitor and no reliability plug-in schedules
    no progress sample; the hook still sees the settled bytes."""
    sampled = []
    real = RequestManager._sample_progress

    def spy(self, *args):
        sampled.append(args)
        return (yield from real(self, *args))

    monkeypatch.setattr(RequestManager, "_sample_progress", spy)
    tb = make_testbed()
    rm = tb.request_manager
    assert rm.reliability is None
    calls = []
    rm.add_hook(lambda stage, fr, info: calls.append((stage, fr.bytes_done)))
    ds, names = first_files(tb, 1)
    ticket = rm.submit([(ds, names[0])])
    tb.env.run(until=ticket.done)
    assert ticket.files[0].state is FileState.DONE
    assert not ticket.monitored
    assert [stage for stage, _ in calls] == ["attempt", "delivered",
                                             "verified"]
    assert sampled == []
    assert ticket.files[0].bytes_done == 8 * MiB
