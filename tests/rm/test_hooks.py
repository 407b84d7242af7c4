"""RM lifecycle hooks: exact ``(stage, file_request, info)`` deliveries.

Call sites skip building the info dict when no hook is registered, so
this pins what a registered hook receives on every stage: attempt,
delivered, integrity_failed, verified and failed.
"""

from repro.rm import FileState
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
    scan = 8 * MiB / rm.config.checksum_rate
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

