"""A finished transfer is freed by reference counting alone.

A ``done`` event that fired with its own owner closed an owner → event
→ value → owner cycle, which only the cyclic collector could free; at
fleet scale that made GC a large share of wall time. Under
``gc.DEBUG_SAVEALL`` the collector keeps everything it would have
freed in ``gc.garbage``, so a finished fleet wave must leave none of
the per-transfer objects there. This counts objects; it times nothing.
"""

import gc
from collections import Counter

from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config

MiB = 2**20
PER_TRANSFER = ("Flow", "AggregateFlow", "_AggregateMember",
                "RequestTicket", "TransferHandle")


def test_finished_fleet_wave_leaves_no_cyclic_transfer_objects():
    tb = EsgTestbed(seed=31, with_tape=False, file_size_override=8 * MiB,
                    aggregation_threshold=2, log_capacity=4096)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(150, users_per_pop=64, config=fleet_config())
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:4]
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        tickets = [rm.submit([(ds, names[i % len(names)])])
                   for i, rm in enumerate(rms)]
        tb.env.run(until=tb.env.all_of([t.done for t in tickets]))
        assert not any(t.failed_files for t in tickets)
        del tickets
        gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert {k: kinds[k] for k in PER_TRANSFER if kinds[k]} == {}
