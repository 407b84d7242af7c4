"""What one in-flight fleet user keeps alive.

At fleet scale the cyclic collector's cost is walking the live heap,
and almost all of that heap is the per-user transfer state: processes,
generator frames, events and their callback lists. This test counts
the objects the collector tracks per in-flight user, five simulated
seconds into an n = 2000 fleet wave (every user still transferring),
and checks that the long-lived per-transfer frames hold no closure
cells. It counts objects; it times nothing.

The count differs between interpreters only where CPython lays objects
out differently. From 3.11 a generator's frame and an instance's
attributes live inside the object; on 3.10 each suspended generator
also has a tracked frame (6 per user here) and each instance without
``__slots__`` a tracked attribute dict. No per-transfer class carries
such a dict (checked below), so 3.10 reads 6 more per user than 3.11
and 3.12.
"""

import gc

from repro.gridftp.client import ClientSession, TransferHandle
from repro.gridftp.protocol import TransferStats
from repro.net.tcp import TcpStream
from repro.net.transport import Connection
from repro.rm.manager import RequestManager
from repro.rm.request import FileRequest, RequestTicket
from repro.scenarios import EsgTestbed
from repro.scenarios.esg import fleet_config

MiB = 2**20
USERS = 2000
MAX_TRACKED_PER_USER = 60


def test_an_in_flight_fleet_user_holds_at_most_60_tracked_objects():
    tb = EsgTestbed(seed=31, with_tape=False, file_size_override=8 * MiB,
                    aggregation_threshold=2, log_capacity=4096)
    tb.warm_nws(90.0)
    rms = tb.add_fleet(USERS, users_per_pop=64, config=fleet_config())
    ds = tb.dataset_ids()[0]
    name = tb.metadata_catalog.resolve(ds, "tas")[0]
    gc.collect()
    built = len(gc.get_objects())
    tickets = [rm.submit([(ds, name)]) for rm in rms]
    tb.env.run(until=tb.env.now + 5.0)
    gc.collect()
    in_flight = sum(1 for t in tickets if not t.done.triggered)
    per_user = (len(gc.get_objects()) - built) / in_flight
    assert in_flight == USERS
    assert per_user <= MAX_TRACKED_PER_USER, (
        f"{per_user:.1f} tracked objects per in-flight user")


def test_per_transfer_generator_frames_hold_no_closure_cells():
    """A comprehension or lambda inside a generator turns every name it
    reads into a cell object that lives as long as the frame does."""
    for fn in (RequestManager._file_thread, RequestManager._attempt,
               ClientSession.get, ClientSession._pump_blocks,
               ClientSession._channel_worker, Connection.watch):
        assert fn.__code__.co_cellvars == (), fn.__qualname__


def test_per_transfer_records_carry_no_instance_dict():
    """Before CPython 3.11 every instance without ``__slots__`` keeps its
    attributes in a separate tracked dict: one more object per record
    per in-flight transfer."""
    for cls in (RequestTicket, FileRequest, TransferHandle, ClientSession,
                TransferStats, Connection, TcpStream):
        assert cls.__dictoffset__ == 0, cls.__qualname__
