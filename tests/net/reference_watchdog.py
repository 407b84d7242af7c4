"""The two polling loops that transfers no longer run: test-side oracles.

:func:`reference_watch` is the stall watchdog as a loop: it wakes every
``poll`` seconds with ``Environment.wait_for``, reads the flow's
progress (which forces a network flush) and aborts the flow once no
tick has seen progress for ``stall_timeout`` seconds.
:class:`~repro.net.transport.Connection.watch` now arms one abort timer
only while the allocator reports the flow's rate at zero, and must
abort at the same instants with the same text.

:func:`reference_progress` is the request manager's progress monitor as
it ran for every attempt: a sample every ``progress_poll`` seconds,
doubling up to ``poll_max`` while bytes flow when a ceiling is given
(the fleet configuration's old ``progress_poll_max``). The request
manager now samples only attempts whose progress something reads
mid-transfer.

:func:`reference_polling` swaps both loops back in for every connection
and request manager used inside the block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional
from unittest import mock

from repro.net.transport import Connection
from repro.rm.manager import RequestManager
from repro.rm.request import FileState


def reference_watch(conn: Connection, flow):
    """Simulation process: the polling stall watchdog (one flow)."""
    env = conn.transport.env
    timeout = conn.params.stall_timeout
    poll = conn.params.poll_interval(timeout)
    last_progress = flow.transferred
    last_change = env.now
    while flow.active:
        yield env.wait_for(flow.done, poll)
        if flow.done.processed:
            break
        progress = flow.progress()
        if progress > last_progress + 1e-9:
            last_progress = progress
            last_change = env.now
        elif env.now - last_change >= timeout:
            flow.abort(f"stalled for {timeout:.0f}s")
            break
    # The watchdog consumes the failure itself (it raises to its
    # caller), so defuse it: nothing else is left on flow.done.
    flow.done.defuse()
    _ = flow.done.value  # raises FlowError on abort


def reference_progress(rm: RequestManager, transfer, handle, fr, poll,
                       policy, started, poll_max: Optional[float] = None):
    """Simulation process: the progress monitor every attempt ran."""
    env = rm.env
    base = poll
    last_bytes = 0.0
    while not transfer.triggered:
        yield env.wait_for(transfer, poll)
        if transfer.triggered:
            break
        done_now = handle.bytes_done()
        if done_now > 0 and fr.state is not FileState.TRANSFERRING:
            fr.state = FileState.TRANSFERRING
        fr.bytes_done = done_now
        fr.size = max(fr.size, handle.total)
        rate = (done_now - last_bytes) / poll
        last_bytes = done_now
        if poll_max is not None:
            # A healthy transfer earns longer gaps between samples; a
            # stalling one drops back to the base cadence.
            if rate > 0.0:
                poll = min(poll * 2.0, poll_max)
            else:
                poll = base
        if policy is not None and policy.observe(env.now - started, rate):
            handle.abort("reliability plug-in: rate below threshold")
    # A failure landing in the instant a tick won is read here, not at
    # the yield, so it is ours to defuse.
    transfer.defuse()
    return transfer.value


@contextmanager
def reference_polling(poll_max: Optional[float] = None):
    """Run every watchdog and every RM attempt inside the block on the
    polling loops above (``poll_max`` as the old fleet back-off)."""

    def sample(self, transfer, handle, fr, poll, policy, started):
        return reference_progress(self, transfer, handle, fr, poll, policy,
                                  started, poll_max)

    with mock.patch.object(Connection, "watch", reference_watch), \
            mock.patch.object(RequestManager, "_sampled",
                              lambda self, ticket, policy: True), \
            mock.patch.object(RequestManager, "_sample_progress", sample):
        yield
