"""A CORBA-flavoured RPC shim between CDAT and the request manager."""

from __future__ import annotations

from repro.sim.core import Environment

# Round trip of one ORB call, and marshalling seconds per argument item.
RPC_RTT = 0.002
MARSHAL_COST_PER_ITEM = 1e-4


class CorbaChannel:
    """Models the marshalling + round-trip cost of an ORB call.

    The actual "remote" object is a local Python object here; what
    matters for end-to-end latency is that every CDAT→RM call pays a
    round trip plus per-argument marshalling, as the prototype's CORBA
    hop did.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.calls = 0

    def call(self, method, *args, n_items: int = 1):
        """Simulation process: invoke ``method`` (itself a process
        generator) after the RPC overhead; returns its result.

        ``n_items`` sizes the marshalling cost (e.g. number of logical
        file names in the request).
        """
        self.calls += 1
        yield self.env.timeout(RPC_RTT + MARSHAL_COST_PER_ITEM * n_items)
        result = yield from method(*args)
        return result
