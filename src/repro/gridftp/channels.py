"""Data-channel caching.

"This mechanism allows a client to indicate that a TCP stream is likely
to be re-used soon after the existing transfer completes. In response ...
we temporarily keep the TCP channel active and allow subsequent transfers
to use the channel without requiring costly breakdown, restart, and
re-authentication operations." (§7, post-SC'2000 improvement.)

A cached channel keeps its :class:`~repro.net.tcp.TcpStream` — and hence
its warm congestion window — so a reusing transfer skips both the
handshake and slow start.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.net.transport import Connection
from repro.sim.core import Environment

# Seconds an idle channel stays alive before being torn down (checked
# lazily at acquire time).
IDLE_TTL = 60.0


class DataChannelCache:
    """Pool of idle data channels keyed by (src node, dst node).

    Parameters
    ----------
    env:
        Simulation environment.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._idle: Dict[Tuple[str, str], List[Tuple[float, Connection]]] = \
            defaultdict(list)
        self.reuses = 0  # instrumentation
        self.expirations = 0

    def acquire(self, src: str, dst: str) -> Optional[Connection]:
        """Take an idle channel for this endpoint pair, if one is live."""
        pool = self._idle.get((src, dst))
        while pool:
            stored_at, conn = pool.pop()
            if self.env.now - stored_at > IDLE_TTL:
                conn.close()
                self.expirations += 1
                continue
            if conn.open:
                self.reuses += 1
                return conn
        return None

    def release(self, conn: Connection) -> None:
        """Return a channel to the pool for later reuse."""
        if not conn.open:
            return
        self._idle[(conn.src, conn.dst)].append((self.env.now, conn))

    def drain(self) -> int:
        """Close every idle channel; returns how many were closed."""
        n = 0
        for pool in self._idle.values():
            for _, conn in pool:
                conn.close()
                n += 1
            pool.clear()
        return n
