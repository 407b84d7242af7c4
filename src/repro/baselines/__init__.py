"""Comparator systems from the paper's Related Work (§8) and §6.1.

- :class:`DodsServer`/:class:`DodsClient` — DODS-style remote data
  access: multi-tier client/server over plain HTTP, single TCP stream,
  server-side subsetting/format filters, no GSI, no replica management,
  no restart. "While this approach facilitates easy deployment, it is
  not well-suited to HPC applications or very large data movement over
  high-bandwidth wide-area networks."
- :class:`GatewayClient` — the *layered gateway* design GridFTP
  replaced (§6.1): a translation layer in front of heterogeneous
  storage protocols, paying per-block translation overhead — "first,
  performance suffered due to costly translations between the layered
  client and storage system-specific client libraries and protocols."
"""

from repro.baselines.dods import DodsClient, DodsError, DodsServer
from repro.baselines.gateway import GatewayClient, StorageAdapter

__all__ = [
    "DodsClient",
    "DodsError",
    "DodsServer",
    "GatewayClient",
    "StorageAdapter",
]
