"""GridFTP: secure, parallel, striped, restartable data transfer.

§6.1 of the paper lists the features; each is implemented here over the
simulated transport:

- **GSI support** — sessions mutually authenticate before any command
  (``repro.gsi``); the handshake cost is visible in transfer latency.
- **Third-party control** — a client may initiate a transfer between two
  other servers (:meth:`GridFtpClient.third_party_copy`).
- **Parallel data transfer** — one ``get`` may use N TCP streams
  (:class:`ParallelTransfer`), block-distributing the file.
- **Striped data transfer** — a logical file partitioned over several
  hosts moves via all of them at once (:class:`StripedTransfer`),
  composable with per-host parallelism (the SC'2000 Table 1 config is 8
  stripes × 4 streams).
- **Server-side processing** — ERET plugins transform data before
  transmission; partial-file retrieval is built in.
- **TCP buffer negotiation** — SBUF, with automatic sizing from the
  bandwidth–delay product when not set manually.
- **Reliable, restartable transfers** — stalled/broken streams resend
  only their undelivered byte ranges; user-written fault-recovery policies
  (e.g. the SC'2000 reliability plug-in that switches replicas when the
  rate drops) hook in via :class:`repro.gridftp.restart.ReliabilityPolicy`.
- **Data channel caching** — post-SC'2000 feature: idle data channels
  (with their warm TCP windows) are reused by subsequent transfers,
  eliminating teardown/re-authentication dips (Figure 8 discussion).
"""

from repro.gridftp.protocol import (
    FtpReply,
    GridFtpConfig,
    GridFtpError,
    TransferStats,
)
from repro.gridftp.channels import DataChannelCache
from repro.gridftp.derived_cache import DerivedProductCache
from repro.gridftp.server import GridFtpServer
from repro.gridftp.client import ClientSession, GridFtpClient, TransferHandle
from repro.gridftp.striped import StripedServer, StripedTransferResult
from repro.gridftp.restart import ReliabilityPolicy

__all__ = [
    "ClientSession",
    "DataChannelCache",
    "DerivedProductCache",
    "FtpReply",
    "GridFtpClient",
    "GridFtpConfig",
    "GridFtpError",
    "GridFtpServer",
    "ReliabilityPolicy",
    "StripedServer",
    "StripedTransferResult",
    "TransferHandle",
    "TransferStats",
]
