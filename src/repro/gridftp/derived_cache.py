"""Per-server LRU cache for ERET derived products.

Interactive portal traffic is repetitive: the same subset / extract /
time-mean of the same file is requested again and again (every reload
of a plot). The derived product is tiny but re-computing it costs a
stage pin, a decode, and server CPU. This cache remembers finished
products keyed by ``(source content digest, operation, canonical
args)`` — the digest key means a corrupted or republished replica can
never serve a stale product — and answers repeats with zero bytes
decoded.

Byte-budgeted LRU: entries are evicted least-recently-used-first once
the budget is exceeded; a product larger than the whole budget is
simply not admitted. Hits, misses, and evictions are counted on the
instance, exported as metrics, and logged as ULM events so lifelines
show where a plot came from.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.obs import Counter, Family, Gauge, Observability

# Cache metric families (obs.children).
_HITS = Family(Counter, "gridftp.derived_cache_hits_total", "host")
_MISSES = Family(Counter, "gridftp.derived_cache_misses_total", "host")
_EVICTIONS = Family(Counter, "gridftp.derived_cache_evictions_total", "host")
_BYTES = Family(Gauge, "gridftp.derived_cache_bytes", "host")


@dataclass
class DerivedProduct:
    """One cached ERET result."""

    size: float
    content: Optional[bytes]


class DerivedProductCache:
    """Byte-budgeted LRU of derived products for one GridFTP server."""

    def __init__(self, capacity_bytes: float, hostname: str = "",
                 obs=None):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.hostname = hostname
        self.obs = obs or Observability()
        self._entries: "OrderedDict[str, DerivedProduct]" = OrderedDict()
        self.bytes_used = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def make_key(digest: str, op: str, args: dict) -> str:
        """Canonical cache key: source digest + op + sorted JSON args."""
        return f"{digest}|{op}|{json.dumps(args, sort_keys=True, default=list)}"

    def get(self, key: str, file: str = "",
            op: str = "") -> Optional[DerivedProduct]:
        """The cached product for ``key`` (refreshes recency), or None."""
        hit = self._entries.get(key)
        if hit is None:
            self.misses += 1
            self.obs.children[_MISSES, self.hostname].inc()
            self.obs.event("gridftp.derived.miss", prog="gridftp",
                           host=self.hostname, file=file, op=op)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.obs.children[_HITS, self.hostname].inc()
        self.obs.event("gridftp.derived.hit", prog="gridftp",
                       host=self.hostname, file=file, op=op)
        return hit

    def put(self, key: str, size: float, content: Optional[bytes],
            file: str = "", op: str = "") -> None:
        """Admit a product, evicting LRU entries to fit the budget."""
        if size > self.capacity_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes_used -= old.size
        while self._entries and self.bytes_used + size > self.capacity_bytes:
            victim_key, victim = self._entries.popitem(last=False)
            self.bytes_used -= victim.size
            self.evictions += 1
            self.obs.children[_EVICTIONS, self.hostname].inc()
            self.obs.event("gridftp.derived.evict", prog="gridftp",
                           host=self.hostname, key=victim_key)
        self._entries[key] = DerivedProduct(float(size), content)
        self.bytes_used += float(size)
        self.obs.children[_BYTES, self.hostname].set(self.bytes_used)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"DerivedProductCache({len(self._entries)} products, "
                f"{self.bytes_used:.0f}/{self.capacity_bytes:.0f}B, "
                f"hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")
