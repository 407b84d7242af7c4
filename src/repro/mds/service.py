"""The MDS service implementation."""

from __future__ import annotations

from typing import Optional

from repro.ldap.directory import DirectoryServer
from repro.ldap.dn import DN
from repro.sim.core import Environment


class MdsService:
    """An LDAP-backed information index.

    DIT layout::

        mds=<grid>
          service=nws
            pair=<src>--<dst>        bandwidth/latency forecast attrs
    """

    def __init__(self, env: Environment,
                 directory: Optional[DirectoryServer] = None,
                 name: str = "grid"):
        self.env = env
        self.directory = directory or DirectoryServer(env, name=f"mds-{name}")
        self.root = DN.parse(f"mds={name}")
        if not self.directory.exists(self.root):
            self.directory.add(self.root, {"objectclass": "mds"})
        self._nws_root = self.root.child("service", "nws")
        self.directory.add(self._nws_root, {"objectclass": "nwsservice"})
        self.publishes = 0

    # -- publication (immediate; providers push) ----------------------------
    def publish_nws(self, src: str, dst: str, forecast) -> None:
        """Record a bandwidth/latency forecast for a path."""
        if forecast is None:
            return
        dn = self._nws_root.child("pair", f"{src}--{dst}")
        attrs = {"objectclass": "nwsforecast",
                 "src": src, "dst": dst,
                 "bandwidth": f"{forecast.bandwidth:.6f}",
                 "latency": f"{forecast.latency:.9f}",
                 "measuredat": f"{forecast.measured_at:.3f}",
                 "samples": str(forecast.samples)}
        if self.directory.exists(dn):
            self.directory.modify(dn, replace=attrs)
        else:
            self.directory.add(dn, attrs)
        self.publishes += 1

    # -- timed queries (consumers pay LDAP costs) -----------------------------
    def nws_forecast(self, src: str, dst: str):
        """Simulation process: (bandwidth, latency) or None."""
        dn = self._nws_root.child("pair", f"{src}--{dst}")
        if not self.directory.exists(dn):
            yield self.env.timeout(self.directory.base_latency)
            return None
        entry = yield from self.directory.read(dn)
        return (float(entry.first("bandwidth", "0")),
                float(entry.first("latency", "0")))

    def __repr__(self) -> str:
        return f"MdsService({len(self.directory)} entries)"
