"""Prebuilt testbeds reproducing the paper's experimental setups.

All three subclass :class:`~repro.scenarios.testbed.Testbed`, the
network, transport and GSI substrate they share, with its servers and
user clients; each adds its own topology and workload.

- :class:`EsgTestbed` — the Figure 1 multi-site prototype: ANL, LBNL
  (PDSF with HPSS+HRM, and Clipper), LLNL, ISI, NCAR, SDSC, a user site,
  with GridFTP everywhere, LDAP catalogs, NWS/MDS, and a request
  manager at the user's desktop.
- :class:`ScinetTestbed` — the SC'2000 floor (Figure 7): an 8-host
  Linux cluster in Dallas and an 8-host cluster at LBNL, dual-bonded
  GbE uplinks, 2.5 Gb/s WAN with a 1.5 Gb/s allowance, 10–20 ms
  latency; :func:`run_table1_schedule` reproduces the striped-transfer
  experiment (Table 1).
- :class:`CommodityTestbed` — the Figure 8 configuration: one
  100 Mb/s-NIC workstation in Dallas repeatedly sending a 2 GB file to
  Argonne over commodity internet, with the power/DNS/backbone fault
  timeline.
"""

from repro.scenarios.contention import ContentionResult, run_contention
from repro.scenarios.esg import EsgSite, EsgTestbed
from repro.scenarios.scinet import (
    ScinetTestbed,
    Table1Result,
    run_table1_schedule,
)
from repro.scenarios.commodity import (
    CommodityTestbed,
    Figure8Result,
    run_figure8_schedule,
)

__all__ = [
    "CommodityTestbed",
    "ContentionResult",
    "EsgSite",
    "EsgTestbed",
    "run_contention",
    "Figure8Result",
    "ScinetTestbed",
    "Table1Result",
    "run_figure8_schedule",
    "run_table1_schedule",
]
