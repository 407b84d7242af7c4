"""NetLogger-style instrumentation and analysis.

"The graph was produced with the NetLogger system [13]" — Figure 8 is a
bandwidth-vs-time plot assembled from distributed event logs. This
package provides:

- :class:`NetLogger` — ULM-shaped event records (the DATE, HOST, PROG
  and NL.EVNT fields plus free key/value fields) with simulated
  timestamps;
- ``repro.netlogger.analysis`` — turning per-flow rate series and
  transfer events into the binned bandwidth timeline and the summary
  numbers (peak over a window, sustained average, total volume) that
  Table 1 and Figure 8 report.
"""

from repro.netlogger.log import LogRecord, NetLogger
from repro.netlogger.analysis import (
    BandwidthSummary,
    FaultWindow,
    Lifeline,
    LifeStage,
    ReconstructionReport,
    StageStats,
    bandwidth_timeline,
    extract_fault_windows,
    failure_breakdown,
    reconstruct_lifelines,
    reconstruction_report,
    stage_breakdown,
    summarize,
    ttfb_values,
)

__all__ = [
    "BandwidthSummary",
    "FaultWindow",
    "LifeStage",
    "Lifeline",
    "LogRecord",
    "NetLogger",
    "ReconstructionReport",
    "StageStats",
    "bandwidth_timeline",
    "extract_fault_windows",
    "failure_breakdown",
    "reconstruct_lifelines",
    "reconstruction_report",
    "stage_breakdown",
    "summarize",
    "ttfb_values",
]
