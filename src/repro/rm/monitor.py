"""The transfer-monitoring display (Figure 4).

"a transfer-monitoring tool was developed to show the status of the
request transfer dynamically. Each file is monitored every few seconds
as to its current size. This information as well as the total bytes
transferred for all file requests are displayed on the client's screen."

Three panes, as in the figure: per-file progress bars on top, chosen
replica locations in the middle, and the ticket's newest event-log
records at the bottom — the RM's ``rm.message`` initiation/selection
lines as their text, lifeline events with their fields. :meth:`render` produces the text snapshot; :meth:`run`
samples periodically and keeps history for tests/benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs import Observability
from repro.rm.manager import RequestManager
from repro.rm.request import FileState, RequestTicket
from repro.sim.core import Environment


class TransferMonitor:
    """Periodic snapshots of a ticket's progress.

    Parameters
    ----------
    env, manager, ticket, period:
        What to watch and how often. The Messages pane reads the
        manager's event log (``manager.obs.logger``).
    obs:
        Optional :class:`~repro.obs.Observability`; each :meth:`run`
        sample also updates the ``monitor.sample`` gauge (bytes done,
        labelled by ticket).
    """

    def __init__(self, env: Environment, manager: RequestManager,
                 ticket: RequestTicket, period: float = 3.0,
                 obs=None):
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.manager = manager
        self.ticket = ticket
        ticket.monitored = True  # attempts sample progress for the display
        self.period = period
        self.obs = obs or Observability()
        self.snapshots: List[Tuple[float, float]] = []  # (t, total bytes)

    def _ticket_events(self, limit: int) -> List:
        """The newest ULM records carrying this ticket's id."""
        logger = self.manager.obs.logger
        if logger is None:
            return []
        tid = self.ticket.id_text
        out = [r for r in logger if r.fields.get("ticket") == tid]
        return out[-limit:]

    # -- rendering --------------------------------------------------------
    def render(self, bar_width: int = 30, max_messages: int = 24) -> str:
        """A Figure 4-style text snapshot (``max_messages`` newest
        records: about ten per file of a finished ticket)."""
        t = self.env.now
        lines = [f"=== Request #{self.ticket.id} at t={t:.1f}s ==="]
        lines.append("--- File Transfer Progress ---")
        for fr in self.ticket.files:
            pct = 100.0 * fr.fraction
            lines.append(
                f"{fr.logical_file:<42} {fr.progress_bar(bar_width)} "
                f"{pct:5.1f}%  {fr.bytes_done / 2**20:8.1f}/"
                f"{fr.size / 2**20:8.1f} MiB  [{fr.state.value}]")
        total = self.ticket.bytes_done
        lines.append(f"TOTAL transferred: {total / 2**20:.1f} MiB")
        lines.append("--- Replica Selections ---")
        for fr in self.ticket.files:
            if fr.chosen_location is not None:
                lines.append(f"{fr.logical_file:<42} <- "
                             f"{fr.chosen_location}"
                             + (f" (after {fr.replica_switches} switch"
                                f"{'es' if fr.replica_switches != 1 else ''})"
                                if fr.replica_switches else ""))
        lines.append("--- Messages ---")
        for r in self._ticket_events(max_messages):
            if r.event == "rm.message":
                text = r.fields["text"]
            else:
                text = r.event + "".join(
                    f" {k}={v}" for k, v in sorted(r.fields.items())
                    if k != "ticket")
            lines.append(f"[{r.t:9.1f}s] {text}")
        return "\n".join(lines)

    # -- sampling ------------------------------------------------------------
    def run(self):
        """Simulation process: sample until the ticket completes."""
        while not self.ticket.done.triggered:
            self._sample()
            yield self.env.wait_for(self.ticket.done, self.period)
        self._sample()

    def _sample(self) -> None:
        done = self.ticket.bytes_done
        self.snapshots.append((self.env.now, done))
        self.obs.gauge("monitor.sample", done,
                       ticket=self.ticket.id_text)

    def aggregate_rate_series(self) -> List[Tuple[float, float]]:
        """(t, bytes/s) estimated from consecutive snapshots."""
        out = []
        for (t0, b0), (t1, b1) in zip(self.snapshots, self.snapshots[1:]):
            if t1 > t0:
                out.append((t1, (b1 - b0) / (t1 - t0)))
        return out
