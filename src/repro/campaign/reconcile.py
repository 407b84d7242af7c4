"""End-of-run campaign reconciliation: does everything add up?

The paper's follow-on operations question: after a bulk replication
campaign claims success, *prove it* by cross-checking four independent
ledgers against each other:

1. the campaign **journal** (replayed per-file terminal states),
2. the **replica catalog** (publish-time sizes and digests),
3. the **destination storage** (what actually landed, re-digested),
4. the **transfer scheduler's** per-flow byte accounting.

Any disagreement becomes a named :class:`Finding` with severity
``"discrepancy"``; informational cross-checks (quarantine totals,
retransfer counts) come back as ``"info"``. A report with zero
discrepancies is the campaign's certificate of completion; the CLI
(``repro report``) exits nonzero otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.engine import ReplicationCampaign
from repro.campaign.journal import CampaignState
from repro.data.digest import file_digest


@dataclass(frozen=True)
class Finding:
    """One named reconciliation result.

    ``severity`` is ``"discrepancy"`` (ledgers disagree — the campaign
    cannot be certified) or ``"info"`` (a cross-check worth reporting
    that is not, by itself, a failure).
    """

    name: str
    severity: str
    file: str = ""
    detail: str = ""

    def render(self) -> str:
        where = f" [{self.file}]" if self.file else ""
        return f"{self.severity.upper():<11} {self.name}{where}: {self.detail}"


@dataclass
class SiteTotals:
    """Per-source-site delivery totals (from VERIFIED journal chains)."""

    files: int = 0
    bytes: float = 0.0


@dataclass
class ReconciliationReport:
    """The four-ledger cross-check result for one campaign."""

    campaign: str
    files: int
    states: Dict[str, int] = field(default_factory=dict)
    state_bytes: Dict[str, float] = field(default_factory=dict)
    sites: Dict[str, SiteTotals] = field(default_factory=dict)
    verified_files: int = 0
    verified_bytes: float = 0.0
    quarantine_events: int = 0
    retransferred_bytes: float = 0.0
    scheduler_bytes: Optional[float] = None
    findings: List[Finding] = field(default_factory=list)

    @property
    def discrepancies(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "discrepancy"]

    @property
    def clean(self) -> bool:
        """True = certificate of completion (zero discrepancies)."""
        return not self.discrepancies

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def render(self) -> str:
        lines = [f"reconciliation report: campaign {self.campaign!r}, "
                 f"{self.files} files"]
        lines.append("  per-state totals:")
        for state in sorted(self.states):
            lines.append(f"    {state:<12} {self.states[state]:6d} files "
                         f"{self.state_bytes.get(state, 0.0) / 1e9:10.3f} GB")
        if self.sites:
            lines.append("  per-site deliveries (verified):")
            for site in sorted(self.sites):
                tot = self.sites[site]
                lines.append(f"    {site:<16} {tot.files:6d} files "
                             f"{tot.bytes / 1e9:10.3f} GB")
        lines.append(f"  verified: {self.verified_files} files / "
                     f"{self.verified_bytes / 1e9:.3f} GB; "
                     f"quarantine events: {self.quarantine_events}; "
                     f"retransferred: "
                     f"{self.retransferred_bytes / 1e9:.3f} GB")
        if self.scheduler_bytes is not None:
            lines.append(f"  scheduler-accounted bytes: "
                         f"{self.scheduler_bytes / 1e9:.3f} GB")
        if self.findings:
            lines.append("  findings:")
            for f in self.findings:
                lines.append(f"    {f.render()}")
        lines.append(f"  verdict: "
                     f"{'CLEAN' if self.clean else 'DISCREPANT'} "
                     f"({len(self.discrepancies)} discrepancies)")
        return "\n".join(lines)


def reconcile(campaign: ReplicationCampaign) -> ReconciliationReport:
    """Cross-check a finished campaign's four ledgers.

    The scheduler ledger is the campaign RM's transfer scheduler (none
    on an RM without admission control). The campaign need not have
    succeeded — reconciling a half-failed campaign is exactly how its
    damage is itemized.
    """
    rm = campaign.rm
    catalog = rm.catalog
    dest_fs = rm.dest_fs
    scheduler = rm.scheduler
    replay = campaign.journal.replay()
    report = ReconciliationReport(campaign=campaign.name,
                                  files=len(campaign.manifest))
    report.quarantine_events = campaign.corruptions_caught
    report.retransferred_bytes = campaign.bytes_retransferred

    # site attribution: the location on each file's last applied
    # DELIVERED record (the copy that went on to verify).
    last_site: Dict[str, str] = {}
    for rec in campaign.journal.records:
        if rec.state is CampaignState.DELIVERED and rec.location:
            last_site[rec.file] = rec.location

    delivered_total = 0.0
    for entry in campaign.manifest.entries:
        key = entry.key
        folded = replay.get(key)
        state = folded.state if folded is not None else None
        label = state.value if state is not None else "unplanned"
        report.states[label] = report.states.get(label, 0) + 1
        report.state_bytes[label] = \
            report.state_bytes.get(label, 0.0) + entry.size
        if folded is not None:
            delivered_total += folded.delivered_bytes

        if state is None:
            report.findings.append(Finding(
                "journal-missing", "discrepancy", file=key,
                detail="manifest entry never journaled"))
            continue
        if state not in (CampaignState.VERIFIED, CampaignState.FAILED):
            report.findings.append(Finding(
                "journal-nonterminal", "discrepancy", file=key,
                detail=f"journal ends in {state.value!r}"))
        if state is not CampaignState.VERIFIED:
            continue

        # journal says VERIFIED — the other three ledgers must agree.
        report.verified_files += 1
        report.verified_bytes += entry.size
        site = last_site.get(key, "")
        if site:
            tot = report.sites.setdefault(site, SiteTotals())
            tot.files += 1
            tot.bytes += entry.size
        if not dest_fs.exists(entry.logical_file):
            report.findings.append(Finding(
                "verified-missing-on-destination", "discrepancy",
                file=key,
                detail="journal VERIFIED but file absent from "
                       "destination storage"))
            continue
        stored = dest_fs.stat(entry.logical_file)
        if entry.size and abs(stored.size - entry.size) > 0.5:
            report.findings.append(Finding(
                "destination-size-mismatch", "discrepancy", file=key,
                detail=f"catalog size {entry.size:.0f} != stored "
                       f"{stored.size:.0f}"))
        expected = entry.digest
        if expected is None:
            expected = catalog.logical_file_digest(entry.collection,
                                                   entry.logical_file)
        if expected is not None:
            actual = file_digest(stored)
            if actual != expected:
                report.findings.append(Finding(
                    "destination-digest-mismatch", "discrepancy",
                    file=key,
                    detail=f"stored digest {actual[:12]}... != "
                           f"catalog {expected[:12]}..."))
        else:
            report.findings.append(Finding(
                "no-catalog-digest", "info", file=key,
                detail="catalog holds no publish-time digest; "
                       "bytes verified by size only"))

    # ledger 4: the scheduler's independent per-flow byte accounting
    # must cover everything the journal says was delivered. (It may
    # exceed it: integrity-failed attempts moved bytes the journal
    # later voided.)
    if scheduler is not None and campaign.ticket_ids:
        flows = [f"ticket-{tid}" for tid in campaign.ticket_ids]
        report.scheduler_bytes = scheduler.flow_bytes(flows)
        if report.scheduler_bytes + 0.5 < delivered_total:
            report.findings.append(Finding(
                "scheduler-bytes-short", "discrepancy",
                detail=f"scheduler accounted "
                       f"{report.scheduler_bytes:.0f} bytes < journal "
                       f"delivered {delivered_total:.0f}"))

    # journal-internal cross-check: engine counter vs replayed bytes.
    if abs(campaign.bytes_delivered - delivered_total) > 0.5:
        report.findings.append(Finding(
            "journal-counter-drift", "discrepancy",
            detail=f"engine bytes_delivered "
                   f"{campaign.bytes_delivered:.0f} != journal replay "
                   f"{delivered_total:.0f}"))
    if campaign.verified_retransfers:
        report.findings.append(Finding(
            "verified-retransfer", "discrepancy",
            detail=f"{campaign.verified_retransfers} files "
                   "re-transferred after the journal showed VERIFIED"))
    if campaign.journal.ignored:
        report.findings.append(Finding(
            "journal-ignored-records", "info",
            detail=f"{campaign.journal.ignored} appends rejected by "
                   "the transition rules"))
    return report
