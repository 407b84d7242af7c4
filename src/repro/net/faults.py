"""Fault injection: link, site, DNS, and control-plane outages on a schedule.

The SC'2000 experiment of Figure 8 encountered "a power failure for the SC
network (SCinet), DNS problems, and backbone problems on the exhibition
floor". :class:`FaultSchedule` declares such incidents; a
:class:`FaultInjector` executes them against the live topology, taking
links down (stalling every flow that crosses them) and restoring them
later, triggering reallocation each time.

Beyond the data plane, the schedule can express *control-plane* faults:

- ``server`` — a GridFTP server crashes (drops in-flight transfers,
  refuses new connections) and later restarts;
- ``directory`` — an LDAP directory backing the replica catalog or MDS
  becomes unavailable for a window (lookups raise, or hang until the
  window ends, per ``mode``);
- ``hrm`` — an HRM/tape system fails mid-stage and later recovers;
- ``rm`` — a request-manager-like process (e.g. a replication campaign
  engine) is killed mid-run and restarted later, exercising journal
  replay and resume.

And *integrity* faults — the silent-corruption failure modes the EU
DataGrid operations report names as dominant in practice:

- ``corrupt`` — an in-flight bit-flip window on one link: blocks
  delivered while the window is open arrive corrupted (the client
  marks the delivered file; capacity is untouched — corruption is
  silent);
- ``corrupt_replica`` — bad bytes at rest: one file on one server is
  corrupted in place at the window start (and stays corrupt — disks do
  not heal);
- ``truncate_stage`` — the HRM delivers short files: stages completing
  inside the window publish a wrong-content copy to the serving disk.

Link state is reference-counted (see :class:`~repro.net.topology.Link`),
so overlapping outage and degrade windows on the same link compose
instead of the first ``restore()`` silently returning it to nominal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional

from repro.net.dns import NameService
from repro.net.fluid import FluidNetwork
from repro.net.topology import Link
from repro.sim.core import Environment

FaultKind = Literal["link", "site", "dns", "degrade", "corrupt",
                    "server", "directory", "hrm", "rm",
                    "corrupt_replica", "truncate_stage"]

#: kinds whose targets live outside the topology
_CONTROL_KINDS = ("server", "directory", "hrm", "rm",
                  "corrupt_replica", "truncate_stage")


@dataclass(frozen=True)
class Fault:
    """One scheduled incident.

    ``target`` names a link (kind="link"/"degrade"/"corrupt"), a site
    (kind="site" — every link whose ``site`` matches goes down), a
    GridFTP hostname (kind="server"/"corrupt_replica"), a directory
    service (kind="directory"), an HRM (kind="hrm"/"truncate_stage"), a
    crashable registered with the injector (kind="rm"), or is ignored
    (kind="dns"). ``fraction`` applies to "degrade": remaining capacity
    as a fraction of nominal. ``mode`` applies to "directory": "fail"
    makes lookups raise, "hang" makes them block until the window ends.
    ``path`` applies to "corrupt_replica": the file corrupted on the
    target server. ``start`` is measured from the moment the schedule
    is installed (not absolute simulation time).
    """

    kind: FaultKind
    target: str
    start: float
    duration: float
    fraction: float = 0.0
    mode: str = "fail"
    path: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        # Reject non-finite values too: NaN compares False against
        # everything, so a bare `start < 0` check silently accepts a
        # fault that would then corrupt the injector's timeline.
        if not (math.isfinite(self.start) and math.isfinite(self.duration)):
            raise ValueError("fault start/duration must be finite")
        if self.start < 0 or self.duration <= 0:
            raise ValueError("fault needs start >= 0 and duration > 0")
        if self.kind == "degrade" and not (
                math.isfinite(self.fraction)
                and 0.0 <= self.fraction < 1.0):
            raise ValueError("degrade fraction must be in [0, 1)")
        if self.mode not in ("fail", "hang"):
            raise ValueError("fault mode must be 'fail' or 'hang'")
        if self.kind in _CONTROL_KINDS and not self.target:
            raise ValueError(f"{self.kind} fault needs a target name")
        if self.kind == "corrupt_replica" and not self.path:
            raise ValueError("corrupt_replica fault needs a file path")


@dataclass
class FaultSchedule:
    """A declarative list of faults for a scenario."""

    faults: List[Fault] = field(default_factory=list)

    def link_outage(self, link: str, start: float, duration: float,
                    description: str = "") -> "FaultSchedule":
        """Take one link down for a period."""
        self.faults.append(Fault("link", link, start, duration,
                                 description=description))
        return self

    def site_outage(self, site: str, start: float, duration: float,
                    description: str = "") -> "FaultSchedule":
        """Power-failure style: every link at ``site`` goes down."""
        self.faults.append(Fault("site", site, start, duration,
                                 description=description))
        return self

    def dns_outage(self, start: float, duration: float,
                   description: str = "") -> "FaultSchedule":
        """Name resolution fails for a period."""
        self.faults.append(Fault("dns", "", start, duration,
                                 description=description))
        return self

    def degrade(self, link: str, start: float, duration: float,
                fraction: float, description: str = "") -> "FaultSchedule":
        """Reduce a link to ``fraction`` of nominal capacity for a period."""
        self.faults.append(Fault("degrade", link, start, duration,
                                 fraction=fraction, description=description))
        return self

    def server_outage(self, hostname: str, start: float, duration: float,
                      description: str = "") -> "FaultSchedule":
        """Crash the GridFTP server at ``hostname``; restart it later."""
        self.faults.append(Fault("server", hostname, start, duration,
                                 description=description))
        return self

    def catalog_outage(self, start: float, duration: float,
                       mode: str = "fail", site: Optional[str] = None,
                       description: str = "") -> "FaultSchedule":
        """Replica catalog directory unavailable for a window.

        With ``site`` set, only that federation shard's directory goes
        down (target ``catalog:<site>``); the federated query layer
        degrades to partial answers from the surviving shards. Without
        it, the whole catalog service is out.
        """
        target = f"catalog:{site}" if site is not None else "catalog"
        self.faults.append(Fault("directory", target, start, duration,
                                 mode=mode, description=description))
        return self

    def mds_outage(self, start: float, duration: float, mode: str = "fail",
                   description: str = "") -> "FaultSchedule":
        """MDS/GIIS directory unavailable for a window."""
        self.faults.append(Fault("directory", "mds", start, duration,
                                 mode=mode, description=description))
        return self

    def hrm_outage(self, name: str, start: float, duration: float,
                   description: str = "") -> "FaultSchedule":
        """HRM/tape system fails mid-stage; recovers later."""
        self.faults.append(Fault("hrm", name, start, duration,
                                 description=description))
        return self

    def corrupt_transfer(self, link: str, start: float, duration: float,
                         description: str = "") -> "FaultSchedule":
        """In-flight bit-flip window on one link: blocks delivered while
        the window is open arrive corrupted (capacity untouched)."""
        self.faults.append(Fault("corrupt", link, start, duration,
                                 description=description))
        return self

    def corrupt_replica(self, hostname: str, path: str, start: float,
                        duration: float,
                        description: str = "") -> "FaultSchedule":
        """Corrupt one file at rest on ``hostname`` at the window start.

        The corruption is persistent (disks do not heal); ``duration``
        only scopes the logged fault window.
        """
        self.faults.append(Fault("corrupt_replica", hostname, start,
                                 duration, path=path,
                                 description=description))
        return self

    def truncate_stage(self, hrm: str, start: float, duration: float,
                       description: str = "") -> "FaultSchedule":
        """HRM delivers short files: stages completing inside the window
        publish a wrong-content copy to the serving disk."""
        self.faults.append(Fault("truncate_stage", hrm, start, duration,
                                 description=description))
        return self

    def rm_crash(self, name: str, start: float, duration: float,
                 description: str = "") -> "FaultSchedule":
        """Kill a registered crashable (e.g. a campaign engine) at
        ``start``; restart it ``duration`` seconds later."""
        self.faults.append(Fault("rm", name, start, duration,
                                 description=description))
        return self

    def __len__(self) -> int:
        return len(self.faults)


class FaultInjector:
    """Executes a :class:`FaultSchedule` against the live testbed.

    ``servers`` maps hostname → :class:`~repro.gridftp.server.GridFtpServer`
    (usually the RM's registry), ``directories`` maps a label (e.g.
    "catalog", "mds") → a directory server exposing ``add_outage``,
    ``hrms`` maps name → :class:`~repro.storage.hrm.HierarchicalResourceManager`,
    and ``crashables`` maps a label → any object exposing
    ``crash()``/``restart()`` (the "rm" kind — e.g. a
    :class:`~repro.campaign.engine.ReplicationCampaign`). Only the maps
    a schedule actually targets need to be supplied.

    Every window is recorded once, as a ``fault.begin``/``fault.end``
    ULM pair (:func:`~repro.netlogger.analysis.extract_fault_windows`
    rebuilds the incident list from them).
    """

    def __init__(self, env: Environment, network: FluidNetwork,
                 name_service: Optional[NameService] = None,
                 servers: Optional[Dict[str, object]] = None,
                 directories: Optional[Dict[str, object]] = None,
                 hrms: Optional[Dict[str, object]] = None,
                 crashables: Optional[Dict[str, object]] = None,
                 obs=None):
        self.env = env
        self.network = network
        self.name_service = name_service
        self.servers = servers or {}
        self.directories = directories or {}
        self.hrms = hrms or {}
        self.crashables = crashables or {}
        # Imported here: repro.obs reaches back into repro.net.
        from repro.obs import Observability
        self.obs = obs or Observability()

    def install(self, schedule: FaultSchedule) -> None:
        """Arm every fault in ``schedule`` as a simulation process.

        Targets are resolved here, so a typo raises at install time,
        not mid-simulation.
        """
        for fault in schedule.faults:
            apply, undo = self._actions(fault)
            self.env.process(self._window(fault, apply, undo))

    def _window(self, fault: Fault, apply, undo):
        if fault.start > 0:
            yield self.env.timeout(fault.start)
        # The id pairs fault.end with its begin, so overlapping windows
        # on one target stay distinct.
        fid = self.env.next_id("fault")
        self.obs.event("fault.begin", prog="fault-injector", fault=fid,
                       kind=fault.kind, target=fault.target,
                       description=fault.description)
        self.obs.count("faults.injected_total", kind=fault.kind)
        if apply is not None:
            apply()
        yield self.env.timeout(fault.duration)
        if undo is not None:
            undo()
        self.obs.event("fault.end", prog="fault-injector", fault=fid,
                       kind=fault.kind, target=fault.target,
                       description=fault.description)

    def _actions(self, fault: Fault):
        """The ``(apply, undo)`` pair that opens and closes ``fault``."""
        kind = fault.kind
        if kind == "dns":
            if self.name_service is None:
                raise ValueError("dns fault needs a name service")
            # The outage windows below are absolute (a hung lookup needs
            # the window end); faults are relative to install time.
            self.name_service.add_outage(self.env.now + fault.start,
                                         fault.duration)
            return None, None
        if kind == "directory":
            directory = _target(self.directories, "directory service",
                                fault)
            directory.add_outage(self.env.now + fault.start,
                                 fault.duration, mode=fault.mode)
            return None, None
        if kind == "server":
            server = _target(self.servers, "server", fault)
            return server.crash, server.restart
        if kind == "corrupt_replica":
            server = _target(self.servers, "server", fault)
            # Persistent: the bytes go bad at the window start and stay
            # bad (disks do not heal); the duration only scopes the window.
            return (lambda: self._corrupt_replica(server, fault)), None
        if kind == "hrm":
            hrm = _target(self.hrms, "hrm", fault)
            return hrm.fail_staging, hrm.restore
        if kind == "truncate_stage":
            hrm = _target(self.hrms, "hrm", fault)
            return hrm.begin_truncating, hrm.end_truncating
        if kind == "rm":
            target = _target(self.crashables, "crashable", fault)
            return target.crash, target.restart
        if kind == "corrupt":
            # Capacity is untouched, so no reallocation: the corruption
            # is silent at the network layer and only visible to the
            # integrity pipeline sampling Link.corrupting per block.
            link = _target(self.network.topology.links, "link", fault)
            return link.corrupt_hold, link.release_corrupt
        links = self._links_for(fault)
        if kind == "degrade":
            def hold(link):
                link.degrade_hold(fault.fraction)

            def release(link):
                link.release_degrade(fault.fraction)
        else:
            hold, release = Link.set_down, Link.restore

        def change(step):
            # Every link changes first, then each gets a scoped
            # reallocation (a site outage coalesces into one recompute).
            for link in links:
                step(link)
            for link in links:
                self.network.link_updated(link)

        return (lambda: change(hold)), (lambda: change(release))

    def _corrupt_replica(self, server, fault: Fault) -> None:
        tag = f"at-rest@{self.env.now:.0f}"
        try:
            server.corrupt_file(fault.path, tag=tag)
        except Exception as exc:
            # The file may have been deleted/moved since the schedule
            # was written; a miss must not kill the simulation.
            self.obs.event("fault.skipped", prog="fault-injector",
                           kind=fault.kind, target=fault.target,
                           error=str(exc))

    def _links_for(self, fault: Fault):
        topo = self.network.topology
        if fault.kind in ("link", "degrade"):
            return [_target(topo.links, "link", fault)]
        # site outage: all links touching the site
        links = [l for l in topo.links.values()
                 if l.site == fault.target or l.src.site == fault.target
                 or l.dst.site == fault.target]
        if not links:
            raise KeyError(f"no links at site {fault.target!r}")
        return links


def _target(table: Dict[str, object], what: str, fault: Fault):
    """``table[fault.target]``, or a KeyError naming the missing target."""
    try:
        return table[fault.target]
    except KeyError:
        raise KeyError(f"unknown {what} {fault.target!r}") from None
