"""The request manager: the per-file replica-selection + transfer pipeline.

The hardened pipeline layers control-plane fault tolerance over the
paper's four steps (lookup → forecast → rank → transfer):

- whole-file retry rounds with capped exponential backoff
  (:class:`~repro.rm.resilience.RetryPolicy`), jitter drawn from a named
  sim RNG stream so chaos runs are reproducible per seed;
- per-host circuit breakers shared across a ticket's file threads
  (:class:`~repro.rm.resilience.BreakerBoard`) so one dead server is not
  re-probed by every file;
- per-file / per-ticket deadlines enforced by a watchdog process that
  aborts in-flight transfers and finalizes the file as FAILED(deadline);
- degraded-mode ranking: when the MDS/NWS directory is unreachable,
  :meth:`RequestManager._rank` falls back to round-robin over cached
  last-known forecasts instead of failing the file;
- every failure carries a typed
  :class:`~repro.rm.resilience.FailureClass`, recorded on the ticket and
  emitted as a NetLogger ``rm.failure`` event.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.data.digest import file_digest
from repro.gridftp.client import GridFtpClient, TransferHandle
from repro.gridftp.protocol import (
    ACTION_NOT_TAKEN,
    FILE_UNAVAILABLE,
    GridFtpConfig,
    GridFtpError,
)
from repro.gridftp.restart import ReliabilityPolicy
from repro.gridftp.server import GridFtpServer
from repro.mds.service import MdsService
from repro.nws.service import NetworkWeatherService
from repro.obs import Counter, Family, Histogram, Observability
from repro.replica.catalog import LocationInfo, ReplicaCatalog
from repro.replica.selection import (
    NwsBestPolicy,
    ReplicaCandidate,
    SelectionPolicy,
)
from repro.rm.request import FileRequest, FileState, RequestTicket
from repro.rm.resilience import FailureClass, ResiliencePolicy
from repro.rm.scheduler import QueueFull, TransferScheduler
from repro.sim.core import Environment
from repro.storage.filesystem import FileSystem

_TERMINAL = (FileState.DONE, FileState.FAILED, FileState.CANCELLED)

# The path assumed for a replica with no NWS forecast (degraded-mode
# ranking): pessimistic by design so measured paths win.
FALLBACK_BANDWIDTH = 125000.0  # bytes/s: 1 Mb/s
FALLBACK_LATENCY = 0.1         # one-way seconds
# Bytes/s the verify-on-arrival checksum scan processes (the disk-read
# + CPU-hash pipeline).
CHECKSUM_RATE = 150 * 2**20

# Metric families of the per-file path (obs.children); failure paths
# use the keyword helpers.
_TICKETS = Family(Counter, "rm.tickets_total")
_FILES = Family(Counter, "rm.files_total", "outcome")
_FILE_SECONDS = Family(Histogram, "rm.file_seconds", "outcome")
_QUEUE_SECONDS = Family(Histogram, "rm.queue_seconds", "tenant")
_TRANSFERS = Family(Counter, "rm.transfers_total", "host")
_TRANSFER_BYTES = Family(Counter, "rm.transfer_bytes_total", "host")
_TENANT_BYTES = Family(Counter, "rm.tenant_bytes_total", "tenant")
_TRANSFER_SECONDS = Family(Histogram, "rm.transfer_seconds")
_TTFB = Family(Histogram, "rm.ttfb_seconds")
_TENANT_TTFB = Family(Histogram, "rm.tenant_ttfb_seconds", "tenant")
_VERIFIES = Family(Counter, "rm.verifies_total", "outcome")
_VERIFY_SECONDS = Family(Histogram, "rm.verify_seconds")
_TENANT_VERIFY = Family(Histogram, "rm.tenant_verify_seconds", "tenant")


class RequestManager:
    """Initiates, controls, and monitors multiple file transfers.

    Parameters
    ----------
    env:
        Simulation environment.
    catalog:
        The replica catalog (step 1 of the pipeline).
    mds:
        The MDS information service holding NWS forecasts (step 2).
    client:
        GridFTP client used for the gets (step 4).
    registry:
        hostname → :class:`GridFtpServer` (to reach HRMs and topology
        nodes for forecast keys).
    dest_host, dest_fs:
        Where fetched files land (the user's local site).
    policy:
        Replica selection policy (step 3); defaults to NWS-best.
    reliability:
        Optional low-rate switch policy (§7's plug-in). A fresh clone is
        used per attempt.
    nws:
        Optional NWS service; completed transfers are fed back as
        measurements.
    resilience:
        Optional :class:`~repro.rm.resilience.ResiliencePolicy` enabling
        retry rounds, circuit breakers, and default deadlines. ``None``
        preserves the original single-sweep behaviour exactly.
    obs:
        The RM's :class:`~repro.obs.Observability` bundle (unwired when
        omitted; the default policy shares it), its one emit path:
        pipeline metrics plus the ULM records — lifeline milestones
        (``rm.request`` → ``rm.select`` →
        ``gridftp.connect`` → ``gridftp.first_byte`` → terminal),
        ``rm.attempt`` / ``rm.attempt.failed`` (the tracer's attempt
        spans) and the ``rm.message`` lines of the Figure 4 monitor.
    scheduler:
        Optional shared :class:`~repro.rm.scheduler.TransferScheduler`.
        When set, every transfer attempt acquires an admission slot
        (per-server/per-link caps, DRR fairness across tickets) before
        connecting, uses the grant's budgeted stream count instead of
        the configured maximum, and releases the slot when the attempt
        ends. A full queue (:class:`~repro.rm.scheduler.QueueFull`) is
        treated as a transient candidate failure — visible
        backpressure, handled by the normal retry rounds.
    """

    def __init__(self, env: Environment, catalog: ReplicaCatalog,
                 mds: MdsService, client: GridFtpClient,
                 registry: Dict[str, GridFtpServer],
                 dest_host, dest_fs: FileSystem,
                 policy: Optional[SelectionPolicy] = None,
                 reliability: Optional[ReliabilityPolicy] = None,
                 nws: Optional[NetworkWeatherService] = None,
                 config: Optional[GridFtpConfig] = None,
                 resilience: Optional[ResiliencePolicy] = None,
                 obs: Optional[Observability] = None,
                 scheduler: Optional[TransferScheduler] = None,
                 tenant: str = "default"):
        self.env = env
        self.tenant = tenant
        self.catalog = catalog
        self.mds = mds
        self.client = client
        self.registry = registry
        self.dest_host = dest_host
        self.dest_fs = dest_fs
        self.obs = obs or Observability()
        self.policy = policy or NwsBestPolicy(obs=self.obs)
        self.reliability = reliability
        self.nws = nws
        self.config = config or GridFtpConfig()
        self.resilience = resilience
        self.scheduler = scheduler
        # Integrity pipeline state: replicas whose delivered digest
        # mismatched the catalog, keyed (collection, logical_file,
        # location name) → sim time of the mismatch. Quarantined copies
        # are demoted to last place in replica selection.
        self.quarantined: Dict[Tuple[str, str, str], float] = {}
        # Lifecycle hooks: fn(stage, file_request, info_dict), called at
        # "attempt" / "delivered" / "verified" / "integrity_failed" /
        # "failed". Used by the campaign engine's journal; call sites
        # test ``self.hooks`` first so no info dict is built without one.
        self.hooks: List = []
        # degraded-mode state: last known forecast per (src, dst) path,
        # and a rotation counter for round-robin over stale candidates.
        self._forecast_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self._degraded_counter = 0
        self._jitter_rng = (env.rng.stream("rm.retry.jitter")
                            if resilience is not None else None)

    # -- public API -------------------------------------------------------
    def add_hook(self, fn) -> None:
        """Register a lifecycle hook ``fn(stage, file_request, info)``.

        Stages: "attempt" (a replica attempt starts), "delivered"
        (bytes landed), "verified" (digest matched), "integrity_failed"
        (digest mismatch — replica quarantined), "failed" (terminal
        failure). Hooks must not yield. A hook runs only at these
        points, never mid-transfer, so it does not make the request
        manager sample an attempt's progress: ``fr.bytes_done`` is
        settled when the attempt ends.
        """
        self.hooks.append(fn)

    def _hook(self, stage: str, fr: FileRequest, **info) -> None:
        for fn in self.hooks:
            fn(stage, fr, info)

    def submit(self, requests: List[tuple],
               resolved: Optional[Dict[Tuple[str, str],
                                       List[LocationInfo]]] = None
               ) -> RequestTicket:
        """Accept a multi-file request; returns a live ticket.

        ``requests`` is a list of (collection, logical_file). One
        simulated "thread" (process) runs per file, concurrently. The
        resilience policy's ``file_deadline``/``ticket_deadline``, when
        set, are budgets in seconds from now.

        ``resolved`` optionally maps (collection, logical_file) → the
        pre-resolved :class:`LocationInfo` list for that file. Files
        found in the map skip the per-file catalog query — bulk
        campaigns resolve a whole manifest with one batched
        ``locations()`` sweep instead of 10⁴ timed LDAP searches.
        """
        res = self.resilience
        file_deadline = res.file_deadline if res is not None else None
        ticket_deadline = res.ticket_deadline if res is not None else None
        now = self.env.now
        files = [FileRequest(collection=c, logical_file=f)
                 for c, f in requests]
        if resolved:
            for fr in files:
                locs = resolved.get((fr.collection, fr.logical_file))
                if locs is not None:
                    fr.pinned_replicas = list(locs)
        if file_deadline is not None:
            for fr in files:
                fr.deadline_at = now + file_deadline
        ticket = RequestTicket(
            self.env, files,
            deadline_at=(now + ticket_deadline
                         if ticket_deadline is not None else None))
        if res is not None:
            ticket.breakers = res.board(obs=self.obs)
        self.obs.children[_TICKETS].inc()
        workers = [self.env.process(self._file_thread(ticket, fr))
                   for fr in files]
        self.env.all_of(workers).add_callback(ticket._on_files_ended)
        if file_deadline is not None or ticket_deadline is not None:
            self.env.process(self._deadline_watchdog(ticket))
        return ticket

    def request(self, requests: List[tuple]):
        """Simulation process: submit and wait; returns the ticket.

        This is the CDAT-facing entry point (call through a
        :class:`~repro.rm.rpc.CorbaChannel`).
        """
        ticket = self.submit(requests)
        yield ticket.done
        return ticket

    # -- pipeline ------------------------------------------------------------
    def _deadline_watchdog(self, ticket: RequestTicket):
        """Enforce per-file and per-ticket deadlines.

        At each due deadline, in-flight transfers of overdue files are
        aborted and the files finalized as FAILED(deadline); the ticket
        completes even if a file thread is still unwinding (e.g. stuck
        in a hung directory lookup that ends with the outage window).
        """
        env = self.env
        while True:
            pending = [f for f in ticket.files if f.state not in _TERMINAL]
            if not pending:
                return
            deadlines = [f.deadline_at for f in pending
                         if f.deadline_at is not None]
            if ticket.deadline_at is not None:
                deadlines.append(ticket.deadline_at)
            if not deadlines:
                return
            target = min(deadlines)
            if target > env.now:
                yield env.wait_for(ticket.done, target - env.now)
                if ticket.done.triggered:
                    return
            for fr in ticket.files:
                if fr.state in _TERMINAL:
                    continue
                limit = min(fr.deadline_at if fr.deadline_at is not None
                            else float("inf"),
                            ticket.deadline_at if ticket.deadline_at
                            is not None else float("inf"))
                if env.now >= limit:
                    handle = ticket._handles.get(fr.logical_file)
                    if handle is not None and not handle.done.triggered:
                        handle.abort("deadline exceeded")
                    self._fail(ticket, fr, "deadline exceeded",
                               FailureClass.DEADLINE)
            if ticket.complete and not ticket.done.triggered:
                ticket.done.succeed()
                return

    def _say(self, ticket: RequestTicket, text: str) -> None:
        """One Figure 4 monitor line, as an ``rm.message`` record."""
        self.obs.event("rm.message", prog="request-manager",
                       ticket=ticket.id_text, text=text)

    def _should_stop(self, ticket: RequestTicket, fr: FileRequest) -> bool:
        """Checkpoint between yields: True = stop, ``fr`` is finalized."""
        if fr.state in _TERMINAL:
            # The deadline watchdog (or a concurrent cancel) got here
            # first; nothing left to do.
            return True
        if ticket.cancelled:
            self._cancel(ticket, fr)
            return True
        if fr.deadline_at is not None and self.env.now >= fr.deadline_at:
            self._fail(ticket, fr, "deadline exceeded",
                       FailureClass.DEADLINE)
            return True
        if (ticket.deadline_at is not None
                and self.env.now >= ticket.deadline_at):
            self._fail(ticket, fr, "ticket deadline exceeded",
                       FailureClass.DEADLINE)
            return True
        return False

    def _backoff(self, ticket: RequestTicket, fr: FileRequest,
                 attempt: int):
        """Interruptible sleep before retry round ``attempt`` + 1."""
        delay = self.resilience.retry.delay(attempt, rng=self._jitter_rng)
        self.obs.event("rm.retry", prog="request-manager",
                       file=fr.logical_file, round=attempt,
                       ticket=ticket.id_text, backoff=f"{delay:.2f}")
        self.obs.count("rm.retries_total")
        self._say(ticket, f"{fr.logical_file}: retry round {attempt + 1} "
                  f"in {delay:.1f}s")
        # A cancelled ticket must not sit out the full backoff.
        yield self.env.wait_for(ticket.aborted, delay)

    def _file_thread(self, ticket: RequestTicket, fr: FileRequest):
        """One file's thread: lookup, rank, then replicas best-first.

        Emits the ``rm.request`` lifeline milestone and guarantees the
        outcome metrics fire however the thread exits, unless it is
        closed unfinished with its simulation. (One
        generator, not a wrapper around a body generator: every
        in-flight file holds this frame for its whole transfer.)
        """
        env = self.env
        fr.started_at = env.now
        obs = self.obs
        obs.event("rm.request", prog="request-manager",
                  ticket=ticket.id_text, file=fr.logical_file,
                  collection=fr.collection)
        closed = False
        try:
            if self._should_stop(ticket, fr):
                return
            rounds = (self.resilience.retry.max_rounds
                      if self.resilience is not None else 1)
            last_error = "no candidate attempted"
            last_class: Optional[FailureClass] = None
            for round_no in range(1, rounds + 1):
                if round_no > 1:
                    yield from self._backoff(ticket, fr, round_no - 1)
                    if self._should_stop(ticket, fr):
                        return
                fr.state = FileState.SELECTING
                # (1) replica lookup — skipped for pre-resolved (campaign)
                # files, whose locations came from one batched catalog sweep.
                # A federated catalog returns (locations, QueryMeta): the
                # answer may be stale (cached / lagging shard) or partial
                # (a shard was down), and selection proceeds anyway —
                # verify-on-open catches entries that outlived the replica.
                lookup_meta = None
                if fr.pinned_replicas is not None:
                    replicas = list(fr.pinned_replicas)
                else:
                    finder = getattr(self.catalog, "find_replicas_meta", None)
                    try:
                        if finder is not None:
                            replicas, lookup_meta = yield from finder(
                                fr.collection, fr.logical_file)
                        else:
                            replicas = yield from self.catalog.find_replicas(
                                fr.collection, fr.logical_file)
                    except Exception as exc:
                        if self._should_stop(ticket, fr):
                            return
                        last_error = f"replica lookup failed: {exc}"
                        last_class = FailureClass.LOOKUP
                        continue
                    if self._should_stop(ticket, fr):
                        return
                    if lookup_meta is not None and lookup_meta.stale:
                        fr.stale_lookups += 1
                        self.obs.count("rm.stale_lookups_total")
                if not replicas:
                    if lookup_meta is not None and (lookup_meta.partial
                                                    or lookup_meta.stale):
                        # A degraded answer may simply be missing the entry;
                        # retry rounds can see a healthier federation.
                        last_error = "no replicas in partial/stale answer"
                        last_class = FailureClass.LOOKUP
                        continue
                    # Permanent: no amount of retrying invents a replica.
                    self._fail(ticket, fr, "no replicas registered",
                               FailureClass.LOOKUP)
                    return
                size = self.catalog.logical_file_size(fr.collection,
                                                      fr.logical_file)
                if size is not None:
                    fr.size = size
                # (2)+(3) forecast and rank; then try candidates best-first,
                # with the reliability plug-in able to force a switch
                # mid-transfer.
                candidates = yield from self._rank(
                    ticket, replicas, fr,
                    stale=lookup_meta is not None and lookup_meta.stale)
                if self._should_stop(ticket, fr):
                    return
                if self.quarantined:
                    candidates = self._quarantined_last(fr, candidates)
                if candidates:
                    self.obs.event("rm.select", prog="request-manager",
                                   ticket=ticket.id_text, file=fr.logical_file,
                                   host=candidates[0].location.hostname,
                                   candidates=len(candidates))
                self._say(ticket, f"selecting replica for {fr.logical_file}: "
                          + ", ".join(f"{c.location.hostname}"
                                      f"@{mbps_str(c.bandwidth)}"
                                      for c in candidates))
                # Only the locations are used from here on: the ranked
                # candidates and the lookup answer are not held through the
                # transfers.
                locations = [c.location for c in candidates]
                del replicas, candidates
                board = ticket.breakers
                for loc in locations:
                    if self._should_stop(ticket, fr):
                        return
                    if loc.hostname not in self.registry:
                        last_error = f"no server for {loc.hostname}"
                        last_class = FailureClass.CONNECT
                        continue
                    breaker = (board.for_host(loc.hostname)
                               if board is not None else None)
                    if breaker is not None and not breaker.allow(env.now):
                        fr.breaker_skips += 1
                        last_error = (f"{loc.hostname}: circuit open, "
                                      "skipped")
                        last_class = FailureClass.CONNECT
                        continue
                    fr.chosen_location = loc.name
                    fr.tried_locations.append(loc.name)
                    self._say(ticket, f"transfer of {fr.logical_file} from "
                              f"{loc.hostname} initiated")
                    ok, err, fclass = yield from self._attempt(fr, loc, ticket)
                    if ok:
                        if breaker is not None:
                            breaker.record_success()
                        fr.state = FileState.DONE
                        fr.finished_at = env.now
                        self._say(ticket, f"{fr.logical_file}: complete from "
                                  f"{loc.hostname}")
                        return
                    if fclass is FailureClass.STALE:
                        # The host is healthy; the *catalog entry* outlived
                        # the replica. Demote the entry (not the host) so
                        # re-selection and future lookups skip it until the
                        # collection is refreshed.
                        self._demote_stale(ticket, fr, loc)
                    elif breaker is not None:
                        breaker.record_failure(env.now)
                    if self._should_stop(ticket, fr):
                        return
                    last_error, last_class = err, fclass
                    fr.replica_switches += 1
                    self._say(ticket, f"{fr.logical_file}: switching replica "
                              f"after {err}")
            self._fail(ticket, fr, last_error, last_class)
        except GeneratorExit:
            # Closed unfinished because its simulation was dropped: there
            # is no outcome to count, and a metric child made here would
            # be a new object referring to the dropped environment, which
            # keeps the whole simulation alive for one more collection.
            closed = True
            raise
        finally:
            if not closed:
                outcome = fr.state.value
                obs.children[_FILES, outcome].inc()
                if fr.finished_at is not None:
                    obs.children[_FILE_SECONDS, outcome].observe(
                        fr.finished_at - fr.started_at)

    def _rank(self, ticket: RequestTicket, replicas: List[LocationInfo],
              fr: FileRequest, stale: bool = False):
        """Forecast-and-rank; degrades gracefully when MDS is down.

        Healthy path: live NWS forecasts via MDS, ranked by the
        selection policy (and every forecast refreshes the cache). If
        any lookup raises (directory outage), the ranking is rebuilt
        from cached last-known forecasts — or the module's fallback
        constants where no history exists — and rotated round-robin so
        blind retries spread across replicas instead of hammering one.
        """
        candidates = []
        degraded = False
        for loc in replicas:
            server = self.registry.get(loc.hostname)
            forecast = None
            path_key = None
            live = False
            if server is not None:
                path_key = (server.host.node, self.dest_host.node)
                try:
                    forecast = yield from self.mds.nws_forecast(
                        server.host.node, self.dest_host.node)
                    live = forecast is not None
                except Exception:
                    degraded = True
                    forecast = self._forecast_cache.get(path_key)
            if forecast is not None:
                bandwidth, latency = forecast
                if live:
                    self._forecast_cache[path_key] = (bandwidth, latency)
            else:
                # Unmeasured path: fall back to a conservative constant
                # so measured paths are preferred.
                bandwidth = FALLBACK_BANDWIDTH
                latency = FALLBACK_LATENCY
            stage_wait = 0.0
            if server is not None and server.hrm is not None \
                    and not server.hrm.is_staged(fr.logical_file):
                stage_wait = server.hrm.estimate_wait(fr.logical_file)
            candidates.append(ReplicaCandidate(
                loc, bandwidth=bandwidth, latency=latency,
                stage_wait=stage_wait, stale=stale))
        if degraded:
            fr.degraded_rankings += 1
            self.obs.count("rm.degraded_ranks_total")
            self.obs.event("rm.rank.degraded", prog="request-manager",
                           ticket=ticket.id_text, file=fr.logical_file,
                           candidates=len(candidates))
            self._say(ticket, f"{fr.logical_file}: MDS unreachable, "
                      "ranking from cached forecasts (round-robin)")
            ordered = sorted(candidates, key=lambda c: c.location.name)
            k = self._degraded_counter % len(ordered) if ordered else 0
            self._degraded_counter += 1
            return ordered[k:] + ordered[:k]
        return self.policy.rank(candidates, fr.size)

    def _quarantined_last(self, fr: FileRequest,
                          candidates: List[ReplicaCandidate]
                          ) -> List[ReplicaCandidate]:
        """Quarantined copies (past digest mismatches) go to the back of
        the line: still reachable as a last resort, never preferred over
        an untainted replica. (A method of its own, so the comprehensions
        put no closure cells in the long-lived per-file frame.)"""
        fresh = [c for c in candidates
                 if (fr.collection, fr.logical_file,
                     c.location.name) not in self.quarantined]
        quar = [c for c in candidates if c not in fresh]
        return fresh + quar

    def _classify(self, exc: GridFtpError) -> FailureClass:
        """Map a transfer-layer error onto the failure taxonomy."""
        text = str(exc.reply).lower()
        if "deadline" in text:
            return FailureClass.DEADLINE
        if exc.reply.code == ACTION_NOT_TAKEN or "staging" in text:
            return FailureClass.STAGING
        if exc.reply.code == FILE_UNAVAILABLE and "no such file" in text:
            # The server answered but cannot produce the file: the
            # catalog entry is stale, not the host.
            return FailureClass.STALE
        return FailureClass.TRANSFER

    def _demote_stale(self, ticket: RequestTicket, fr: FileRequest,
                      loc: LocationInfo) -> None:
        """Verify-on-open mismatch: hide the entry, not the host.

        A federated catalog owns the demotion registry (and emits the
        ``catalog.demote`` lifeline event); against a plain catalog the
        RM's quarantine map stands in, with the same event emitted here
        so lifelines agree across catalog kinds.
        """
        fr.stale_demotes += 1
        demote = getattr(self.catalog, "demote", None)
        if demote is not None:
            demote(fr.collection, fr.logical_file, loc.name,
                   ticket=ticket.id_text)
        else:
            self.quarantined[(fr.collection, fr.logical_file,
                              loc.name)] = self.env.now
            self.obs.event("catalog.demote", prog="request-manager",
                           ticket=ticket.id_text, collection=fr.collection,
                           file=fr.logical_file, location=loc.name)
            self.obs.count("catalog.demotes_total")
        self.obs.count("rm.stale_demotes_total")
        self._say(ticket, f"{fr.logical_file}: stale catalog entry at "
                  f"{loc.name} demoted")

    def _acquire_slot(self, fr: FileRequest, loc: LocationInfo,
                      ticket: RequestTicket, handle: TransferHandle):
        """Admission control: wait for a scheduler grant for this attempt.

        Returns ``(grant, error, failure_class)`` — exactly one of
        ``grant`` / ``error`` is set. ``grant`` is ``None`` with no
        error only when the scheduler is disabled.
        """
        if self.scheduler is None:
            return None, None, None
        try:
            # Interactive tickets (few files) outrank bulk replication;
            # the scheduler's aging keeps the bulk class
            # starvation-bounded.
            grant = yield from self.scheduler.acquire(
                loc.hostname, flow=f"ticket-{ticket.id}", size=fr.size,
                streams=self.config.parallelism,
                priority=len(ticket.files),
                abort=handle.abort_event)
        except QueueFull as exc:
            self._say(ticket, f"{fr.logical_file}: {exc}")
            return None, str(exc), FailureClass.CONNECT
        if grant is None:  # aborted (deadline/cancel) while queued
            return (None, f"aborted while queued "
                    f"({handle.abort_reason or 'abort'})",
                    FailureClass.TRANSFER)
        return grant, None, None

    def _attempt(self, fr: FileRequest, loc: LocationInfo,
                 ticket: RequestTicket):
        """One replica attempt; returns (ok, error_text, failure_class).

        Opens with an ``rm.attempt`` record; a failed exit logs
        ``rm.attempt.failed``, a successful one ``rm.transfer.done``.
        """
        env = self.env
        server = self.registry[loc.hostname]
        handle = TransferHandle(env, fr.logical_file, fr.size)
        handle.ticket = ticket.id_text
        ticket._handles[fr.logical_file] = handle
        policy = (self.reliability.clone()
                  if self.reliability is not None else None)
        if server.hrm is not None:
            # Dataset-aware prefetch: hand the HRM the ticket's full
            # logical-file list so it can stage not-yet-requested
            # siblings during idle drive time.
            server.hrm.hint_dataset(
                [f.logical_file for f in ticket.files])
        if server.hrm is not None and not server.hrm.is_staged(
                fr.logical_file) and server.hrm.mss.has(fr.logical_file):
            fr.state = FileState.STAGING
            self._say(ticket, f"{fr.logical_file}: staging from MSS at "
                      f"{loc.hostname}")
        self.obs.event("rm.attempt", prog="request-manager",
                       host=loc.hostname, ticket=ticket.id_text,
                       file=fr.logical_file)
        if self.hooks:
            self._hook("attempt", fr, host=loc.hostname, location=loc.name)
        if self.scheduler is not None:
            # Lifeline milestone: admission-queue wait starts here and
            # ends at rm.granted, so queue time is blamed on the
            # scheduler rather than folded into connect time.
            self.obs.event("rm.queue", prog="request-manager",
                           host=loc.hostname, ticket=ticket.id_text,
                           file=fr.logical_file)
        grant, err, fclass = yield from self._acquire_slot(
            fr, loc, ticket, handle)
        if err is not None:
            self.obs.event("rm.attempt.failed", prog="request-manager",
                           host=loc.hostname, ticket=ticket.id_text,
                           file=fr.logical_file, error="admission")
            return False, err, fclass
        if grant is not None:
            self.obs.event("rm.granted", prog="request-manager",
                           host=loc.hostname, ticket=ticket.id_text,
                           file=fr.logical_file, waited=f"{grant.waited:.3f}")
            self.obs.children[_QUEUE_SECONDS, self.tenant].observe(
                grant.waited)
        # Admitted: the grant's stream budget replaces the configured
        # maximum, so the server's parallel-stream budget is split
        # across admitted transfers instead of multiplied by them.
        cfg = self.config
        if grant is not None and grant.streams != cfg.parallelism:
            cfg = dataclasses.replace(cfg, parallelism=grant.streams)
        started = env.now  # queue wait is the scheduler's metric, not NWS's
        try:
            try:
                session = yield from self.client.connect(
                    self.dest_host, loc.hostname, cfg)
            except GridFtpError as exc:
                self.obs.event("rm.attempt.failed", prog="request-manager",
                               host=loc.hostname, ticket=ticket.id_text,
                               file=fr.logical_file, error="connect")
                return (False, f"connect failed ({exc.reply.code})",
                        FailureClass.CONNECT)
            connected_at = env.now
            self.obs.event(
                "gridftp.connect", prog="gridftp", host=loc.hostname,
                file=fr.logical_file, ticket=ticket.id_text)
            # Verify-on-open: the catalog entry may be stale (cached or
            # lagging-shard answer). Probe before committing streams;
            # a server that cannot produce the file fails the attempt as
            # STALE so the caller demotes the entry, not the host.
            if hasattr(server, "exists") \
                    and not server.exists(fr.logical_file):
                session.close()
                self.obs.event("rm.attempt.failed", prog="request-manager",
                               host=loc.hostname, ticket=ticket.id_text,
                               file=fr.logical_file, error="stale")
                return (False, f"{loc.hostname}: no such file "
                        "(stale catalog entry)", FailureClass.STALE)
            transfer = env.process(session.get(
                fr.logical_file, self.dest_fs, self.dest_host,
                handle=handle, config=cfg, record=cfg.record_series))
            sampled = self._sampled(ticket, policy)
            try:
                if sampled:
                    stats = yield from self._sample_progress(
                        transfer, handle, fr, cfg.progress_poll, policy,
                        started)
                else:
                    # Nothing reads this file's progress before the
                    # attempt ends, so no tick is scheduled; a failure
                    # raises here.
                    stats = yield transfer
            except GridFtpError as exc:
                if not sampled and env.now > connected_at + cfg.progress_poll:
                    # What the first progress sample would have left.
                    fr.size = max(fr.size, handle.total)
                fr.bytes_done = handle.bytes_done()
                session.close()
                self.obs.event("rm.attempt.failed", prog="request-manager",
                               host=loc.hostname, ticket=ticket.id_text,
                               file=fr.logical_file, error=exc.reply)
                return False, str(exc.reply), self._classify(exc)
            fr.bytes_done = stats.transferred_bytes
            fr.size = stats.transferred_bytes
            fr.restarts += stats.restarts
            elapsed = max(env.now - started, 1e-9)
            if self.nws is not None and stats.transferred_bytes > 0:
                self.nws.observe(server.host.node, self.dest_host.node,
                                 stats.transferred_bytes / elapsed,
                                 self.client.transport.network.topology.rtt(
                                     server.host.node,
                                     self.dest_host.node) / 2)
            children = self.obs.children
            children[_TRANSFERS, loc.hostname].inc()
            children[_TRANSFER_BYTES, loc.hostname].inc(
                stats.transferred_bytes)
            children[_TENANT_BYTES, self.tenant].inc(
                stats.transferred_bytes)
            children[_TRANSFER_SECONDS].observe(elapsed)
            if handle.first_byte_at is not None:
                ttfb = handle.first_byte_at - connected_at
                children[_TTFB].observe(ttfb)
                children[_TENANT_TTFB, self.tenant].observe(ttfb)
            if self.hooks:
                self._hook("delivered", fr, host=loc.hostname,
                           location=loc.name,
                           bytes=stats.transferred_bytes)
            # Milestone: closes the stream stage, so checksum time is
            # blamed on verify rather than on the WAN.
            self.obs.event("rm.verify", prog="request-manager",
                           host=loc.hostname, ticket=ticket.id_text,
                           file=fr.logical_file)
            ok, verr = yield from self._verify_arrival(ticket, fr, loc, cfg,
                                                       stats)
            if not ok:
                # Quarantine + delete happened inside _verify_arrival;
                # the grant release in the finally below stays the one
                # and only release for this attempt.
                self.obs.event("rm.attempt.failed", prog="request-manager",
                               host=loc.hostname, ticket=ticket.id_text,
                               file=fr.logical_file, error="integrity")
                session.close()
                return False, verr, FailureClass.INTEGRITY
            # Terminal event only once the delivered bytes passed (or
            # skipped) verification — an integrity-failed attempt must
            # not leave a "done" lifeline behind.
            self.obs.event("rm.transfer.done", prog="request-manager",
                           host=loc.hostname, ticket=ticket.id_text,
                           file=fr.logical_file,
                           bytes=f"{stats.transferred_bytes:.0f}",
                           seconds=f"{elapsed:.3f}")
            session.close()
            return True, "", None
        finally:
            if grant is not None:
                self.scheduler.release(grant,
                                       bytes_done=handle.bytes_done())

    def _sampled(self, ticket: RequestTicket,
                 policy: Optional[ReliabilityPolicy]) -> bool:
        """Whether anything reads an attempt's progress before it ends:
        the reliability plug-in (its rate samples) or a
        :class:`~repro.rm.monitor.TransferMonitor` on the ticket
        (``fr.bytes_done`` and ``fr.state``). A lifecycle hook does not
        count: it runs when an attempt starts or after it ends, never
        mid-transfer. Decided when the attempt starts; only such an
        attempt samples its progress."""
        return policy is not None or ticket.monitored

    def _sample_progress(self, transfer, handle: TransferHandle,
                         fr: FileRequest, poll: float,
                         policy: Optional[ReliabilityPolicy],
                         started: float):
        """Simulation process: (5) monitor progress "every few seconds".

        Every ``poll`` seconds ``fr`` takes the handle's delivered bytes
        (and the transferring state once bytes flow) and the reliability
        plug-in gets a rate sample; returns the transfer's stats. A
        failing transfer raises at the wait_for yield (it propagates the
        failure).
        """
        env = self.env
        last_bytes = 0.0
        while not transfer.triggered:
            yield env.wait_for(transfer, poll)
            if transfer.triggered:
                break
            done_now = handle.bytes_done()
            if done_now > 0 and fr.state is not FileState.TRANSFERRING:
                fr.state = FileState.TRANSFERRING
            fr.bytes_done = done_now
            fr.size = max(fr.size, handle.total)
            rate = (done_now - last_bytes) / poll
            last_bytes = done_now
            if policy is not None and policy.observe(env.now - started,
                                                     rate):
                handle.abort("reliability plug-in: rate below threshold")
        # A failure landing in the instant a tick won is read here, not
        # at the yield, so it is ours to defuse.
        transfer.defuse()
        return transfer.value

    def _verify_arrival(self, ticket: RequestTicket, fr: FileRequest,
                        loc: LocationInfo, cfg: GridFtpConfig, stats):
        """Verify-on-arrival: recompute the delivered file's digest.

        Simulation process returning ``(ok, error_text)``. A no-op when
        verification is disabled or the catalog holds no publish-time
        digest for the file. The checksum scan is cost-modeled at
        ``CHECKSUM_RATE`` and runs while the attempt's scheduler
        grant is still held, so verification load stays visible to
        admission control. On a mismatch the source replica is
        quarantined (demoted in future selections), the bad local copy
        is deleted, and the caller's candidate loop / retry rounds
        re-transfer from a different replica.
        """
        if not cfg.verify_checksum:
            return True, ""
        expected = self.catalog.logical_file_digest(fr.collection,
                                                    fr.logical_file)
        if expected is None:
            return True, ""
        scan = stats.transferred_bytes / CHECKSUM_RATE
        if scan > 0:
            yield self.env.timeout(scan)
        fr.verify_seconds += scan
        delivered = self.dest_fs.stat(fr.logical_file)
        actual = file_digest(delivered)
        if actual == expected:
            fr.verified = True
            children = self.obs.children
            children[_VERIFIES, "ok"].inc()
            children[_VERIFY_SECONDS].observe(scan)
            children[_TENANT_VERIFY, self.tenant].observe(scan)
            if self.hooks:
                self._hook("verified", fr, host=loc.hostname,
                           location=loc.name, seconds=scan,
                           bytes=stats.transferred_bytes)
            return True, ""
        fr.integrity_failures += 1
        fr.verified = False
        self.quarantined[(fr.collection, fr.logical_file,
                          loc.name)] = self.env.now
        if self.dest_fs.exists(fr.logical_file):
            self.dest_fs.delete(fr.logical_file)
        self._say(ticket, f"{fr.logical_file}: digest mismatch from "
                  f"{loc.hostname} — replica quarantined")
        self.obs.event("rm.integrity.mismatch", prog="request-manager",
                       host=loc.hostname, ticket=ticket.id_text,
                       file=fr.logical_file, location=loc.name,
                       expected=expected, actual=actual)
        self.obs.children[_VERIFIES, "mismatch"].inc()
        self.obs.count("rm.integrity_failures_total",
                       host=loc.hostname)
        if self.hooks:
            self._hook("integrity_failed", fr, host=loc.hostname,
                       location=loc.name)
        return False, f"digest mismatch from {loc.hostname}"

    def _cancel(self, ticket: RequestTicket, fr: FileRequest) -> None:
        if fr.state in _TERMINAL:
            return
        fr.state = FileState.CANCELLED
        fr.finished_at = self.env.now
        self._say(ticket, f"{fr.logical_file}: cancelled")
        self.obs.event("rm.cancelled", prog="request-manager",
                       ticket=ticket.id_text, file=fr.logical_file)

    def _fail(self, ticket: RequestTicket, fr: FileRequest, reason: str,
              failure_class: Optional[FailureClass] = None) -> None:
        if fr.state in _TERMINAL:
            return
        fr.state = FileState.FAILED
        fr.error = reason
        fr.failure_class = failure_class
        fr.finished_at = self.env.now
        label = failure_class.value if failure_class is not None else "?"
        self._say(ticket, f"{fr.logical_file}: FAILED [{label}] ({reason})")
        self.obs.event("rm.failure", prog="request-manager",
                       file=fr.logical_file, cls=label,
                       ticket=ticket.id_text, reason=reason)
        self.obs.count("rm.failures_total", cls=label)
        if self.hooks:
            self._hook("failed", fr, reason=reason, cls=label)


def mbps_str(bandwidth: float) -> str:
    """bytes/s → short Mb/s label for monitor messages."""
    return f"{bandwidth * 8 / 1e6:.0f}Mb/s"
