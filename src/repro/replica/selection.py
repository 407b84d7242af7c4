"""Replica selection policies.

RM step (3): "it selects the 'best' replica based on the NWS
information"; "the current implementation ... selects the 'best' replica
based on the highest bandwidth between the candidate replica and the
destination of the data transfer" (§5). Random and round-robin policies
exist as the ablation baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol

import numpy as np

from repro.obs import Counter, Family, Gauge, Observability
from repro.replica.catalog import LocationInfo


@dataclass(frozen=True)
class ReplicaCandidate:
    """A location annotated with forecast network performance."""

    location: LocationInfo
    bandwidth: float          # forecast bytes/s to the destination
    latency: float            # forecast one-way seconds
    stage_wait: float = 0.0   # expected HRM staging delay, seconds
    stale: bool = False       # came from a stale/cached catalog answer

    def transfer_estimate(self, nbytes: float) -> float:
        """Predicted seconds to move ``nbytes`` from this replica."""
        bw = max(self.bandwidth, 1.0)
        return self.stage_wait + self.latency + nbytes / bw


class SelectionPolicy(Protocol):
    """Ranks candidates; the first element of the result is tried first."""

    def rank(self, candidates: List[ReplicaCandidate],
             nbytes: float) -> List[ReplicaCandidate]:
        """Best-first ordering of the candidates."""
        ...  # pragma: no cover


_RANKS = Family(Counter, "replica.ranks_total", "policy")
_CANDIDATES = Family(Gauge, "replica.candidates", "policy")
_STALE = Family(Counter, "replica.stale_candidates_total", "policy")


def _record_rank(obs: Observability, policy: str,
                 candidates: List[ReplicaCandidate]) -> None:
    """Selection metrics shared by all policies."""
    children = obs.children
    children[_RANKS, policy].inc()
    children[_CANDIDATES, policy].set(len(candidates))
    n_stale = sum(1 for c in candidates if c.stale)
    if n_stale:
        children[_STALE, policy].inc(n_stale)


class NwsBestPolicy:
    """Highest forecast bandwidth first (the paper's policy).

    ``consider_staging`` additionally folds expected HRM staging time
    into the ranking for size-aware decisions.
    """

    def __init__(self, consider_staging: bool = False, obs=None):
        self.consider_staging = consider_staging
        self.obs = obs or Observability()

    def rank(self, candidates: List[ReplicaCandidate],
             nbytes: float) -> List[ReplicaCandidate]:
        _record_rank(self.obs, "nws-best", candidates)
        if self.consider_staging:
            return sorted(candidates,
                          key=lambda c: c.transfer_estimate(nbytes))
        return sorted(candidates, key=lambda c: -c.bandwidth)


class NwsSpreadPolicy:
    """NWS-guided selection that spreads concurrent load across sites.

    §4: "A RM can then plan concurrent file transfers to maximize the
    number of different sites from which files are obtained." Greedy
    per-file best-bandwidth selection sends every file of a burst to
    the same site; this policy rotates among the candidates whose
    (staging-aware) transfer estimate is within ``tolerance`` of the
    best, so a multi-file request drinks from several near-best
    replicas at once.
    """

    def __init__(self, tolerance: float = 0.5, obs=None):
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        self.tolerance = tolerance
        self.obs = obs or Observability()
        self._counter = 0

    def rank(self, candidates: List[ReplicaCandidate],
             nbytes: float) -> List[ReplicaCandidate]:
        _record_rank(self.obs, "nws-spread", candidates)
        if not candidates:
            return []
        ranked = sorted(candidates,
                        key=lambda c: c.transfer_estimate(nbytes))
        best = ranked[0].transfer_estimate(nbytes)
        cut = 1
        while (cut < len(ranked)
               and ranked[cut].transfer_estimate(nbytes)
               <= best * (1 + self.tolerance)):
            cut += 1
        top, rest = ranked[:cut], ranked[cut:]
        k = self._counter % len(top)
        self._counter += 1
        return top[k:] + top[:k] + rest


class RandomPolicy:
    """Uniform random order (ablation baseline)."""

    def __init__(self, rng: np.random.Generator, obs=None):
        self.rng = rng
        self.obs = obs or Observability()

    def rank(self, candidates: List[ReplicaCandidate],
             nbytes: float) -> List[ReplicaCandidate]:
        _record_rank(self.obs, "random", candidates)
        order = self.rng.permutation(len(candidates))
        return [candidates[i] for i in order]


class RoundRobinPolicy:
    """Rotates through replicas across successive calls (ablation
    baseline; also what a load-balancing selector without performance
    information would do)."""

    def __init__(self, obs=None):
        self.obs = obs or Observability()
        self._counter = 0

    def rank(self, candidates: List[ReplicaCandidate],
             nbytes: float) -> List[ReplicaCandidate]:
        _record_rank(self.obs, "round-robin", candidates)
        if not candidates:
            return []
        ordered = sorted(candidates, key=lambda c: c.location.name)
        k = self._counter % len(ordered)
        self._counter += 1
        return ordered[k:] + ordered[:k]
