"""Full-recompute fluid allocator: the test-side oracle for FluidNetwork.

:class:`ReferenceFluidNetwork` keeps the allocator's original semantics
— a synchronous recompute of the whole network, as one fill, on every
mutation (cap changes that cannot move a rate included) — as the
trusted baseline. The incremental allocator (component scoping,
same-instant coalescing) must agree with it on randomized workloads;
the differential tests replay identical scripts against both.
"""

from __future__ import annotations

from typing import List

from repro.net.fluid import Flow, FluidNetwork, _PathGroup
from repro.net.topology import Link


class ReferenceFluidNetwork(FluidNetwork):
    """:class:`FluidNetwork` that refills every flow on every change."""

    def link_updated(self, link: Link) -> None:
        self.reallocate()

    def _mark_flow(self, flow: Flow) -> None:
        self._dirty_all = True
        self._flush_now()

    def _request_flush(self) -> None:
        self._dirty_all = True
        self._flush_now()

    def set_cap(self, flow: Flow, cap: float) -> None:
        # Refill even when the change cannot move a rate.
        if flow.active:
            flow.cap = min(float(cap), flow.limit)
            self._mark_flow(flow)

    def _scope(self, now: float) -> List[List[_PathGroup]]:
        # The whole network as one component: one fill over every flow's
        # path group.
        return [list(self._groups.values())]
