"""The member cap change as it was before it learned what to skip: the
test-side oracle for ``FluidNetwork.member_set_cap``.

:class:`ReferenceMemberCapNetwork` advances the aggregate, settles the
member, reweights and re-predicts it, and refreshes the aggregate's
remaining bytes on every call, whatever the call changes. The allocator's
version skips the advance when the aggregate already stands at this
instant, leaves the refresh to the flush, and only renews the completion
entry of a member whose cap and settle point are unchanged; finish times,
served bytes and ``done`` order must not move
(``tests/net/test_member_cap_differential.py``).
"""

from __future__ import annotations

from repro.net.fluid import _EPS_RATE, FluidNetwork, _AggregateMember


class ReferenceMemberCapNetwork(FluidNetwork):
    """:class:`FluidNetwork` with the full member cap change."""

    def member_set_cap(self, member: _AggregateMember, cap: float) -> None:
        if not member.active:
            return
        agg = member._agg
        now = self.env.now
        self._advance(agg, now)
        if not member.active:
            return  # the advance retired it (completion due exactly now)
        v = agg._v
        member._served0 = min(member._served_at(v), member.size)
        member._v0 = v
        old = member.cap
        member.cap = min(float(cap), member.limit)
        agg._W += member.cap - old
        agg.cap = agg._W
        member._pred_version += 1
        if member.cap > _EPS_RATE:
            agg._push(member, v + (member.size - member._served0) / member.cap)
        agg._refresh_remaining()
        stall = member._stall
        if stall is not None and stall.moving is not None:
            moving = agg.rate > 0.0 and member.cap > 0.0
            if stall.moving is not moving:
                stall.settle(moving, now)
        self._mark_flow(agg)
