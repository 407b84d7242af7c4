"""User-written fault-recovery policies.

§7: "A reliability plug-in was written that monitored performance and if
data transfer rates dropped below a certain, user configurable, point,
an alternate replica would be selected." :class:`ReliabilityPolicy` is
that plug-in's decision logic; the request manager consults it while
polling transfer progress and, when it fires, aborts the current GridFTP
get and re-issues it against the next-best replica.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class ReliabilityPolicy:
    """User-configurable low-rate detection.

    Attributes
    ----------
    min_rate:
        Bytes/s below which the transfer counts as underperforming.
    grace_period:
        Seconds after transfer start before the policy may fire (lets
        slow start and staging finish).
    consecutive_samples:
        How many consecutive underperforming samples trigger a switch.
    """

    min_rate: float
    grace_period: float = 15.0
    consecutive_samples: int = 3

    def __post_init__(self) -> None:
        if self.min_rate <= 0:
            raise ValueError("min_rate must be positive")
        if self.grace_period < 0 or self.consecutive_samples < 1:
            raise ValueError("bad policy configuration")
        self._low_count = 0

    def observe(self, elapsed: float, rate: float) -> bool:
        """Feed one progress sample; True = switch replicas now."""
        if elapsed < self.grace_period:
            return False
        if rate < self.min_rate:
            self._low_count += 1
        else:
            self._low_count = 0
        if self._low_count >= self.consecutive_samples:
            self._low_count = 0
            return True
        return False

    def clone(self) -> "ReliabilityPolicy":
        """A pristine copy of this policy (no accumulated samples).

        Each transfer attempt gets its own instance so concurrent file
        threads never share low-rate counters; ``dataclasses.replace``
        copies every field, so policies grown new attributes clone
        correctly without call-site updates.
        """
        return dataclasses.replace(self)
