"""Disk and software-RAID throughput model."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DiskSpec:
    """One spindle.

    Attributes
    ----------
    rate:
        Sustained sequential transfer rate, bytes/s. Era-typical values:
        ~10 MB/s for a commodity IDE disk (the Figure 8 bottleneck),
        ~30 MB/s for a good SCSI disk.
    """

    rate: float = 30 * 2**20

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("disk rate must be positive")


@dataclass(frozen=True)
class DiskArray:
    """``count`` spindles striped by software RAID-0.

    The paper: "We used multiple disks with software RAID to ensure that
    disk was not the bottleneck."

    Attributes
    ----------
    spec:
        The per-spindle spec.
    count:
        Number of spindles striped together.
    raid_overhead:
        Fractional throughput loss to the software RAID layer.
    """

    spec: DiskSpec = DiskSpec()
    count: int = 1
    raid_overhead: float = 0.05

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one disk")
        if not (0.0 <= self.raid_overhead < 1.0):
            raise ValueError("raid_overhead must be in [0, 1)")

    @property
    def rate(self) -> float:
        """Aggregate sequential rate of the array, bytes/s."""
        scale = 1.0 if self.count == 1 else (1.0 - self.raid_overhead)
        return self.spec.rate * self.count * scale
