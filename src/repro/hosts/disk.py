"""Disk and software-RAID throughput model."""

from __future__ import annotations

from dataclasses import dataclass

# Fractional throughput a multi-spindle array loses to software RAID.
RAID_OVERHEAD = 0.05


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
        Number of spindles striped together; more than one loses
        ``RAID_OVERHEAD`` of the throughput to the software RAID layer.
    """

    spec: DiskSpec = DiskSpec()
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one disk")

    @property
    def rate(self) -> float:
        """Aggregate sequential rate of the array, bytes/s."""
        scale = 1.0 if self.count == 1 else (1.0 - RAID_OVERHEAD)
        return self.spec.rate * self.count * scale
