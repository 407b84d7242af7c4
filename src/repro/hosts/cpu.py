"""CPU throughput model: per-byte copies plus per-packet interrupts.

Moving a byte through the stack costs copy time; every arriving packet
costs an interrupt. Interrupt coalescing dispatches ``coalesce`` packets
per interrupt; jumbo frames raise the MTU. Either way, fewer interrupts
per byte → higher ceiling, which is exactly the §7 discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

# Packet payload of a jumbo frame, bytes.
JUMBO_MTU = 9000.0


@dataclass(frozen=True)
class CpuModel:
    """Throughput ceiling of one host CPU doing network I/O.

    Defaults approximate the SC'2000-era Linux workstations: without
    coalescing a GbE NIC saturates the CPU well below line rate; with
    8-way coalescing the host approaches (but does not quite reach) line
    rate with the CPU at ~100% — matching the paper's observation.

    Attributes
    ----------
    copy_cost_per_byte:
        Seconds of CPU per byte moved (memory copies, checksums).
    interrupt_cost:
        Seconds of CPU per interrupt serviced.
    mtu:
        Packet payload size in bytes (1500 Ethernet, 9000 jumbo).
    coalesce:
        Packets dispatched per interrupt (1 = coalescing off).
    """

    copy_cost_per_byte: float = 6e-9
    interrupt_cost: float = 25e-6
    mtu: float = 1500.0
    coalesce: int = 8

    def __post_init__(self) -> None:
        if self.copy_cost_per_byte <= 0 or self.interrupt_cost < 0:
            raise ValueError("costs must be positive")
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")
        if self.coalesce < 1:
            raise ValueError("coalesce must be >= 1")

    @property
    def seconds_per_byte(self) -> float:
        """Total CPU time consumed per byte of network I/O."""
        return (self.copy_cost_per_byte
                + self.interrupt_cost / (self.mtu * self.coalesce))

    @property
    def throughput_cap(self) -> float:
        """Maximum sustainable I/O rate, bytes/s (CPU at 100%)."""
        return 1.0 / self.seconds_per_byte

    def utilization(self, rate: float) -> float:
        """Fraction of the CPU consumed by I/O at ``rate`` bytes/s."""
        if rate < 0:
            raise ValueError("rate must be >= 0")
        return min(rate * self.seconds_per_byte, 1.0)

    def with_coalescing(self, coalesce: int) -> "CpuModel":
        """A copy of this model with a different coalescing factor."""
        return CpuModel(self.copy_cost_per_byte, self.interrupt_cost,
                        self.mtu, coalesce)

    def with_jumbo_frames(self) -> "CpuModel":
        """A copy of this model using jumbo frames (``JUMBO_MTU``)."""
        return CpuModel(self.copy_cost_per_byte, self.interrupt_cost,
                        JUMBO_MTU, self.coalesce)
