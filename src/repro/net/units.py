"""Unit conventions and conversion helpers.

Internal convention, used everywhere in ``repro``:

- **time** — seconds (float);
- **data sizes** — bytes (float; fractional bytes are fine in a fluid model);
- **rates** — bytes/second.

The paper quotes rates in bits/second (Mb/s, Gb/s); the helpers here
convert at module boundaries so the core never mixes units.
"""

from __future__ import annotations

# Sizes in bytes.
KB = 1024.0
MB = 1024.0 ** 2
GB = 1024.0 ** 3
TB = 1024.0 ** 4

# Rates: bits per second expressed in bytes/second.
KILOBIT = 1000.0 / 8.0
MEGABIT = 1_000_000.0 / 8.0
GIGABIT = 1_000_000_000.0 / 8.0


def mbps(x: float) -> float:
    """Megabits/second → bytes/second."""
    return x * MEGABIT


def gbps(x: float) -> float:
    """Gigabits/second → bytes/second."""
    return x * GIGABIT


def to_mbps(bytes_per_second: float) -> float:
    """Bytes/second → megabits/second."""
    return bytes_per_second / MEGABIT


def to_gbps(bytes_per_second: float) -> float:
    """Bytes/second → gigabits/second."""
    return bytes_per_second / GIGABIT
