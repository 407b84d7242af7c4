"""TCP stream behaviour layered on the fluid model.

A :class:`TcpStream` owns the congestion state of one TCP connection and
drives the *cap* of whatever flow is currently attached to it:

- **window limit** — the cap never exceeds ``cwnd / RTT``, and ``cwnd``
  never exceeds the negotiated buffer size. This is why the paper's §7
  insists on setting buffers to the bandwidth–delay product.
- **slow start** — ``cwnd`` doubles once per RTT from its initial value,
  so short transfers on fresh connections never reach full speed (the
  inter-transfer dips of Figure 8).
- **loss response** — Reno-style: on a loss event, ``cwnd`` halves, then
  regrows linearly (approximated with a few coarse steps to keep the
  event count bounded over multi-hour simulations).

The congestion window *persists across transfers* on the same stream
object; GridFTP data-channel caching exploits exactly this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.net.fluid import Flow
from repro.sim.core import Environment, EventPriority

INIT_CWND_SEGMENTS = 2   # initial congestion window, in segments
RECOVERY_STEPS = 6       # coarse steps approximating linear regrowth


def bdp_buffer_size(bandwidth: float, rtt: float) -> float:
    """Bandwidth–delay product: ideal TCP buffer in bytes.

    ``bandwidth`` is in bytes/s, ``rtt`` in seconds. The paper's §7 formula
    (Buffer KB = Mb/s × ms × 1024/1000/8) is this same product expressed
    in mixed units.
    """
    if bandwidth < 0 or rtt < 0:
        raise ValueError("bandwidth and rtt must be non-negative")
    return bandwidth * rtt


@dataclass(frozen=True)
class TcpParams:
    """Tunables for a TCP stream (immutable, so connections with the
    same settings may share one object).

    Attributes
    ----------
    mss:
        Maximum segment size in bytes.
    buffer_bytes:
        Negotiated send/receive buffer: hard ceiling on ``cwnd``. The
        64 KB default mirrors the untuned-stack default the paper warns
        about; SC'2000 runs used 1 MB.
    loss_rate:
        Mean random-loss events per second on this stream (Poisson).
    stall_timeout:
        Seconds of zero progress after which the transport declares the
        connection dead (network outage → restart logic upstream).
    stall_poll:
        Tick grid of the stall watchdog (:meth:`Connection.watch
        <repro.net.transport.Connection.watch>`): a stalled flow is
        aborted on the first tick, every ``stall_poll`` seconds from the
        watch's start, at least ``stall_timeout`` after the last tick
        that saw progress. No tick is scheduled; the grid only places
        that instant. The default (``None``) is
        ``min(stall_timeout / 4, 5)`` s.
    """

    mss: float = 1460.0
    buffer_bytes: float = 64 * 1024.0
    loss_rate: float = 0.0
    stall_timeout: float = 30.0
    stall_poll: Optional[float] = None

    def poll_interval(self, timeout: float) -> float:
        """Spacing of the stall watchdog's tick grid for a stall budget
        of ``timeout`` seconds."""
        if self.stall_poll is not None:
            return self.stall_poll
        return min(timeout / 4.0, 5.0)

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.stall_poll is not None and self.stall_poll <= 0:
            raise ValueError("stall_poll must be positive")
        if self.buffer_bytes < self.mss:
            raise ValueError("buffer must hold at least one segment")
        if self.loss_rate < 0:
            raise ValueError("loss_rate must be >= 0")

    @property
    def init_cwnd(self) -> float:
        """Initial congestion window in bytes."""
        return INIT_CWND_SEGMENTS * self.mss


class TcpStream:
    """Congestion state for one TCP connection.

    Parameters
    ----------
    env:
        Simulation environment.
    rtt:
        Round-trip time of the connection's path, seconds.
    params:
        :class:`TcpParams`.
    rng:
        Numpy generator for loss sampling (required if loss_rate > 0).
    """

    __slots__ = ("env", "rtt", "params", "rng", "cwnd", "losses")

    def __init__(self, env: Environment, rtt: float, params: TcpParams,
                 rng: Optional[np.random.Generator] = None):
        if rtt <= 0:
            raise ValueError("rtt must be positive")
        self.env = env
        self.rtt = rtt
        self.params = params
        self.rng = rng
        if params.loss_rate > 0 and rng is None:
            raise ValueError("loss_rate > 0 requires an rng")
        self.cwnd = params.init_cwnd
        self.losses = 0  # instrumentation

    # -- window accounting ---------------------------------------------------
    @property
    def window_cap(self) -> float:
        """Current throughput ceiling, bytes/s (= cwnd / RTT)."""
        return self.cwnd / self.rtt

    @property
    def max_window(self) -> float:
        """Negotiated buffer: the ceiling on cwnd."""
        return self.params.buffer_bytes

    def reset(self) -> None:
        """Return to the post-handshake state (new connection, cold window)."""
        self.cwnd = self.params.init_cwnd
        self.losses = 0

    def _grow_slow_start(self) -> None:
        self.cwnd = min(self.cwnd * 2.0, self.max_window)

    def _on_loss(self) -> None:
        self.losses += 1
        self.cwnd = max(self.cwnd / 2.0, self.params.mss)

    # -- cap driver ------------------------------------------------------------
    def drive(self, flow: Flow) -> None:
        """Steer ``flow.cap`` on kernel callbacks while the flow lives.

        The first cap and loss-gap draw land at this instant (urgent
        priority). The window left behind is reused by the next transfer
        on this stream (channel caching); a fresh connection should
        call :meth:`reset` first."""
        self.env.call_later(0.0, _WindowDriver(self, flow).start,
                            EventPriority.URGENT)

    def _sample_loss_gap(self) -> Optional[float]:
        if self.params.loss_rate <= 0:
            return None
        return float(self.rng.exponential(1.0 / self.params.loss_rate))

    def __repr__(self) -> str:
        return (f"TcpStream(rtt={self.rtt * 1e3:.1f}ms, "
                f"cwnd={self.cwnd / 1024:.0f}KB, "
                f"cap={self.window_cap * 8 / 1e6:.1f}Mb/s)")


class _WindowDriver:
    """Steers one flow's cap for :meth:`TcpStream.drive`: one event per
    slow-start round, loss gap or coarse recovery step. A loss gap is
    drawn after every recovery, even one cut short by the flow's end;
    the driver stops once the flow is gone, or in steady state with no
    loss to model."""

    __slots__ = ("stream", "flow", "next_loss", "slow", "wait", "steps",
                 "step_time", "step_gain")

    def __init__(self, stream: TcpStream, flow: Flow):
        self.stream = stream
        self.flow = flow

    def start(self) -> None:
        self.flow.set_cap(self.stream.window_cap)
        self._draw_gap()

    def _draw_gap(self) -> None:
        self.next_loss = self.stream._sample_loss_gap()
        self._arm()

    def _arm(self) -> None:
        s = self.stream
        if not self.flow.active:
            return
        self.slow = s.cwnd < s.max_window - 1e-9
        gap = self.next_loss
        if gap is None and not self.slow:
            return  # steady state, nothing left to schedule
        self.wait = (s.rtt if gap is None
                     else min(s.rtt, gap) if self.slow else gap)
        s.env.call_later(self.wait, self._tick)

    def _tick(self) -> None:
        s, flow = self.stream, self.flow
        if not flow.active:
            return
        if self.next_loss is not None:
            self.next_loss -= self.wait
            if self.next_loss <= 1e-12:
                s._on_loss()
                flow.set_cap(s.window_cap)
                deficit = s.max_window - s.cwnd
                if deficit <= 0:
                    self._draw_gap()
                    return
                self.steps = steps = RECOVERY_STEPS
                self.step_time = deficit / s.params.mss * s.rtt / steps
                self.step_gain = deficit / steps
                s.env.call_later(self.step_time, self._recover_step)
                return
        if self.slow:
            s._grow_slow_start()
            flow.set_cap(s.window_cap)
        self._arm()

    def _recover_step(self) -> None:
        s = self.stream
        if self.flow.active:
            s.cwnd = min(s.cwnd + self.step_gain, s.max_window)
            self.flow.set_cap(s.window_cap)
            self.steps -= 1
            if self.steps:
                s.env.call_later(self.step_time, self._recover_step)
                return
        self._draw_gap()
