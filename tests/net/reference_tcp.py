"""Generator TCP window driver: the test-side oracle for the callback driver.

:class:`ReferenceTcpStream` is a :class:`~repro.net.tcp.TcpStream` whose
window is steered by the original simulation process, one process per
flow, instead of :class:`~repro.net.tcp._WindowDriver`'s kernel
callbacks. The generator below is that original driver, unchanged, so
the differential test (``tests/net/test_tcp_driver.py``) can require
both to pass the same caps to ``set_cap`` at the same instants, leave
the same window and draw the same loss gaps. Only the process's own
completion event is extra on this side.
"""

from __future__ import annotations

from repro.net.fluid import Flow
from repro.net import tcp
from repro.net.tcp import TcpStream


class ReferenceTcpStream(TcpStream):
    """:class:`TcpStream` driven by a generator process per flow."""

    def drive(self, flow: Flow) -> None:
        """Start the reference window process for ``flow``."""
        self.env.process(self._window_process(flow))

    def _window_process(self, flow: Flow):
        """Simulation process: steer ``flow.cap`` while the flow lives."""
        env = self.env
        p = self.params
        flow.set_cap(self.window_cap)
        next_loss = self._sample_loss_gap()
        while flow.active:
            in_slow_start = self.cwnd < self.max_window - 1e-9
            if in_slow_start:
                step = self.rtt
            elif next_loss is not None:
                step = next_loss
            else:
                return  # steady state, nothing left to schedule
            wait = step if next_loss is None else min(step, next_loss)
            yield env.timeout(wait)
            if not flow.active:
                return
            if next_loss is not None:
                next_loss -= wait
            if next_loss is not None and next_loss <= 1e-12:
                self._on_loss()
                flow.set_cap(self.window_cap)
                yield from self._recover(flow)
                next_loss = self._sample_loss_gap()
                continue
            if in_slow_start:
                self._grow_slow_start()
                flow.set_cap(self.window_cap)

    def _recover(self, flow: Flow):
        """Coarse linear regrowth of cwnd back to the buffer ceiling."""
        p = self.params
        deficit = self.max_window - self.cwnd
        if deficit <= 0:
            return
        # Linear growth: one MSS per RTT → total time to recover:
        total_time = deficit / p.mss * self.rtt
        steps = tcp.RECOVERY_STEPS
        step_time = total_time / steps
        step_gain = deficit / steps
        for _ in range(steps):
            yield self.env.timeout(step_time)
            if not flow.active:
                return
            self.cwnd = min(self.cwnd + step_gain, self.max_window)
            flow.set_cap(self.window_cap)
