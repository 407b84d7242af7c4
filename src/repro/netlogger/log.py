"""ULM-shaped event logging."""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.sim.core import Environment


class LogRecord(NamedTuple):
    """One ULM event: an immutable ``(t, host, prog, event, fields)``
    tuple. :meth:`NetLogger.event` is the one place records are built."""

    t: float
    host: str
    prog: str
    event: str
    fields: Dict[str, str]


# Builds a record from one packed tuple, skipping the Python-level
# ``__new__`` that NamedTuple generates for keyword construction.
_new_record = tuple.__new__


class NetLogger:
    """An append-only event log shared by instrumented components.

    Parameters
    ----------
    env, host, prog:
        Environment and the default HOST/PROG stamped on records.
    capacity:
        When set, the log becomes a ring buffer holding the most recent
        ``capacity`` records; evictions are counted in :attr:`dropped`.
        The default (None) keeps every record — the historical
        behaviour, right for short runs and tests. Long Figure 8 runs
        should bound it.
    """

    def __init__(self, env: Environment, host: str = "localhost",
                 prog: str = "repro", capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when set")
        self.env = env
        self.default_host = host
        self.default_prog = prog
        self.capacity = capacity
        self.records = (deque(maxlen=capacity) if capacity is not None
                        else [])
        self.emitted = 0        # records ever appended

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer."""
        return self.emitted - len(self.records)

    def event(self, name: str, host: Optional[str] = None,
              prog: Optional[str] = None, **fields) -> LogRecord:
        """Append one event at the current simulated time; field values
        are stored as ``str``."""
        # ``fields`` is this call's own packed dict: convert it in place.
        for key, value in fields.items():
            if value.__class__ is not str:
                fields[key] = str(value)
        record = _new_record(LogRecord, (
            self.env.now, host or self.default_host,
            prog or self.default_prog, name, fields))
        self.records.append(record)
        self.emitted += 1
        return record

    def select(self, event: Optional[str] = None,
               host: Optional[str] = None) -> List[LogRecord]:
        """Filter by event name and/or host."""
        out = list(self.records)
        if event is not None:
            out = [r for r in out if r.event == event]
        if host is not None:
            out = [r for r in out if r.host == host]
        return out

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)
