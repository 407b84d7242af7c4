"""Generator-coroutine processes for the simulation kernel."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, EventPriority, Interrupt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment


class Process(Event):
    """A running coroutine; also an event that fires when it terminates.

    A process body is a generator that yields events::

        def body(env):
            yield env.timeout(1.0)
            result = yield some_other_process
            return result

    Yielding a failed event re-raises the failure inside the generator,
    where it can be caught. ``process.interrupt(cause)`` raises
    :class:`Interrupt` at the process's current yield point.

    The process is itself the callback it registers on the event it
    waits for (:meth:`__call__`), so a yield allocates no bound method.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got "
                            f"{type(generator).__name__}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time.
        env.schedule(_Resume(env, self, None), priority=EventPriority.URGENT)

    # -- public API -------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        No-op semantics: interrupting a dead process is an error;
        a process cannot interrupt itself.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt dead process {self.name!r}")
        if self.env.active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        # Detach from the current target so the stale wake-up never lands.
        if self._target is not None:
            self._target.remove_callback(self)
            self._target = None
        self.env.schedule(_Resume(self.env, self, Interrupt(cause)),
                          priority=EventPriority.URGENT)

    # -- kernel plumbing ----------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        env = self.env
        env._active_process = self
        try:
            while True:
                if trigger._exc is None:
                    try:
                        next_target = self._generator.send(trigger._value)
                    except StopIteration as stop:
                        self.succeed(stop.value)
                        return
                    except BaseException as exc:
                        # The body raised: the process fails; waiters see it,
                        # and with no waiters the kernel re-raises it.
                        self.fail(exc)
                        return
                else:
                    trigger.defuse()
                    exc = trigger._exc
                    try:
                        next_target = self._generator.throw(exc)
                    except StopIteration as stop:
                        self.succeed(stop.value)
                        return
                    except BaseException as raised:
                        self.fail(raised)
                        return
                    finally:
                        if self._exc is not exc:
                            # The body handled the failure. Its traceback
                            # pins the frames it passed through, and they
                            # often hold the event that stores it: drop it.
                            exc.__traceback__ = None
                if not isinstance(next_target, Event):
                    self.fail(TypeError(
                        f"process {self.name!r} yielded non-event "
                        f"{next_target!r}"))
                    return
                if next_target.env is not env:
                    raise ValueError("yielded event from another environment")
                if next_target._processed:
                    # Already done: consume its outcome immediately.
                    trigger = next_target
                    continue
                self._target = next_target
                next_target.add_callback(self)
                return
        finally:
            env._active_process = None

    def __call__(self, ev: Event) -> None:
        """Callback of the awaited event: resume with its outcome."""
        self._target = None
        self._resume(ev)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"


class _Resume(Event):
    """Internal: a born-triggered event that resumes ``proc`` when
    dispatched, with value None or, for an interrupt, the defused
    ``exc`` raised at the process's yield point. It holds no callback."""

    __slots__ = ("_proc",)

    def __init__(self, env: "Environment", proc: Process,
                 exc: Optional[BaseException]):
        self.env = env
        self.callbacks = self._value = None
        self._exc = exc
        self._triggered = self._defused = True
        self._processed = self._cancelled = False
        self._proc = proc

    def _process(self) -> None:
        self._processed = True
        proc, self._proc = self._proc, None
        proc._resume(self)
