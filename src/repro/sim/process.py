"""Generator-coroutine processes for the DES kernel.

A simulated process is a Python generator that ``yield``\\ s
:class:`~repro.sim.engine.Waitable` objects (timeouts, events, other
processes, composites) — or, on the fast path, a plain ``float``
delay, which behaves exactly like ``yield sim.timeout(delay)`` (the
resumed value is ``None``) without constructing a Timeout waitable or
any callback plumbing.  The kernel resumes the generator with the
waitable's value (``gen.send(value)``), or throws the waitable's
exception into it.

Example::

    def worker(sim):
        yield 5.0                       # fast-path sleep 5 us
        ev = sim.event()
        ...
        value = yield ev                # wait for someone to succeed(ev)

    proc = spawn(sim, worker(sim), name="worker")
    sim.run()
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional, Tuple

from .engine import SimEvent, SimulationError, Simulator, Waitable

__all__ = ["Process", "spawn", "spawn_batch", "ProcessFailure"]


class ProcessFailure(RuntimeError):
    """Wraps an exception that escaped a simulated process.

    ``process`` is the live :class:`Process` when raised in-process; a
    copy that crossed a process boundary (sweep-pool workers) carries
    only :attr:`process_name` — the generator inside a Process cannot
    pickle.
    """

    def __init__(self, process, cause: BaseException) -> None:
        name = process if isinstance(process, str) else process.name
        super().__init__(f"process {name!r} failed: {cause!r}")
        self.process = process
        self.process_name = name
        self.cause = cause

    def __reduce__(self):
        return (type(self), (self.process_name, self.cause))


class Process(Waitable):
    """A running generator; also a waitable so parents can join it.

    The process triggers with the generator's return value
    (``StopIteration.value``) on normal exit, or fails with the escaped
    exception.  An exception that nobody joins on is re-raised out of
    :meth:`Simulator.run` wrapped in :class:`ProcessFailure`.
    """

    __slots__ = ("gen", "name", "_joined")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "?",
                 _defer_start: bool = False) -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen)!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name
        self._joined = False
        if not _defer_start:
            sim._call_soon(self._step_value, None)

    def add_callback(self, fn) -> None:  # noqa: D102 - see Waitable
        self._joined = True
        super().add_callback(fn)

    # -- stepping ------------------------------------------------------
    def _step_value(self, send_value: Any) -> None:
        """Resume the generator with a value (the hot continuation).

        The body is a **trampoline**: when the generator's next wait is
        already satisfied (an elapsed zero-delay or an
        already-triggered waitable) *and* nothing else is runnable at
        the current instant, the loop resumes the generator directly
        instead of bouncing the continuation through the event queue.
        The guard — empty microtask queue, no heap event at ``now`` —
        means the queued continuation would have been the very next
        dispatch anyway, so observable ordering is exactly the queue's
        (the golden-trace test pins this down); only the queue traffic
        disappears.
        """
        sim = self.sim
        gen_send = self.gen.send
        # Both queues have stable identity for the simulator's lifetime,
        # so one load each serves every trampoline iteration.
        micro = sim._micro
        heap = sim._heap
        while True:
            try:
                target = gen_send(send_value)
            except StopIteration as stop:
                self._trigger(value=stop.value)
                return
            except BaseException as exc:  # process died
                self._died(exc)
                return
            if target.__class__ is float:
                # Plain-delay sleep: no Timeout object, no callback hop.
                # Deliberately restricted to ``float`` (ints stay an
                # error) so a stray non-waitable yield is still caught.
                if target > 0:
                    sim._schedule_at(sim.now + target, self._step_value, None)
                    return
                if target == 0:
                    # Wave-active ⇒ undispatched members are invisible
                    # here, so never trampoline.
                    if (not micro and not sim._wave_active
                            and (not heap or heap[0][0] > sim.now)):
                        send_value = None
                        continue  # trampoline: nothing can interleave
                    sim._call_soon(self._step_value, None)
                    return
                self._step_throw(ValueError(f"negative timeout delay: {target}"))
                return
            if isinstance(target, Waitable):
                if target._triggered:
                    # Fast path: the wait is already over (message in
                    # the mailbox, semaphore free, barrier released...).
                    exc = target._exc
                    if (not micro and not sim._wave_active
                            and (not heap or heap[0][0] > sim.now)):
                        if exc is None:
                            send_value = target._value
                            continue  # trampoline
                        self._step_throw(exc)
                        return
                    # Something else runs first: keep queue semantics,
                    # but skip the _on_target indirection.
                    if exc is None:
                        sim._call_soon(self._step_value, target._value)
                    else:
                        sim._call_soon(self._step_throw, exc)
                    return
                target.add_callback(self._on_target)
                return
            self._yielded_garbage(target)
            return

    def _step_throw(self, throw_exc: BaseException) -> None:
        """Resume the generator by throwing a waitable's failure into it."""
        try:
            target = self.gen.throw(throw_exc)
        except StopIteration as stop:
            self._trigger(value=stop.value)
            return
        except BaseException as exc:
            self._died(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Cold-path wait registration (used after a throw-resume)."""
        if target.__class__ is float:
            # Plain-delay sleep: no Timeout object, no callback hop —
            # the continuation is scheduled directly.  Deliberately
            # restricted to ``float`` (ints stay an error) so a stray
            # non-waitable yield is still caught.
            if target > 0:
                self.sim._schedule_at(self.sim.now + target, self._step_value, None)
            elif target == 0:
                self.sim._call_soon(self._step_value, None)
            else:
                self._step_throw(ValueError(f"negative timeout delay: {target}"))
            return
        if isinstance(target, Waitable):
            if target._triggered:
                exc = target._exc
                if exc is None:
                    self.sim._call_soon(self._step_value, target._value)
                else:
                    self.sim._call_soon(self._step_throw, exc)
                return
            target.add_callback(self._on_target)
            return
        self._yielded_garbage(target)

    def _yielded_garbage(self, target: Any) -> None:
        exc = SimulationError(
            f"process {self.name!r} yielded non-waitable {target!r}"
        )
        self.gen.close()
        if self._joined:
            self._trigger(exc=exc)
        else:
            raise ProcessFailure(self, exc) from exc

    def _died(self, exc: BaseException) -> None:
        if self._joined:
            self._trigger(exc=exc)
        else:
            # Nobody is listening: abort the whole simulation loudly.
            raise ProcessFailure(self, exc) from exc

    def _on_target(self, target: Waitable) -> None:
        # Resume synchronously: the trigger already deferred this
        # callback through the event queue once, so a second hop would
        # only add queue traffic (the golden-trace tests pin down that
        # observable ordering is unchanged).
        exc = target._exc
        if exc is None:
            self._step_value(target._value)
        else:
            self._step_throw(exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} {state}>"


def spawn(sim: Simulator, gen: Generator, name: str = "?") -> Process:
    """Create and start a :class:`Process` at the current simulated time."""
    return Process(sim, gen, name=name)


def _start_step(proc: Process) -> None:
    """Wave member callback: take a deferred process's first step."""
    proc._step_value(None)


def spawn_batch(sim: Simulator,
                gens: Iterable[Tuple[Generator, str]]) -> List[Process]:
    """Spawn many processes as one aggregate wave.

    ``gens`` yields ``(generator, name)`` pairs.  The processes take
    their first step in iteration order at the current simulated time,
    byte-identically to a loop of :func:`spawn` calls (the wave
    reserves the same contiguous block of sequence numbers the loop's
    per-process ``_call_soon`` entries would have consumed), but the
    kernel pays one heap entry for the whole broadcast — this is
    the ``start_pes`` launch storm fast path.
    """
    procs = [Process(sim, gen, name=name, _defer_start=True)
             for gen, name in gens]
    sim.schedule_wave(sim.now, _start_step, procs)
    return procs
