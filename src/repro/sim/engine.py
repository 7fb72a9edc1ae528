"""Discrete-event simulation core: clock, event queues, waitables.

The engine is deliberately tiny and deterministic.  Simulated time is a
``float`` in *microseconds*.  Events scheduled for the same timestamp
fire in scheduling order (a monotonically increasing sequence number
breaks ties), so a simulation with a fixed seed is exactly
reproducible.

Fast paths
----------
Timed events live in one binary heap of ``(time, seq, fn, arg)``
entries.  Zero-delay work (waitable callback dispatch, ``call_soon``,
process continuations) dominates event volume, so it bypasses the
heap: a FIFO **microtask queue** holds ``(seq, fn, arg)`` entries that
are drained in ``(time, seq)`` order merged against the heap.  Because
every microtask carries the same sequence counter timed events use,
the execution order is *identical* to scheduling everything through
the heap — the golden-trace tests in ``tests/sim`` pin this down —
while a ``deque`` append/popleft replaces a ``heappush``/``heappop``
pair and no closure or tuple payload is allocated per hop.

Homogeneous event storms — a PMI fence releasing a whole wave of
waiters, ``start_pes`` launching every PE — can be scheduled as one
:meth:`Simulator.schedule_wave` aggregate: a contiguous block of seq
numbers is reserved and the members dispatch in batch from a single
heap entry, in exactly the order N independent entries would have
(see :mod:`repro.sim.wave` for the argument).

The public surface is:

* :class:`Simulator` -- owns the clock, the timed-event heap and the
  microtask queue.
* :class:`Waitable` -- anything a process generator may ``yield``.
* :class:`SimEvent` -- a one-shot event that can be succeeded or failed.
* :class:`Timeout` -- fires after a fixed simulated delay.
* :class:`AnyOf` / :class:`AllOf` -- composite waits.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Sequence

from .wave import Wave

__all__ = [
    "Simulator",
    "Waitable",
    "SimEvent",
    "Timeout",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double-trigger etc.)."""


def _invoke0(fn: Callable[[], None]) -> None:
    """Microtask shim running an argument-less callable."""
    fn()


class _CallbackBatch:
    """Dispatches a multi-entry callback list without a per-dispatch
    closure (the single-callback case never allocates this)."""

    __slots__ = ("callbacks",)

    def __init__(self, callbacks: List[Callable]) -> None:
        self.callbacks = callbacks

    def __call__(self, waitable: "Waitable") -> None:
        for fn in self.callbacks:
            fn(waitable)


class Waitable:
    """Base class for objects a process can ``yield`` on.

    A waitable is *triggered* at most once.  When triggered it carries a
    ``value`` (delivered to waiters via ``send``) or an exception
    (delivered via ``throw``).  Callbacks registered via
    :meth:`add_callback` run, in order, at the simulated instant the
    waitable triggers.

    ``callbacks`` is stored compactly: ``None`` (none registered — the
    common case for timeouts and fire-and-forget events), a bare
    callable (exactly one waiter — the dominant case), or a list (two
    or more).  This keeps the per-waitable allocation at zero until a
    second waiter actually appears.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Any = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False

    # -- inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the waitable has fired (successfully or not)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if triggered without an exception."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value; raises if the waitable failed or is pending."""
        if not self._triggered:
            raise SimulationError("waitable has not triggered yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ---------------------------------------------------
    def _trigger(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self._triggered = True
        self._value = value
        self._exc = exc
        self.sim._schedule_callbacks(self)

    def add_callback(self, fn: Callable[["Waitable"], None]) -> None:
        """Run ``fn(self)`` when this waitable fires (immediately if fired).

        "Immediately" still means *via the event queue* at the current
        simulated time, preserving run-to-completion semantics.
        """
        if self._triggered:
            # Already dispatched: schedule a fresh zero-delay callback.
            self.sim._call_soon(fn, self)
            return
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = fn
        elif cbs.__class__ is list:
            cbs.append(fn)
        else:
            self.callbacks = [cbs, fn]


class SimEvent(Waitable):
    """One-shot event with explicit :meth:`succeed` / :meth:`fail`."""

    __slots__ = ()

    def succeed(self, value: Any = None) -> "SimEvent":
        self._trigger(value=value)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(exc=exc)
        return self


class Timeout(Waitable):
    """Fires ``delay`` microseconds after construction.

    Processes that only need a value-less sleep can ``yield`` a plain
    ``float``/``int`` delay instead and skip this object entirely (see
    :mod:`repro.sim.process`).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        super().__init__(sim)
        self.delay = float(delay)
        sim._schedule_at(sim.now + self.delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self._trigger(value=value)


class _Composite(Waitable):
    """Shared machinery for AnyOf / AllOf."""

    __slots__ = ("children", "_pending")

    def __init__(self, sim: "Simulator", children: Iterable[Waitable]) -> None:
        super().__init__(sim)
        self.children: List[Waitable] = list(children)
        if not self.children:
            raise ValueError("composite wait over an empty set")
        self._pending = len(self.children)
        for child in self.children:
            child.add_callback(self._child_fired)

    def _child_fired(self, child: Waitable) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _detach_pending(self) -> None:
        """Unregister from children that have not fired yet.

        Without this a triggered composite would linger in its losing
        children's callback lists for their whole lifetime — the retry
        loops in the on-demand conduit create an ``AnyOf`` per attempt
        over the *same* long-lived event, so the leak is unbounded.
        """
        cb = self._child_fired
        for child in self.children:
            if child._triggered:
                continue
            cbs = child.callbacks
            if cbs.__class__ is list:
                try:
                    cbs.remove(cb)
                except ValueError:
                    pass
            elif cbs == cb:  # bound methods compare by (self, func)
                child.callbacks = None


class AnyOf(_Composite):
    """Triggers when the *first* child triggers; value is ``(child, value)``."""

    __slots__ = ()

    def _child_fired(self, child: Waitable) -> None:
        if self._triggered:
            return
        if child.exception is not None:
            self._trigger(exc=child.exception)
        else:
            self._trigger(value=(child, child._value))
        self._detach_pending()


class AllOf(_Composite):
    """Triggers when *all* children have; value is the list of child values."""

    __slots__ = ()

    def _child_fired(self, child: Waitable) -> None:
        if self._triggered:
            return
        if child.exception is not None:
            self._trigger(exc=child.exception)
            self._detach_pending()
            return
        self._pending -= 1
        if self._pending == 0:
            self._trigger(value=[c._value for c in self.children])


class Simulator:
    """The event loop: a clock, a binary heap of ``(time, seq, fn, arg)``
    timed entries and a FIFO microtask queue of ``(seq, fn, arg)``
    zero-delay entries."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Timed events.  Stable identity for the simulator's lifetime:
        #: hot paths keep a direct reference for inline ``heap[0]`` peeks.
        self._heap: List[tuple] = []
        self._micro: deque = deque()
        self._seq = 0
        #: True while a Wave is dispatching its member batch — the
        #: process trampoline must not inline-resume then, because the
        #: remaining members are not visible in any queue.
        self._wave_active = False
        #: Undispatched wave members beyond the one heap entry per wave
        #: (keeps :attr:`pending_events` truthful).
        self._wave_extra = 0
        #: Opt-in profiling hook (see :mod:`repro.sim.profile`).
        self._prof = None

    # -- low-level scheduling ------------------------------------------
    def _schedule_at(self, when: float, fn: Callable, arg: Any = None) -> None:
        if not when >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule in the past or at NaN "
                f"({when} vs now={self.now})"
            )
        self._seq += 1
        heappush(self._heap, (when, self._seq, fn, arg))
        if self._prof is not None:
            self._prof._record(fn, False)

    def schedule_callback(self, when: float, fn: Callable,
                          arg: Any = None) -> None:
        """Public timed-callback entry point: run ``fn(arg)`` at ``when``.

        Intended for passive observers (e.g. the telemetry timeline
        sampler) that need a periodic hook without creating a process
        or a waitable.  The entry consumes one sequence number like any
        other event; since seq only breaks *same-time* ties and is
        allocated monotonically, inserting such events never reorders
        the rest of the simulation.
        """
        self._schedule_at(when, fn, arg)

    def schedule_wave(self, when: float, fn: Callable[[Any], None],
                      args: Sequence[Any]) -> None:
        """Schedule ``fn(arg)`` at ``when`` for every ``arg`` as one
        aggregate.

        A contiguous block of ``len(args)`` sequence numbers is
        reserved, so dispatch order is byte-identical to ``len(args)``
        separate ``_schedule_at`` calls made back-to-back — at a single
        heap entry's cost.  An empty ``args`` consumes no sequence
        numbers, matching a zero-iteration scheduling loop.
        """
        n = len(args)
        if n == 0:
            return
        if not when >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule in the past or at NaN "
                f"({when} vs now={self.now})"
            )
        seq0 = self._seq + 1
        self._seq += n
        wave = Wave(self, when, seq0, fn, args)
        heappush(self._heap, (when, seq0, wave._dispatch, None))
        self._wave_extra += n - 1
        if self._prof is not None:
            self._prof._record_wave(fn, n)

    def _call_soon(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at the current time via the microtask
        queue (no heap traffic, no allocation beyond the entry tuple)."""
        self._seq += 1
        self._micro.append((self._seq, fn, arg))
        if self._prof is not None:
            self._prof._record(fn, True)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the current simulated time, after pending work."""
        self._call_soon(_invoke0, fn)

    def _schedule_callbacks(self, waitable: Waitable) -> None:
        # Double dispatch is impossible: ``_trigger`` (the only caller)
        # raises on a second trigger before reaching here.
        cbs = waitable.callbacks
        if cbs is None:
            # Nobody registered yet — nothing observable would run;
            # late ``add_callback`` calls go through the microtask queue.
            return
        waitable.callbacks = None
        if cbs.__class__ is list:
            self._call_soon(_CallbackBatch(cbs), waitable)
        else:
            # Inline the dominant single-waiter case.
            self._call_soon(cbs, waitable)

    # -- waitable constructors -----------------------------------------
    def event(self) -> SimEvent:
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        return AnyOf(self, children)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        return AllOf(self, children)

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Advance the clock to — and execute — the next pending event.

        Microtasks and timed events interleave in exact ``(time, seq)``
        order, so draining via ``step`` is indistinguishable from a
        single global heap.  A wave entry counts as one step per
        member batch.
        """
        micro = self._micro
        heap = self._heap
        if micro:
            if heap:
                top = heap[0]
                if top[0] == self.now and top[1] < micro[0][0]:
                    heappop(heap)
                    top[2](top[3])
                    return
            entry = micro.popleft()
            entry[1](entry[2])
            return
        if not heap:
            raise SimulationError("no pending events")
        when, _seq, fn, arg = heappop(heap)
        self.now = when
        fn(arg)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or ``until`` is reached.

        Returns the final simulated time.  Unhandled process failures
        propagate out of :meth:`run` (see ``repro.sim.process``).
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        micro = self._micro
        heap = self._heap
        while True:
            if micro:
                # Merge against same-time timed events by sequence number.
                if heap:
                    top = heap[0]
                    if top[0] == self.now and top[1] < micro[0][0]:
                        heappop(heap)
                        top[2](top[3])
                        continue
                _seq, fn, arg = micro.popleft()
                fn(arg)
            else:
                if not heap:
                    break
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return self.now
                when, _seq, fn, arg = heappop(heap)
                self.now = when
                fn(arg)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    @property
    def pending_events(self) -> int:
        """Pending work items, counting every undispatched wave member."""
        return len(self._heap) + len(self._micro) + self._wave_extra
