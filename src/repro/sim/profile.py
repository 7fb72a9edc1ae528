"""Opt-in kernel profiling: event counters and per-module attribution.

The :class:`~repro.sim.engine.Simulator` carries a ``_prof`` hook that
is ``None`` by default — the hot scheduling paths pay exactly one
pointer check when profiling is off.  Attaching a
:class:`KernelProfile` makes both scheduling paths (heap and microtask
queue) report every scheduled callback::

    from repro.sim import Simulator
    from repro.sim.profile import KernelProfile

    sim = Simulator()
    prof = KernelProfile()
    prof.attach(sim)
    ...  # build the machine, run the simulation
    snap = prof.snapshot()
    print(snap["micro_ratio"], snap["by_module"])

The snapshot reports:

``events_scheduled``
    Total callbacks scheduled (heap + microtask queue).
``events_dispatched``
    Callbacks actually executed so far (scheduled minus still-pending).
``heap_scheduled`` / ``micro_scheduled`` / ``micro_ratio``
    How much traffic the microtask fast path absorbed; the DES
    optimisation work targets a high ratio (zero-delay continuations
    dominate event volume).
``by_module``
    ``{"module:qualname": count}`` of scheduled callbacks — where the
    event volume comes from, at function granularity.
``events_batched`` / ``waves_scheduled`` / ``batch_ratio`` / ``batch_sizes``
    Aggregate-wave traffic (see ``Simulator.schedule_wave``): how many
    member events the wave fast path absorbed, how many wave entries
    carried them, the batched fraction of all scheduled events, and a
    ``{wave_size: count}`` histogram.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional

from .engine import Simulator

__all__ = ["KernelProfile"]


def _callback_key(fn: Any) -> str:
    """``module:qualname`` for a scheduled callback.

    Handles plain functions, bound methods and callable instances
    (e.g. the kernel's ``_CallbackBatch``).
    """
    func = getattr(fn, "__func__", fn)
    qual = getattr(func, "__qualname__", None)
    if qual is None:
        cls = type(fn)
        return f"{cls.__module__}:{cls.__qualname__}"
    return f"{getattr(func, '__module__', '?')}:{qual}"


class KernelProfile:
    """Counts every callback the kernel schedules, split by path."""

    __slots__ = ("sim", "heap_scheduled", "micro_scheduled", "_tally",
                 "_namers", "events_batched", "waves_scheduled", "batch_sizes",
                 "_detached_pending")

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self.heap_scheduled = 0
        self.micro_scheduled = 0
        #: Scheduled callbacks per code object (per class for callable
        #: instances), and for each key the object its name comes from.
        self._tally: Dict[Any, int] = {}
        self._namers: Dict[Any, Any] = {}
        self.events_batched = 0
        self.waves_scheduled = 0
        self.batch_sizes: Counter = Counter()
        self._detached_pending: Optional[int] = None

    # -- lifecycle -----------------------------------------------------
    def attach(self, sim: Simulator) -> "KernelProfile":
        """Install on ``sim`` (replacing any previous profile)."""
        self.sim = sim
        sim._prof = self
        self._detached_pending = None
        return self

    def detach(self) -> None:
        if self.sim is not None:
            # Freeze the pending count so events_dispatched stays
            # truthful after we lose the simulator reference.
            self._detached_pending = self.sim.pending_events
            if self.sim._prof is self:
                self.sim._prof = None
        self.sim = None

    # -- kernel hook ---------------------------------------------------
    # Both hooks tally inline, with no Python-level call of their own,
    # so a cProfile run around them counts the kernel's calls, not the
    # profile's; snapshot() formats each distinct key's name once.
    def _record(self, fn: Any, micro: bool) -> None:
        """Called by the Simulator for every scheduled callback."""
        if micro:
            self.micro_scheduled += 1
        else:
            self.heap_scheduled += 1
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None)
        if key is None:
            key = func if hasattr(func, "__qualname__") else type(fn)
        tally = self._tally
        if key in tally:
            tally[key] += 1
        else:
            tally[key] = 1
            self._namers[key] = key if key is type(fn) else func

    def _record_wave(self, fn: Any, n: int) -> None:
        """Called once per ``schedule_wave`` aggregate of ``n`` members.

        Members count as ``n`` scheduled (timed) events — totals stay
        comparable across scheduler generations — and additionally as
        batched traffic.
        """
        self.heap_scheduled += n
        self.events_batched += n
        self.waves_scheduled += 1
        self.batch_sizes[n] += 1
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None)
        if key is None:
            key = func if hasattr(func, "__qualname__") else type(fn)
        tally = self._tally
        if key in tally:
            tally[key] += n
        else:
            tally[key] = n
            self._namers[key] = key if key is type(fn) else func

    # -- reporting -----------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        return self.heap_scheduled + self.micro_scheduled

    @property
    def events_dispatched(self) -> int:
        """Scheduled minus still-pending.

        Valid while attached *and* after :meth:`detach` — detach
        freezes the pending count at the moment of detachment.
        """
        if self.sim is not None:
            pending = self.sim.pending_events
        else:
            pending = self._detached_pending or 0
        return self.events_scheduled - pending

    def snapshot(self, top: int = 15) -> Dict[str, Any]:
        """A JSON-friendly summary of the counters so far."""
        total = self.events_scheduled
        by_module: Counter = Counter()
        for key, count in self._tally.items():
            by_module[_callback_key(self._namers[key])] += count
        return {
            "events_scheduled": total,
            "events_dispatched": self.events_dispatched,
            "heap_scheduled": self.heap_scheduled,
            "micro_scheduled": self.micro_scheduled,
            "micro_ratio": (self.micro_scheduled / total) if total else 0.0,
            "events_batched": self.events_batched,
            "waves_scheduled": self.waves_scheduled,
            "batch_ratio": (self.events_batched / total) if total else 0.0,
            "batch_sizes": {str(k): v for k, v in
                            sorted(self.batch_sizes.items())},
            "by_module": dict(by_module.most_common(top)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KernelProfile heap={self.heap_scheduled} "
            f"micro={self.micro_scheduled}>"
        )
