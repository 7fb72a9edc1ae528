"""Aggregate event waves: N same-instant member events behind one heap
entry.

``Simulator.schedule_wave`` reserves a **contiguous block of sequence
numbers** — one per member — and pushes a single heap entry keyed by
the first of them.  Because the block is contiguous, no other event's
``(time, seq)`` key can fall *between* two members, so dispatching all
members back-to-back from that one entry is provably identical to
popping N independent heap entries (anything scheduled *during* the
batch gets a later seq and therefore ran after the whole batch under
per-entry scheduling too).  If a member raises, the wave re-arms under
the next member's reserved key ``(when, seq0 + i)``, so a later
:meth:`~repro.sim.engine.Simulator.run` resumes the batch exactly where
individual entries would have.

Both producers — ``spawn_batch`` (the ``start_pes`` launch storm) and
the PMI down-phase release — schedule every member at one instant.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Sequence

__all__ = ["Wave"]


class Wave:
    """N homogeneous member events behind one heap entry.

    Created via :meth:`repro.sim.engine.Simulator.schedule_wave`; not
    instantiated directly.
    """

    __slots__ = ("sim", "when", "seq0", "fn", "args", "idx")

    def __init__(self, sim, when: float, seq0: int,
                 fn: Callable[[Any], None], args: Sequence[Any]) -> None:
        self.sim = sim
        self.when = when
        self.seq0 = seq0
        self.fn = fn
        self.args = list(args)
        self.idx = 0

    def _dispatch(self, _arg: Any) -> None:
        sim = self.sim
        fn = self.fn
        args = self.args
        start = i = self.idx
        n = len(args)
        prev = sim._wave_active
        # While the batch runs, members i+1..n are in flight but not
        # visible in any queue; the flag keeps the process trampoline
        # from resuming a continuation ahead of them (see process.py).
        sim._wave_active = True
        # ``self.idx`` advances *before* each member's callback, so a
        # member that raises counts as dispatched.
        try:
            while i < n:
                self.idx = i + 1
                fn(args[i])
                i += 1
        finally:
            sim._wave_active = prev
            i = self.idx
            if i < n:
                # Re-arm under the next member's reserved key.
                sim._wave_extra -= i - start
                heappush(sim._heap,
                         (self.when, self.seq0 + i, self._dispatch, None))
            else:
                sim._wave_extra -= i - start - 1
                self.args = ()  # release member payloads promptly

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Wave at {self.when} dispatched={self.idx}>"
