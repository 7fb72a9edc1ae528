"""Tracing, counters and phase timers for simulation runs.

Three facilities, all cheap enough to leave enabled:

* :class:`Counters` -- monotonically increasing named counters
  (``qp_created``, ``ud_drops``, ...).
* :class:`PhaseTimer` -- accumulates simulated time per named phase for
  one actor; used for the ``start_pes`` breakdowns (Figures 1 and 5b).
* :class:`Tracer` -- optional event log (ring-buffer) for debugging and
  protocol tests.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from .engine import Simulator

__all__ = ["Counters", "PhaseTimer", "Tracer", "TraceRecord"]


class Counters:
    """Named integer counters with dict-like reads.

    :attr:`counts` is the backing ``defaultdict`` itself, so a hot
    site may bump it in place (``counts["fabric.packets"] += 1``) and
    skip the :meth:`add` call; both write the same one counter surface.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def __getitem__(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts.clear()


class PhaseTimer:
    """Accumulates simulated time spent per phase by one actor.

    Phases may interleave but not nest: ``begin`` implicitly ends the
    previous phase.  ``stop`` closes the current phase.
    """

    __slots__ = ("sim", "_acc", "_current", "_started_at", "_spans",
                 "_span_actor", "_span_parent", "current_span")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._acc: Dict[str, float] = defaultdict(float)
        self._current: Optional[str] = None
        self._started_at = 0.0
        # Optional span mirroring (repro.obs): armed by observe(), one
        # span per phase interval.  None costs a single predicate check.
        self._spans = None
        self._span_actor = ""
        self._span_parent: Optional[int] = None
        self.current_span = None

    def observe(self, spans, actor: str, parent=None) -> None:
        """Mirror each phase interval as a span on ``spans``.

        ``parent`` (a Span or span id) becomes the parent of every
        phase span; pass ``None`` to detach again.
        """
        self._spans = spans
        self._span_actor = actor
        self._span_parent = (
            parent if parent is None or parent.__class__ is int
            else parent.span_id
        )
        if spans is None:
            self.current_span = None

    def begin(self, phase: str) -> None:
        self.stop()
        self._current = phase
        self._started_at = self.sim.now
        if self._spans is not None:
            self.current_span = self._spans.start(
                phase, self._span_actor, parent=self._span_parent
            )

    def stop(self) -> None:
        if self._current is not None:
            self._acc[self._current] += self.sim.now - self._started_at
            self._current = None
            if self.current_span is not None:
                self._spans.finish(self.current_span)
                self.current_span = None

    def total(self, phase: str) -> float:
        extra = 0.0
        if self._current == phase:
            extra = self.sim.now - self._started_at
        return self._acc.get(phase, 0.0) + extra

    def breakdown(self) -> Dict[str, float]:
        self.stop()
        return dict(self._acc)


@dataclass(frozen=True)
class TraceRecord:
    """One traced event: simulated time, actor, kind, and payload."""

    time: float
    actor: str
    kind: str
    detail: Any = None


class Tracer:
    """Bounded in-memory event log.

    Disabled by default (zero overhead beyond a truthiness check);
    enable for protocol tests or debugging.

    At :attr:`capacity` the ring keeps the *newest* records, but not
    silently: every evicted record is counted in :attr:`dropped`, and
    :meth:`formatted` prefixes a ``# dropped ...`` header so a
    truncated golden diff fails loudly instead of comparing a
    quietly-shortened log.
    """

    def __init__(self, sim: Simulator, capacity: int = 100_000, enabled: bool = False):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.sim = sim
        self.enabled = enabled
        self.capacity = capacity
        #: Records evicted (oldest-first) since construction / clear().
        self.dropped = 0
        self._records: Deque[TraceRecord] = deque()

    def log(self, actor: str, kind: str, detail: Any = None) -> None:
        if self.enabled:
            if len(self._records) >= self.capacity:
                self._records.popleft()
                self.dropped += 1
            self._records.append(TraceRecord(self.sim.now, actor, kind, detail))

    @property
    def truncated(self) -> bool:
        """True if any record has been evicted from the ring."""
        return self.dropped > 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [r for r in self._records if r.kind == kind]

    def formatted(self) -> List[str]:
        """Canonical one-line-per-record form, ``time|actor|kind|detail``.

        ``repr`` is used for time and detail so the output is exact
        (byte-for-byte comparable); the golden-trace determinism tests
        diff these lines against a committed fixture.

        If the ring evicted records, the first line is a ``# dropped N
        records (capacity C)`` header — truncation shows up as a diff,
        never as a silently shorter log.
        """
        lines = [
            f"{r.time!r}|{r.actor}|{r.kind}|{r.detail!r}"
            for r in self._records
        ]
        if self.dropped:
            lines.insert(
                0,
                f"# dropped {self.dropped} records (capacity {self.capacity})",
            )
        return lines

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
