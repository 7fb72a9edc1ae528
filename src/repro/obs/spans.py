"""Causally-linked spans over simulated time: the flight recorder core.

A :class:`Span` is one named interval on one actor's timeline (a PE,
the fabric, the PMI daemon tree, the fault injector), carrying a
monotonically increasing ``span_id`` and an optional ``parent_id`` so
that cross-layer, cross-actor work — e.g. one on-demand connection
establishment flowing conduit → UD handshake → QP state machine →
first RC delivery — reconstructs as a single causal tree.

Instant happenings (a QP state transition, a dropped datagram) are
zero-duration spans created with :meth:`SpanTracer.event`.

The tracer exists only when observation is enabled
(``RuntimeConfig(observe=True)``); instrumented layers hold ``obs =
None`` otherwise, so the hot-path cost of the whole facility is one
predicate check — the same discipline as ``Simulator._prof`` and the
protocol :class:`Tracer`.

Parent links accept either a :class:`Span` or a raw ``span_id`` int:
the handshake messages carry the integer across the wire (it is
metadata, not payload — it never contributes to ``nbytes``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Union

from ..sim import Simulator

__all__ = ["Span", "SpanTracer"]

ParentRef = Union["Span", int, None]


class Span:
    """One recorded interval: identity, causality, timing, attributes."""

    __slots__ = ("span_id", "parent_id", "name", "actor", "start_us",
                 "end_us", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        actor: str,
        start_us: float,
        end_us: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.actor = actor
        self.start_us = start_us
        #: ``None`` while the span is open.
        self.end_us = end_us
        self.attrs = attrs if attrs is not None else {}

    @property
    def open(self) -> bool:
        return self.end_us is None

    @property
    def duration_us(self) -> float:
        """Span length; 0.0 while still open (and for instant events)."""
        return 0.0 if self.end_us is None else self.end_us - self.start_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_us is None else f"end={self.end_us!r}"
        return (
            f"<Span #{self.span_id} {self.name!r} actor={self.actor} "
            f"parent={self.parent_id} start={self.start_us!r} {state}>"
        )


def _parent_id(parent: ParentRef) -> Optional[int]:
    if parent is None or parent.__class__ is int:
        return parent
    return parent.span_id


class SpanTracer:
    """Records spans against a simulator's clock, in creation order.

    Bounded like the protocol :class:`~repro.sim.trace.Tracer`: once
    ``capacity`` spans have been recorded, further ones are *dropped*
    (counted in :attr:`dropped`) rather than silently evicting history
    — a truncated trace stays a valid prefix, and exporters can say so.
    Dropped spans are returned as detached objects so instrumentation
    code can still ``finish`` them without ceremony.
    """

    def __init__(self, sim: Simulator, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError("span capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.dropped = 0
        self._spans: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def start(self, name: str, actor: str, parent: ParentRef = None,
              **attrs: Any) -> Span:
        """Open a span at the current simulated time."""
        span = Span(
            span_id=self._next_id,
            parent_id=_parent_id(parent),
            name=name,
            actor=actor,
            start_us=self.sim.now,
            attrs=attrs,
        )
        self._next_id += 1
        if len(self._spans) < self.capacity:
            self._spans.append(span)
        else:
            self.dropped += 1
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` at the current simulated time."""
        if span.end_us is not None:
            raise ValueError(f"span #{span.span_id} finished twice")
        span.end_us = self.sim.now
        if attrs:
            span.attrs.update(attrs)
        return span

    def event(self, name: str, actor: str, parent: ParentRef = None,
              **attrs: Any) -> Span:
        """Record an instant (zero-duration) span."""
        span = self.start(name, actor, parent=parent, **attrs)
        span.end_us = span.start_us
        return span

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        return self._spans

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self._spans if s.name == name]

    def children_of(self, span_or_id: Union[Span, int]) -> List[Span]:
        sid = span_or_id if span_or_id.__class__ is int else span_or_id.span_id
        return [s for s in self._spans if s.parent_id == sid]
