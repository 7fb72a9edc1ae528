"""Calendar-queue event scheduling and aggregate event waves.

Two pieces, both serving the same goal — make the dense startup regime
(tens of thousands of near-simultaneous events) cheap without changing
a single dispatch decision:

:class:`CalendarQueue`
    A bucketed priority queue over ``(time, seq, fn, arg)`` entries.
    Simulated time is divided into fixed-width *days*; pending events
    live in an unsorted per-day bucket (a dict keyed by absolute day
    index, so empty days cost nothing and there is no wrap-around
    bookkeeping).  Only the day currently being drained is kept heap-
    ordered (the *near heap*), so an insert into any future day is an
    O(1) list append plus, for a day's first event, one push onto a
    small heap of day indices.  Days beyond a fixed horizon go to an
    *overflow heap* — the sparse far tail (long timeouts, retry
    deadlines) never forces the calendar to allocate buckets for empty
    years.  Extraction order is exactly ``(time, seq)``: a day's bucket
    is heapified when the day becomes current, and same-day inserts
    land directly in the near heap.  The worst case (every pending
    event in one day) degrades to the plain binary heap it replaced —
    never worse, O(1) amortized when load is spread.

:class:`Wave`
    One scheduler entry standing for *N homogeneous member events*.
    ``Simulator.schedule_wave`` reserves a **contiguous block of
    sequence numbers** — one per member — and stores the member keys in
    a NumPy struct array (``when: f8, seq: i8``).  Because the block is
    contiguous, no other event's ``(time, seq)`` key can fall *between*
    two members scheduled for the same instant, so dispatching all
    same-time members back-to-back from a single entry is provably
    identical to popping N independent heap entries (anything scheduled
    *during* the batch gets a later seq and therefore ran after the
    whole batch under the old scheme too).  Members at later times
    re-arm the wave under the next member's original ``(when, seq)``
    key, so affine waves (release times computed in one vectorized
    evaluation) interleave exactly as independent entries would.

The golden-trace and chaos byte-identity suites pin all of this down
against :class:`HeapQueue`, the original single binary heap kept as the
``scheduler="heap"`` fallback.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

__all__ = ["CalendarQueue", "HeapQueue", "Wave", "WAVE_KEY_DTYPE"]

#: NumPy struct layout for a wave's member keys.
WAVE_KEY_DTYPE = np.dtype([("when", np.float64), ("seq", np.int64)])


class HeapQueue:
    """The original scheduler: one binary heap of ``(when, seq, fn, arg)``.

    Kept as the ``scheduler="heap"`` fallback and as the reference
    implementation the calendar queue is byte-identity-tested against.

    ``near`` is the **stable peek list** contract shared with
    :class:`CalendarQueue`: the list object never changes identity, and
    whenever it is non-empty, ``near[0]`` is the queue's minimum entry.
    When it is empty the queue may still hold entries (calendar only),
    but none of them can be due at the current instant — callers on the
    hot path may treat "``near`` empty" as "no timed event at ``now``"
    and only fall back to :meth:`head` when they need the true minimum.
    """

    __slots__ = ("near",)

    def __init__(self) -> None:
        self.near: List[tuple] = []

    def push(self, when: float, seq: int, fn: Callable, arg: Any) -> None:
        heapq.heappush(self.near, (when, seq, fn, arg))

    def head(self) -> Optional[tuple]:
        """The minimum pending entry, or ``None`` when empty."""
        near = self.near
        return near[0] if near else None

    def pop_head(self) -> tuple:
        return heapq.heappop(self.near)

    def __len__(self) -> int:
        return len(self.near)


class CalendarQueue:
    """Array-backed calendar of day buckets with a near heap and an
    overflow heap (see module docstring for the design).

    ``width_us`` is the day width; ``horizon_days`` bounds how far
    ahead the calendar allocates buckets — anything further lands in
    the overflow heap and migrates in as the clock approaches it.
    Neither knob affects dispatch order, only constant factors.
    """

    __slots__ = (
        "width", "inv_width", "horizon_days", "cur_day",
        "near", "days", "day_heap", "overflow", "_far_count",
    )

    def __init__(self, width_us: float = 512.0,
                 horizon_days: int = 4096) -> None:
        if width_us <= 0:
            raise ValueError(f"calendar day width must be positive: {width_us}")
        if horizon_days < 1:
            raise ValueError(f"calendar horizon must be >= 1: {horizon_days}")
        self.width = float(width_us)
        self.inv_width = 1.0 / self.width
        self.horizon_days = horizon_days
        self.cur_day = 0
        #: Heap-ordered entries of the day being drained.  Stable list
        #: identity (mutated in place, never rebound): hot-path callers
        #: keep a direct reference for inline peeks.  Invariant: every
        #: entry in ``days``/``overflow`` is in a day strictly beyond
        #: ``cur_day``, hence strictly later than any instant whose
        #: events drain from ``near`` — so an empty ``near`` guarantees
        #: no timed event is due *now* even when the calendar is not.
        self.near: List[tuple] = []
        #: Unsorted future buckets: absolute day index -> entry list.
        self.days: dict = {}
        #: Min-heap of day indices present in ``days`` (no duplicates:
        #: a day is pushed only when its bucket is created).
        self.day_heap: List[int] = []
        #: Far tail beyond the horizon: plain entry heap.
        self.overflow: List[tuple] = []
        #: Entries in ``days`` + ``overflow`` (``near`` is uncounted so
        #: the hot engine loop can heappush/heappop it directly).
        self._far_count = 0

    # -- insertion -----------------------------------------------------
    def push(self, when: float, seq: int, fn: Callable, arg: Any) -> None:
        cur = self.cur_day
        d = int(when * self.inv_width)
        if d <= cur:
            # Same-day (or boundary-rounding) insert: straight into the
            # near heap so it merges with the day being drained.
            heapq.heappush(self.near, (when, seq, fn, arg))
            return
        self._far_count += 1
        if d - cur < self.horizon_days:
            bucket = self.days.get(d)
            if bucket is None:
                self.days[d] = [(when, seq, fn, arg)]
                heapq.heappush(self.day_heap, d)
            else:
                bucket.append((when, seq, fn, arg))
            return
        heapq.heappush(self.overflow, (when, seq, fn, arg))

    # -- extraction ----------------------------------------------------
    def head(self) -> Optional[tuple]:
        """The minimum pending entry, or ``None`` when empty.

        May advance the calendar to the next populated day (bucket
        heapify + overflow migration); this touches only internal
        structure, never dispatch order.
        """
        near = self.near
        if near:
            return near[0]
        if self._far_count:
            self._advance()
            if near:
                return near[0]
        return None

    def pop_head(self) -> tuple:
        """Pop the minimum entry.  Call :meth:`head` first.

        Equivalent to ``heappop(queue.near)`` — the engine's hot loop
        does exactly that, without the method call.
        """
        return heapq.heappop(self.near)

    def _advance(self) -> None:
        """Move ``cur_day`` to the next populated day and stage its
        bucket (merged with any due overflow entries) as the near heap."""
        day_heap = self.day_heap
        overflow = self.overflow
        if day_heap:
            d = day_heap[0]
            if overflow:
                od = int(overflow[0][0] * self.inv_width)
                if od < d:
                    self._drain_overflow_day(od)
                    return
            heapq.heappop(day_heap)
            bucket = self.days.pop(d)
            self.cur_day = d
            if overflow:
                while overflow and int(overflow[0][0] * self.inv_width) == d:
                    bucket.append(heapq.heappop(overflow))
            self._far_count -= len(bucket)
            # In-place so ``near`` keeps its identity (stable peek list).
            near = self.near
            near.extend(bucket)
            heapq.heapify(near)
            return
        if overflow:
            self._drain_overflow_day(int(overflow[0][0] * self.inv_width))

    def _drain_overflow_day(self, od: int) -> None:
        """Make day ``od`` current directly from the overflow heap."""
        self.cur_day = od
        near = self.near
        overflow = self.overflow
        # Successive heap pops come out sorted, and a sorted list is a
        # valid binary heap — no heapify needed.
        while overflow and int(overflow[0][0] * self.inv_width) == od:
            near.append(heapq.heappop(overflow))
        self._far_count -= len(near)

    def __len__(self) -> int:
        return len(self.near) + self._far_count


class Wave:
    """N homogeneous member events behind one scheduler entry.

    Created via :meth:`repro.sim.engine.Simulator.schedule_wave`; not
    instantiated directly.  Member keys live in a NumPy struct array
    (:data:`WAVE_KEY_DTYPE`); member payloads in a plain list.  The
    reserved seq block makes batched dispatch order-exact (module
    docstring has the argument).

    :meth:`cancel` masks a member that has not been dispatched yet —
    its slot is skipped, exactly as if its callback had checked a
    "still wanted?" flag and returned, which is how cancellation looks
    under per-entry scheduling.
    """

    __slots__ = ("sim", "fn", "args", "keys", "uniform", "idx", "n",
                 "cancelled")

    def __init__(self, sim, fn: Callable[[Any], None], args: Sequence[Any],
                 whens: np.ndarray, uniform: bool) -> None:
        self.sim = sim
        self.fn = fn
        self.args = list(args)
        self.n = len(self.args)
        self.keys = whens  # struct array, len n
        self.uniform = uniform
        self.idx = 0
        self.cancelled: Optional[np.ndarray] = None

    # -- inspection ----------------------------------------------------
    @property
    def dispatched(self) -> int:
        """Members already delivered (or skipped as cancelled)."""
        return self.idx

    @property
    def pending(self) -> int:
        return self.n - self.idx

    # -- cancellation --------------------------------------------------
    def cancel(self, i: int) -> bool:
        """Mask member ``i``; returns False if it already dispatched."""
        if not (0 <= i < self.n):
            raise IndexError(f"wave member {i} out of range (n={self.n})")
        if i < self.idx:
            return False
        if self.cancelled is None:
            self.cancelled = np.zeros(self.n, dtype=bool)
        self.cancelled[i] = True
        return True

    # -- dispatch (engine-facing) --------------------------------------
    def _dispatch(self, _arg: Any) -> None:
        sim = self.sim
        fn = self.fn
        args = self.args
        start = i = self.idx
        n = self.n
        prev = sim._wave_active
        # While the batch runs, members i+1..n are in flight but not
        # visible in any queue; the flag keeps the process trampoline
        # from resuming a continuation ahead of them (see process.py).
        sim._wave_active = True
        # ``self.idx`` advances *before* each member's callback and the
        # mask is re-read per member: a member may cancel a later member
        # of its own wave mid-batch (cancel of itself or an earlier one
        # correctly reports "already dispatched").
        try:
            if self.uniform:
                while i < n:
                    self.idx = i + 1
                    c = self.cancelled
                    if c is None or not c[i]:
                        fn(args[i])
                    i += 1
            else:
                whens = self.keys["when"]
                t = whens[i]
                while i < n and whens[i] == t:
                    self.idx = i + 1
                    c = self.cancelled
                    if c is None or not c[i]:
                        fn(args[i])
                    i += 1
        finally:
            sim._wave_active = prev
            i = self.idx
            k = i - start
            if i < n:
                # Re-arm under the next member's reserved key.
                sim._wave_extra -= k
                rec = self.keys[i]
                sim._sched.push(
                    float(rec["when"]), int(rec["seq"]), self._dispatch, None
                )
            else:
                sim._wave_extra -= k - 1
                self.args = ()  # release member payloads promptly

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Wave n={self.n} dispatched={self.idx}>"
