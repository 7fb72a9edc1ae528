"""Synchronisation and message-passing primitives built on the kernel.

These are the building blocks the network and runtime layers use:

* :class:`Mailbox` -- unbounded FIFO channel with blocking receive.
* :class:`Channels` -- mailboxes by key, each kept only while in use.
* :class:`Semaphore` -- counting semaphore (fair FIFO wakeup).
* :class:`Barrier` -- reusable N-party barrier.

An idle queue costs only its object's slots: a mailbox keeps its
first pending entry in a slot and a semaphore has no waiter deque
until one is needed, and each drops its deque again once it drains.
A simulated PE holds several of each, most of them idle for the whole
run, so at scale the deques they no longer keep are real memory.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Hashable, Optional

from .engine import SimEvent, Simulator, Waitable

__all__ = ["Mailbox", "Channels", "Semaphore", "Barrier"]

#: Marks an empty ``Mailbox._head`` (messages may be ``None``).
_EMPTY = object()


class Mailbox:
    """Unbounded FIFO of messages with generator-friendly receive.

    ``recv()`` returns a waitable; yield it to obtain the next message.
    Messages are delivered in send order, receivers are woken in
    arrival order.

    A mailbox never holds queued messages and blocked receivers at the
    same time: ``send`` hands its message to a waiting receiver when
    there is one, and ``recv`` takes a queued message when there is
    one.  So one queue serves both roles, and ``_waiting`` says which:
    it holds blocked receivers' events when true, messages when false.
    The queue is ``_head`` (the oldest entry, or ``_EMPTY``) followed
    by ``_rest``, a deque that exists only while a second entry is
    pending.  The flag is read only while ``_head`` holds an entry.
    """

    __slots__ = ("sim", "_head", "_rest", "_waiting")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._head: Any = _EMPTY
        self._rest: Optional[Deque[Any]] = None
        self._waiting = False

    def __len__(self) -> int:
        """Number of queued messages (blocked receivers do not count)."""
        if self._head is _EMPTY or self._waiting:
            return 0
        rest = self._rest
        return 1 if rest is None else 1 + len(rest)

    def send(self, item: Any) -> None:
        """Deposit a message; wakes one waiting receiver (if any)."""
        head = self._head
        if head is _EMPTY:
            self._head = item
            self._waiting = False
            return
        rest = self._rest
        if self._waiting:
            if rest is None:
                self._head = _EMPTY
            else:
                self._head = rest.popleft()
                if not rest:
                    self._rest = None
            head.succeed(item)
        elif rest is None:
            self._rest = deque((item,))
        else:
            rest.append(item)

    def recv(self) -> Waitable:
        """Waitable for the next message (immediate if one is queued)."""
        ev = self.sim.event()
        head = self._head
        if head is _EMPTY:
            self._head = ev
            self._waiting = True
            return ev
        rest = self._rest
        if self._waiting:
            if rest is None:
                self._rest = deque((ev,))
            else:
                rest.append(ev)
            return ev
        if rest is None:
            self._head = _EMPTY
        else:
            self._head = rest.popleft()
            if not rest:
                self._rest = None
        ev.succeed(head)
        return ev

    def try_recv(self) -> Optional[Any]:
        """Non-blocking receive; ``None`` when empty."""
        head = self._head
        if head is _EMPTY or self._waiting:
            return None
        rest = self._rest
        if rest is None:
            self._head = _EMPTY
        else:
            self._head = rest.popleft()
            if not rest:
                self._rest = None
        return head


class Channels:
    """Mailboxes by key, each kept only while it holds something.

    ``recv(key)`` and ``deliver(key, item)`` act on the key's mailbox,
    creating it on demand and deleting it as soon as it holds no
    message and no receiver.  A later message for the same key gets a
    fresh mailbox, so per-key order is unchanged.  Collective keys
    carry a sequence number and are each used once, so this keeps a
    PE's table as small as its collectives in flight.
    """

    __slots__ = ("sim", "_boxes")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._boxes: Dict[Hashable, Mailbox] = {}

    def __len__(self) -> int:
        """Number of keys with a pending message or receiver."""
        return len(self._boxes)

    def recv(self, key: Hashable) -> Waitable:
        """Waitable for the next message on ``key``."""
        boxes = self._boxes
        mbox = boxes.get(key)
        if mbox is None:
            mbox = boxes[key] = Mailbox(self.sim)
        ev = mbox.recv()
        if mbox._head is _EMPTY:
            del boxes[key]
        return ev

    def deliver(self, key: Hashable, item: Any) -> None:
        """Send ``item`` on ``key``; wakes its oldest receiver (if any)."""
        boxes = self._boxes
        mbox = boxes.get(key)
        if mbox is None:
            mbox = boxes[key] = Mailbox(self.sim)
        mbox.send(item)
        if mbox._head is _EMPTY:
            del boxes[key]

    def on_message(self, src: int, data: Any) -> None:
        """Active-message handler: ``data`` is ``(key, payload)``;
        delivers ``(src, payload)`` on ``key``."""
        key, payload = data
        self.deliver(key, (src, payload))


class Semaphore:
    """Counting semaphore with FIFO fairness.

    The waiter deque exists only while an ``acquire`` is blocked.
    """

    __slots__ = ("sim", "_value", "_waiters")

    def __init__(self, sim: Simulator, value: int = 1) -> None:
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self._value = value
        self._waiters: Optional[Deque[SimEvent]] = None

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Waitable:
        ev = self.sim.event()
        if self._value > 0:
            self._value -= 1
            ev.succeed()
        elif self._waiters is None:
            self._waiters = deque((ev,))
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        waiters = self._waiters
        if waiters is None:
            self._value += 1
            return
        ev = waiters.popleft()
        if not waiters:
            self._waiters = None
        ev.succeed()


class Barrier:
    """Reusable barrier for a fixed party count.

    Each participant yields :meth:`wait`.  The waitable's value is the
    generation number (0, 1, 2, ...) that completed.
    """

    __slots__ = ("sim", "parties", "generation", "_arrived", "_event")

    def __init__(self, sim: Simulator, parties: int) -> None:
        if parties < 1:
            raise ValueError("barrier needs >= 1 party")
        self.sim = sim
        self.parties = parties
        self.generation = 0
        self._arrived = 0
        self._event: SimEvent = sim.event()

    def wait(self) -> Waitable:
        self._arrived += 1
        current = self._event
        if self._arrived == self.parties:
            gen = self.generation
            self.generation += 1
            self._arrived = 0
            self._event = self.sim.event()
            current.succeed(gen)
        return current
