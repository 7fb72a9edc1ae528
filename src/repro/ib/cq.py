"""Completion queues."""

from __future__ import annotations

from typing import List

from ..sim import Mailbox
from .types import WorkCompletion

__all__ = ["CompletionQueue"]


class CompletionQueue(Mailbox):
    """A queue of :class:`WorkCompletion` entries: a :class:`Mailbox`
    under the verbs names.

    ``push()`` posts a completion, ``wait()`` yields the next one
    (blocking the calling process) and ``poll()`` is the non-blocking
    variant returning ``None`` when empty.
    """

    __slots__ = ()

    push = Mailbox.send
    wait = Mailbox.recv
    poll = Mailbox.try_recv

    def drain(self) -> List[WorkCompletion]:
        """Pop everything currently queued (non-blocking)."""
        out = []
        while True:
            wc = self.try_recv()
            if wc is None:
                return out
            out.append(wc)
