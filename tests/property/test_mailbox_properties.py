"""Property test: the single-slot Mailbox behaves exactly like the
two-deque reference (one FIFO of messages, one FIFO of receivers),
and keeps an overflow deque only while two or more entries wait."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Mailbox, Simulator

OPS = st.lists(
    st.sampled_from(["send", "recv", "try_recv", "len", "run"]),
    max_size=60,
)


class TwoDequeMailbox:
    """Reference model: separate deques for messages and receivers."""

    def __init__(self) -> None:
        self.items = deque()
        self.waiters = deque()
        self.woken = []  # (receiver tag, message), in wake order

    def send(self, item) -> None:
        if self.waiters:
            self.woken.append((self.waiters.popleft(), item))
        else:
            self.items.append(item)

    def recv(self, tag) -> None:
        if self.items:
            self.woken.append((tag, self.items.popleft()))
        else:
            self.waiters.append(tag)

    def try_recv(self):
        return self.items.popleft() if self.items else None

    def __len__(self) -> int:
        return len(self.items)


@given(ops=OPS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mailbox_matches_two_deque_reference(ops):
    sim = Simulator()
    mbox = Mailbox(sim)
    ref = TwoDequeMailbox()
    woken = []  # (receiver tag, message), in callback order
    events = {}  # receiver tag -> its recv() waitable

    for step, op in enumerate(ops):
        if op == "send":
            mbox.send(step)
            ref.send(step)
        elif op == "recv":
            ev = events[step] = mbox.recv()
            ev.add_callback(lambda e, tag=step: woken.append((tag, e.value)))
            ref.recv(step)
        elif op == "try_recv":
            assert mbox.try_recv() == ref.try_recv()
        elif op == "run":
            sim.run()
            assert woken == ref.woken
        assert len(mbox) == len(ref)
        pending = len(ref.items) + len(ref.waiters)
        assert (mbox._rest is not None) == (pending >= 2)
        # Delivered values are visible on the waitables immediately;
        # only the callbacks wait for the kernel.
        delivered = {t: ev.value for t, ev in events.items() if ev.triggered}
        assert delivered == dict(ref.woken)

    sim.run()
    assert woken == ref.woken
