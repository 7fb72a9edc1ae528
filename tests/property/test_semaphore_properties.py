"""Property test: Semaphore matches a plain FIFO reference semaphore,
and keeps a waiter deque only while an acquire is blocked."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Semaphore, Simulator

OPS = st.lists(st.sampled_from(["acquire", "release", "run"]), max_size=60)


class FifoSemaphore:
    """Reference model: a counter and one FIFO of blocked acquirers."""

    def __init__(self, value: int) -> None:
        self.value = value
        self.waiters = deque()
        self.woken = []  # acquirer tags, in grant order

    def acquire(self, tag) -> None:
        if self.value > 0:
            self.value -= 1
            self.woken.append(tag)
        else:
            self.waiters.append(tag)

    def release(self) -> None:
        if self.waiters:
            self.woken.append(self.waiters.popleft())
        else:
            self.value += 1


@given(value=st.integers(0, 3), ops=OPS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_semaphore_matches_fifo_reference(value, ops):
    sim = Simulator()
    sem = Semaphore(sim, value)
    ref = FifoSemaphore(value)
    woken = []  # acquirer tags, in callback order
    events = {}  # acquirer tag -> its acquire() waitable

    for step, op in enumerate(ops):
        if op == "acquire":
            ev = events[step] = sem.acquire()
            ev.add_callback(lambda e, tag=step: woken.append(tag))
            ref.acquire(step)
        elif op == "release":
            sem.release()
            ref.release()
        else:
            sim.run()
            assert woken == ref.woken
        assert sem.value == ref.value
        assert (sem._waiters is not None) == bool(ref.waiters)
        granted = sorted(t for t, ev in events.items() if ev.triggered)
        assert granted == sorted(ref.woken)

    sim.run()
    assert woken == ref.woken
