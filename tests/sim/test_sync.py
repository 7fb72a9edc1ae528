"""Unit tests for mailboxes, channels, semaphores and barriers."""

import pytest

from repro.sim import Barrier, Channels, Mailbox, Semaphore, Simulator, spawn


class TestMailbox:
    def test_send_then_recv(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim):
            got.append((yield mbox.recv()))

        mbox.send("hello")
        spawn(sim, receiver(sim))
        sim.run()
        assert got == ["hello"]

    def test_recv_blocks_until_send(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim):
            msg = yield mbox.recv()
            got.append((msg, sim.now))

        def sender(sim):
            yield sim.timeout(9.0)
            mbox.send("late")

        spawn(sim, receiver(sim))
        spawn(sim, sender(sim))
        sim.run()
        assert got == [("late", 9.0)]

    def test_fifo_order_preserved(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim):
            for _ in range(4):
                got.append((yield mbox.recv()))

        for i in range(4):
            mbox.send(i)
        spawn(sim, receiver(sim))
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_multiple_waiters_woken_in_order(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        got = []

        def receiver(sim, tag):
            msg = yield mbox.recv()
            got.append((tag, msg))

        spawn(sim, receiver(sim, "first"))
        spawn(sim, receiver(sim, "second"))

        def sender(sim):
            yield sim.timeout(1.0)
            mbox.send("m1")
            mbox.send("m2")

        spawn(sim, sender(sim))
        sim.run()
        assert got == [("first", "m1"), ("second", "m2")]

    def test_try_recv(self):
        sim = Simulator()
        mbox = Mailbox(sim)
        assert mbox.try_recv() is None
        mbox.send(7)
        assert len(mbox) == 1
        assert mbox.try_recv() == 7
        assert mbox.try_recv() is None


class TestChannels:
    def test_key_released_once_message_is_taken(self):
        sim = Simulator()
        chans = Channels(sim)
        chans.deliver("k", "m")
        assert len(chans) == 1
        ev = chans.recv("k")
        assert ev.value == "m"
        assert len(chans) == 0

    def test_key_released_once_receiver_is_woken(self):
        sim = Simulator()
        chans = Channels(sim)
        ev = chans.recv("k")
        assert len(chans) == 1 and not ev.triggered
        chans.deliver("k", "m")
        assert ev.value == "m"
        assert len(chans) == 0

    def test_per_key_fifo_across_release(self):
        sim = Simulator()
        chans = Channels(sim)
        chans.deliver("a", 1)
        chans.deliver("b", "x")
        chans.deliver("a", 2)
        assert chans.recv("a").value == 1
        assert len(chans) == 2
        assert chans.recv("a").value == 2
        assert len(chans) == 1
        chans.deliver("a", 3)  # a fresh mailbox for a released key
        assert [chans.recv("a").value, chans.recv("b").value] == [3, "x"]
        assert len(chans) == 0

    def test_blocked_receivers_woken_in_order(self):
        sim = Simulator()
        chans = Channels(sim)
        first, second = chans.recv("k"), chans.recv("k")
        chans.deliver("k", "m1")
        assert len(chans) == 1
        chans.deliver("k", "m2")
        assert (first.value, second.value) == ("m1", "m2")
        assert len(chans) == 0

    def test_on_message_delivers_source_and_payload(self):
        sim = Simulator()
        chans = Channels(sim)
        chans.on_message(5, (("bar", 0, "up"), b"data"))
        assert chans.recv(("bar", 0, "up")).value == (5, b"data")
        assert len(chans) == 0


class TestSemaphore:
    def test_initial_value_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Semaphore(sim, value=-1)

    def test_mutual_exclusion(self):
        sim = Simulator()
        sem = Semaphore(sim, value=1)
        active = []
        max_active = []

        def worker(sim, wid):
            yield sem.acquire()
            active.append(wid)
            max_active.append(len(active))
            yield sim.timeout(5.0)
            active.remove(wid)
            sem.release()

        for wid in range(4):
            spawn(sim, worker(sim, wid))
        sim.run()
        assert max(max_active) == 1
        assert sim.now == 20.0  # fully serialized

    def test_counting_allows_n_concurrent(self):
        sim = Simulator()
        sem = Semaphore(sim, value=2)

        def worker(sim):
            yield sem.acquire()
            yield sim.timeout(5.0)
            sem.release()

        for _ in range(4):
            spawn(sim, worker(sim))
        sim.run()
        assert sim.now == 10.0  # two waves of two


class TestBarrier:
    def test_parties_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Barrier(sim, parties=0)

    def test_all_released_together(self):
        sim = Simulator()
        bar = Barrier(sim, parties=3)
        release_times = []

        def worker(sim, delay):
            yield sim.timeout(delay)
            gen = yield bar.wait()
            release_times.append((sim.now, gen))

        for delay in [1.0, 5.0, 9.0]:
            spawn(sim, worker(sim, delay))
        sim.run()
        assert [t for t, _ in release_times] == [9.0, 9.0, 9.0]
        assert {g for _, g in release_times} == {0}

    def test_barrier_is_reusable(self):
        sim = Simulator()
        bar = Barrier(sim, parties=2)
        gens = []

        def worker(sim, delay):
            yield sim.timeout(delay)
            gens.append((yield bar.wait()))
            yield sim.timeout(delay)
            gens.append((yield bar.wait()))

        spawn(sim, worker(sim, 1.0))
        spawn(sim, worker(sim, 2.0))
        sim.run()
        assert sorted(gens) == [0, 0, 1, 1]
