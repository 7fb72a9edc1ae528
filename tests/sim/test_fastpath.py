"""Tests for the fast-path kernel: microtask queue, plain-float
sleeps, lazy callback storage and the opt-in profiler."""

import functools
from collections import Counter

import pytest

from repro.apps import HelloWorld
from repro.core import Job, RuntimeConfig
from repro.sim import (
    KernelProfile,
    ProcessFailure,
    SimulationError,
    Simulator,
    spawn,
)
from repro.sim.profile import _callback_key


# ----------------------------------------------------------------------
# step() on an empty simulator
# ----------------------------------------------------------------------
def test_step_empty_raises_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="no pending events"):
        sim.step()


def test_step_drained_raises_simulation_error():
    sim = Simulator()

    def proc(sim):
        yield 1.0

    spawn(sim, proc(sim), name="p")
    sim.run()
    with pytest.raises(SimulationError, match="no pending events"):
        sim.step()


# ----------------------------------------------------------------------
# microtask queue ordering
# ----------------------------------------------------------------------
def test_call_soon_runs_in_fifo_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_soon(lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_microtasks_interleave_with_same_time_heap_events_by_seq():
    """A heap event scheduled *before* a microtask at the same simulated
    time must run first (sequence numbers are shared between paths)."""
    sim = Simulator()
    order = []
    sim._schedule_at(0.0, lambda _a: order.append("heap-1"), None)
    sim._call_soon(lambda _a: order.append("micro-1"), None)
    sim._schedule_at(0.0, lambda _a: order.append("heap-2"), None)
    sim._call_soon(lambda _a: order.append("micro-2"), None)
    sim.run()
    assert order == ["heap-1", "micro-1", "heap-2", "micro-2"]


def test_step_matches_run_ordering():
    """Draining with step() is indistinguishable from run()."""

    def build():
        sim = Simulator()
        order = []
        sim.call_soon(lambda: order.append("a"))
        sim._schedule_at(0.0, lambda _a: order.append("b"), None)
        sim._schedule_at(2.0, lambda _a: order.append("c"), None)
        sim.call_soon(lambda: order.append("d"))
        return sim, order

    sim_run, order_run = build()
    sim_run.run()

    sim_step, order_step = build()
    while sim_step.pending_events:
        sim_step.step()

    assert order_run == order_step == ["a", "b", "d", "c"]
    assert sim_step.now == sim_run.now == 2.0


def test_microtask_does_not_advance_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield 3.0
        sim.call_soon(lambda: seen.append(sim.now))
        yield 0.0  # zero-delay fast path: same timestamp
        seen.append(sim.now)

    spawn(sim, proc(sim), name="p")
    sim.run()
    assert seen == [3.0, 3.0]


# ----------------------------------------------------------------------
# yield <float> fast path
# ----------------------------------------------------------------------
def test_yield_float_sleeps_like_timeout():
    sim = Simulator()
    ticks = []

    def proc(sim):
        got = yield 5.0
        ticks.append((sim.now, got))
        got = yield 2.5
        ticks.append((sim.now, got))

    spawn(sim, proc(sim), name="p")
    sim.run()
    assert ticks == [(5.0, None), (7.5, None)]


def test_yield_negative_float_raises_in_process():
    sim = Simulator()
    caught = []

    def proc(sim):
        try:
            yield -1.0
        except ValueError as exc:
            caught.append(str(exc))

    spawn(sim, proc(sim), name="p")
    sim.run()
    assert caught and "negative" in caught[0]


def test_yield_int_still_rejected():
    """The fast path accepts exactly ``float``; an int yield remains a
    non-waitable kernel error (catches stray returns)."""
    sim = Simulator()

    def proc(sim):
        yield 42

    spawn(sim, proc(sim), name="p")
    with pytest.raises(ProcessFailure):
        sim.run()


def test_yield_float_and_timeout_orders_identically():
    """Processes sleeping via the fast path and via Timeout objects for
    the same durations wake in the same scheduling order."""

    def run_variant(use_fast):
        sim = Simulator()
        order = []

        def sleeper(sim, tag, delay):
            if use_fast:
                yield delay
            else:
                yield sim.timeout(delay)
            order.append(tag)

        spawn(sim, sleeper(sim, "a", 2.0), name="a")
        spawn(sim, sleeper(sim, "b", 1.0), name="b")
        spawn(sim, sleeper(sim, "c", 2.0), name="c")
        sim.run()
        return order

    assert run_variant(True) == run_variant(False) == ["b", "a", "c"]


# ----------------------------------------------------------------------
# composite callback detach (leak regression)
# ----------------------------------------------------------------------
def _callback_count(waitable):
    cbs = waitable.callbacks
    if cbs is None:
        return 0
    if cbs.__class__ is list:
        return len(cbs)
    return 1


def test_anyof_detaches_from_losing_children():
    """A triggered AnyOf must unregister from children that did not
    fire — the on-demand conduit's retry loop creates an AnyOf per
    attempt over the same long-lived event, so leaked registrations
    would grow without bound."""
    sim = Simulator()
    long_lived = sim.event()

    def attempt(sim, ev):
        t = sim.timeout(1.0)
        yield sim.any_of([ev, t])

    for _ in range(10):
        spawn(sim, attempt(sim, long_lived), name="try")
        sim.run()
        assert not long_lived.triggered

    # Every AnyOf timed out; none may linger on the event.
    assert _callback_count(long_lived) == 0


def test_allof_detaches_on_child_failure():
    sim = Simulator()
    survivor = sim.event()

    def proc(sim):
        bad = sim.event()
        comp = sim.all_of([bad, survivor])
        sim.call_soon(lambda: bad.fail(RuntimeError("boom")))
        try:
            yield comp
        except RuntimeError:
            pass

    spawn(sim, proc(sim), name="p")
    sim.run()
    assert _callback_count(survivor) == 0


def test_anyof_winner_value_still_delivered():
    sim = Simulator()
    results = []

    def proc(sim):
        ev = sim.event()
        t = sim.timeout(1.0)
        sim.call_soon(lambda: ev.succeed("won"))
        which, value = yield sim.any_of([ev, t])
        results.append((which is ev, value))

    spawn(sim, proc(sim), name="p")
    sim.run()
    assert results == [(True, "won")]


def test_late_add_callback_fires_via_queue():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    got = []
    ev.add_callback(lambda w: got.append(w.value))
    assert got == []  # run-to-completion: not synchronous
    sim.run()
    assert got == [7]


# ----------------------------------------------------------------------
# profiling counters
# ----------------------------------------------------------------------
def test_kernel_profile_counts_paths():
    sim = Simulator()
    prof = KernelProfile().attach(sim)

    def proc(sim):
        yield 1.0          # heap
        yield 0.0          # microtask
        ev = sim.event()
        sim.call_soon(lambda: ev.succeed())  # microtasks
        yield ev

    spawn(sim, proc(sim), name="p")
    sim.run()
    snap = prof.snapshot()
    assert snap["heap_scheduled"] >= 1
    assert snap["micro_scheduled"] >= 3
    assert snap["events_scheduled"] == (
        snap["heap_scheduled"] + snap["micro_scheduled"]
    )
    assert snap["events_dispatched"] == snap["events_scheduled"]
    assert 0.0 < snap["micro_ratio"] < 1.0
    assert any("Process" in k for k in snap["by_module"])


class _ReferenceProfile(KernelProfile):
    """Also tallies ``_callback_key`` of every scheduled callback: the
    reference ``snapshot()["by_module"]`` must equal."""

    __slots__ = ("reference",)

    def __init__(self):
        super().__init__()
        self.reference = Counter()

    def _record(self, fn, micro):
        self.reference[_callback_key(fn)] += 1
        super()._record(fn, micro)

    def _record_wave(self, fn, n):
        self.reference[_callback_key(fn)] += n
        super()._record_wave(fn, n)


def test_kernel_profile_by_module_matches_callback_key_on_a_job():
    job = Job(npes=64, config=RuntimeConfig.proposed())
    prof = _ReferenceProfile().attach(job.sim)
    job.run(HelloWorld())
    snap = prof.snapshot(top=len(prof.reference))
    assert snap["by_module"] == dict(prof.reference)
    keys = set(snap["by_module"])
    assert any(k.endswith("<lambda>") for k in keys)
    assert "repro.sim.process:Process._on_target" in keys  # bound method
    assert "repro.sim.engine:_CallbackBatch" in keys
    assert snap["waves_scheduled"] > 0


def test_kernel_profile_by_module_matches_callback_key_on_odd_callables():
    sim = Simulator()
    prof = _ReferenceProfile().attach(sim)
    got = []

    class Note:
        def __init__(self, arg):
            got.append(arg)

    def twin_lambdas():
        return (lambda a: got.append(a)), (lambda a: got.append(-a))

    first, second = twin_lambdas()
    for t, fn in enumerate([got.append, [].append, Note,
                            functools.partial(got.append), first, second,
                            first], start=1):
        sim._schedule_at(float(t), fn, t)
    sim.run()
    assert got == [1, 3, 4, 5, -6, 7]
    snap = prof.snapshot(top=len(prof.reference))
    assert snap["by_module"] == dict(prof.reference)


def test_kernel_profile_detach_stops_counting():
    sim = Simulator()
    prof = KernelProfile().attach(sim)
    sim.call_soon(lambda: None)
    prof.detach()
    sim.call_soon(lambda: None)
    sim.run()
    assert prof.events_scheduled == 1


def test_kernel_profile_detach_freezes_dispatched_count():
    sim = Simulator()
    prof = KernelProfile().attach(sim)
    for _ in range(3):
        sim.call_soon(lambda: None)
    # Detached with all three callbacks still pending: dispatched must
    # report 0 — and keep reporting 0 after the sim drains, because the
    # pending count was frozen at detach time.
    prof.detach()
    assert prof.events_scheduled == 3
    assert prof.events_dispatched == 0
    sim.run()
    assert prof.events_dispatched == 0
    assert prof.snapshot()["events_dispatched"] == 0


def test_kernel_profile_dispatched_tracks_pending_while_attached():
    sim = Simulator()
    prof = KernelProfile().attach(sim)
    sim.call_soon(lambda: None)
    assert prof.events_dispatched == 0
    sim.run()
    assert prof.events_dispatched == 1
