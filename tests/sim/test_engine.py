"""Unit tests for the DES event loop and waitables."""

import pytest

from repro.sim import SimEvent, SimulationError, Simulator, spawn


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)
        yield sim.timeout(2.5)
        fired.append(sim.now)

    spawn(sim, proc(sim), name="t")
    sim.run()
    assert fired == [5.0, 7.5]
    assert sim.now == 7.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc(sim):
        v = yield sim.timeout(1.0, value="payload")
        got.append(v)

    spawn(sim, proc(sim))
    sim.run()
    assert got == ["payload"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def maker(tag):
        def proc(sim):
            yield sim.timeout(3.0)
            order.append(tag)
        return proc

    for tag in ["a", "b", "c", "d"]:
        spawn(sim, maker(tag)(sim), name=tag)
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        got.append((yield ev))

    def firer(sim):
        yield sim.timeout(10.0)
        ev.succeed(42)

    spawn(sim, waiter(sim))
    spawn(sim, firer(sim))
    sim.run()
    assert got == [42]
    assert ev.ok and ev.value == 42


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(sim):
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    spawn(sim, waiter(sim))
    spawn(sim, firer(sim))
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not-an-exception")


def test_value_access_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_callback_after_trigger_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    sim.run()  # dispatch original (empty) callbacks
    seen = []
    ev.add_callback(lambda w: seen.append(w.value))
    sim.run()
    assert seen == ["late"]


def test_any_of_returns_first_child():
    sim = Simulator()
    results = []

    def proc(sim):
        slow = sim.timeout(100.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        child, value = yield sim.any_of([slow, fast])
        results.append((value, sim.now))

    spawn(sim, proc(sim))
    sim.run()
    assert results == [("fast", 1.0)]


def test_all_of_waits_for_every_child():
    sim = Simulator()
    results = []

    def proc(sim):
        values = yield sim.all_of(
            [sim.timeout(3.0, value="a"), sim.timeout(7.0, value="b")]
        )
        results.append((values, sim.now))

    spawn(sim, proc(sim))
    sim.run()
    assert results == [(["a", "b"], 7.0)]


def test_composite_empty_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.any_of([])
    with pytest.raises(ValueError):
        sim.all_of([])


def test_run_until_stops_early():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(10.0)
        fired.append("late")

    spawn(sim, proc(sim))
    end = sim.run(until=5.0)
    assert end == 5.0
    assert fired == []
    sim.run()
    assert fired == ["late"]


def test_run_until_in_past_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    spawn(sim, proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_schedule_in_past_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)

    spawn(sim, proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim._schedule_at(1.0, lambda a: None)


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(4.0)
        sim.call_soon(lambda: seen.append(sim.now))
        yield sim.timeout(0.0)

    spawn(sim, proc(sim))
    sim.run()
    assert seen == [4.0]


@pytest.mark.parametrize("when", [float("nan"), -1.0],
                         ids=["nan", "past"])
def test_bad_event_time_rejected(when):
    """A NaN time would silently break heap order; a past one breaks
    causality.  Both fail at the scheduling call, before touching the
    heap."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim._schedule_at(when, lambda a: None)
    with pytest.raises(SimulationError):
        sim.schedule_wave(when, lambda a: None, [0, 1])
    assert sim.pending_events == 0


@pytest.mark.parametrize("delay", [float("nan"), -1.0],
                         ids=["nan", "negative"])
def test_bad_timeout_delay_rejected(delay):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(delay)
    assert sim.pending_events == 0
