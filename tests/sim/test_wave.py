"""Timed-event ordering and aggregate-wave edge cases.

The kernel dispatches in exact ``(time, seq)`` order across the timed
heap, the microtask queue and event waves.  The edges covered:

* same-tick interleaving of ``_call_soon`` microtasks and timed events;
* an insert at the current instant while that instant is draining;
* a far-future timeout behind a busy near term;
* a wave dispatching byte-identically to its members scheduled one by
  one — also when a member raises, and in a seeded random storm.
"""

import random

import pytest

from repro.sim import Simulator, spawn


# ----------------------------------------------------------------------
# same-tick ordering: microtasks vs timed events
# ----------------------------------------------------------------------
def test_same_tick_call_soon_vs_scheduled():
    """A microtask and a timed event due at the same instant dispatch
    in seq order, whichever queue they sit in."""
    sim = Simulator()
    log = []

    def proc(sim, tag):
        yield 1.0
        log.append((sim.now, "timed", tag))
        yield 0.0  # _call_soon continuation at t=1.0
        log.append((sim.now, "micro", tag))

    for tag in ("a", "b", "c"):
        spawn(sim, proc(sim, tag), name=tag)
    # A bare timed event at the same instant, scheduled before any of
    # the processes' sleeps (which are issued from their first step).
    sim._schedule_at(1.0, lambda _a: log.append((sim.now, "timed", "x")))
    sim.run()
    assert log == [(1.0, "timed", "x"), (1.0, "timed", "a"),
                   (1.0, "timed", "b"), (1.0, "timed", "c"),
                   (1.0, "micro", "a"), (1.0, "micro", "b"),
                   (1.0, "micro", "c")]


def test_zero_delay_storm_interleaves_with_timed():
    sim = Simulator()
    log = []

    def ticker(sim):
        for i in range(5):
            yield 1.0
            log.append((sim.now, "tick", i))

    def spinner(sim, tag):
        for i in range(10):
            yield 0.5
            log.append((sim.now, tag, i))
            yield 0.0
            log.append((sim.now, tag + "+", i))

    spawn(sim, ticker(sim), name="ticker")
    spawn(sim, spinner(sim, "s1"), name="s1")
    spawn(sim, spinner(sim, "s2"), name="s2")
    sim.run()

    # At every half-tick both spinners' timed wake-ups run before their
    # zero-delay continuations; on whole ticks the ticker, whose sleep
    # was issued first, runs ahead of both.
    expected = []
    for i in range(10):
        t = (i + 1) * 0.5
        if i % 2 == 1:
            expected.append((t, "tick", i // 2))
        expected += [(t, "s1", i), (t, "s2", i), (t, "s1+", i), (t, "s2+", i)]
    assert log == expected


def test_insert_at_now_dispatches_in_seq_order():
    """An insert at the instant being drained (and just after it)
    still dispatches in (time, seq) order."""
    sim = Simulator()
    log = []

    def proc(sim):
        yield 8.0
        log.append((sim.now, "arrived"))
        sim._schedule_at(sim.now, lambda _a: log.append((sim.now, "now")))
        sim._schedule_at(sim.now + 0.5,
                         lambda _a: log.append((sim.now, "half")))
        yield 1.0
        log.append((sim.now, "after"))

    spawn(sim, proc(sim), name="p")
    sim.run()
    assert log == [(8.0, "arrived"), (8.0, "now"), (8.5, "half"),
                   (9.0, "after")]


def test_far_future_timeout_runs_last():
    sim = Simulator()
    log = []

    def patient(sim):
        yield 10_000.0
        log.append((sim.now, "patient"))

    def busy(sim):
        for i in range(20):
            yield 1.0
            log.append((sim.now, "busy", i))

    spawn(sim, patient(sim), name="patient")
    spawn(sim, busy(sim), name="busy")
    sim.run()
    assert log == ([(float(i + 1), "busy", i) for i in range(20)]
                   + [(10_000.0, "patient")])


# ----------------------------------------------------------------------
# waves vs the same members scheduled one by one
# ----------------------------------------------------------------------
def _run_both(build):
    """Run ``build(sim, log, waves)`` with waves and with individual
    entries; assert both logs match and return one."""
    logs = []
    for waves in (True, False):
        sim = Simulator()
        log = []
        build(sim, log, waves)
        sim.run()
        logs.append(log)
    assert logs[0] == logs[1]
    return logs[0]


def _schedule(sim, when, fn, args, waves):
    if waves:
        sim.schedule_wave(when, fn, args)
    else:
        for arg in args:
            sim._schedule_at(when, lambda _a, arg=arg: fn(arg))


def test_uniform_wave_matches_individual_schedules():
    """One N-member wave dispatches byte-identically to N separate
    ``_schedule_at`` calls (same contiguous seq block, same order)."""

    def build(sim, log, waves):
        sim._schedule_at(5.0, lambda _a: log.append((sim.now, "before")))
        _schedule(sim, 5.0, lambda i: log.append((sim.now, i)),
                  list(range(8)), waves)
        sim._schedule_at(5.0, lambda _a: log.append((sim.now, "after")))

    log = _run_both(build)
    assert log == ([(5.0, "before")] + [(5.0, i) for i in range(8)]
                   + [(5.0, "after")])


def test_wave_pending_events_accounting():
    sim = Simulator()
    sim.schedule_wave(1.0, lambda i: None, list(range(6)))
    assert sim.pending_events == 6
    sim.run()
    assert sim.pending_events == 0


def test_empty_wave_consumes_no_seq():
    sim = Simulator()
    sim.schedule_wave(1.0, lambda i: None, [])
    assert sim.pending_events == 0
    assert sim._seq == 0


@pytest.mark.parametrize("waves", [True, False], ids=["wave", "entries"])
def test_raising_wave_member_resumes_in_entry_order(waves):
    """A member that raises leaves ``run()``; the members after it stay
    pending and a second ``run()`` dispatches them ahead of a foreign
    event scheduled for the same instant — the order individual
    entries give."""
    sim = Simulator()
    log = []

    def member(i):
        log.append((sim.now, i))
        if i == 1:
            raise KeyError("member 1")

    _schedule(sim, 2.0, member, list(range(4)), waves)
    sim._schedule_at(2.0, lambda _a: log.append((sim.now, "foreign")))
    with pytest.raises(KeyError):
        sim.run()
    log.append("raised")
    log.append(("pending", sim.pending_events))
    sim.run()
    assert log == [(2.0, 0), (2.0, 1), "raised", ("pending", 3),
                   (2.0, 2), (2.0, 3), (2.0, "foreign")]
    assert sim.pending_events == 0


@pytest.mark.parametrize("seed", [7, 1234])
def test_randomized_storm_waves_match_entries(seed):
    """A seeded mess of sleeps, zero-delays, events, far timeouts and
    waves (scheduled up front and from inside processes) dispatches
    identically with waves and with their members as single entries."""

    def build(sim, log, waves):
        rng = random.Random(seed)

        def worker(sim, tag):
            for i in range(rng.randrange(5, 15)):
                roll = rng.random()
                if roll < 0.4:
                    yield rng.choice([0.25, 1.0, 3.0, 7.5, 512.0, 513.0])
                elif roll < 0.6:
                    yield 0.0
                elif roll < 0.8:
                    ev = sim.event()
                    sim._schedule_at(
                        sim.now + rng.choice([0.5, 2.0, 5000.0]),
                        lambda _a, ev=ev: ev.succeed())
                    yield ev
                else:
                    when = sim.now + rng.choice([0.0, 1.0, 8.0])
                    _schedule(sim, when,
                              lambda j, tag=tag: log.append(
                                  (sim.now, tag, "member", j)),
                              list(range(rng.randrange(0, 4))), waves)
                    yield float(rng.randrange(1, 4) * 8)
                log.append((sim.now, tag, i))

        for w in range(6):
            spawn(sim, worker(sim, f"w{w}"), name=f"w{w}")
        _schedule(sim, 4.0, lambda i: log.append((4.0, "wave0", i)),
                  list(range(4)), waves)
        _schedule(sim, 16.0, lambda i: log.append((sim.now, "wave1", i)),
                  [0, 1, 2], waves)

    log = _run_both(build)
    assert [e[0] for e in log] == sorted(e[0] for e in log)
    assert any(len(e) == 4 for e in log)  # in-process waves fired
