"""Timeline sampler unit tests: config parsing, the ring buffer, and
the sampling loop against a live simulator.

The byte-identity (zero simulated-time effect) contract is pinned in
``tests/sim/test_golden_trace.py``; here we test the mechanism itself.
"""

import pytest

from repro.errors import ConfigError
from repro.obs import (
    SeriesBuffer,
    Timeline,
    TimelineConfig,
    canonical_observe,
    parse_observe,
    series_final,
    series_peak,
)
from repro.sim import Simulator


class TestTimelineConfig:
    def test_defaults(self):
        assert TimelineConfig().as_dict() == {"interval_us": 1000.0}

    @pytest.mark.parametrize("kwargs", [
        {"interval_us": 0.0},
        {"interval_us": -5.0},
        {"window": 0},
        {"capacity": 0},
    ])
    def test_validation(self, kwargs):
        # Bad intervals, and the retired window/capacity knobs, fail
        # where the config is built.
        with pytest.raises(ConfigError):
            parse_observe({"timeline": kwargs})

    @pytest.mark.parametrize("field,value,message", [
        ("interval_us", float("nan"), "finite and positive, got nan"),
        ("interval_us", float("inf"), "finite and positive, got inf"),
        ("interval_us", "5", "finite and positive, got '5'"),
    ])
    def test_rejects_bad_numbers_in_one_line(self, field, value, message):
        """A NaN interval would otherwise reach the event queue from
        the sampler; a string would raise a bare TypeError."""
        with pytest.raises(ConfigError, match=f"{field} must be") as info:
            TimelineConfig(**{field: value})
        assert str(info.value).endswith(message)
        assert "\n" not in str(info.value)

    def test_from_dict_round_trip(self):
        cfg = TimelineConfig(interval_us=500.0)
        assert TimelineConfig.from_dict(cfg.as_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            TimelineConfig.from_dict({"interval": 100})
        with pytest.raises(ConfigError, match="unknown timeline config"):
            parse_observe({"timeline": {"enabled": False}})


class TestParseObserve:
    @pytest.mark.parametrize("value", [False, None])
    def test_off(self, value):
        assert parse_observe(value) == (False, None)
        assert canonical_observe(value) is False

    def test_plain_true_has_no_timeline(self):
        assert parse_observe(True) == (True, None)
        assert canonical_observe(True) is True

    def test_timeline_true(self):
        on, cfg = parse_observe({"timeline": True})
        assert on and cfg == TimelineConfig()

    def test_timeline_dict(self):
        on, cfg = parse_observe({"timeline": {"interval_us": 250.0}})
        assert on and cfg.interval_us == 250.0

    def test_timeline_config_shorthand(self):
        cfg = TimelineConfig(interval_us=2.0)
        assert parse_observe(cfg) == (True, cfg)
        assert canonical_observe(cfg) is cfg

    @pytest.mark.parametrize("value", [
        1, "yes", {"timelines": True}, {"timeline": 3},
    ])
    def test_rejects_malformed(self, value):
        with pytest.raises(ConfigError):
            parse_observe(value)

    def test_canonical_form_is_hashable(self):
        for value in (False, True, {"timeline": {"interval_us": 2.0}}):
            hash(canonical_observe(value))


class TestSeriesBuffer:
    def test_window_of_one_stores_raw_samples(self):
        """Every sample is stored as it was taken, one (t, value) point."""
        buf = SeriesBuffer("gauge", capacity=8)
        for t, v in [(0.0, 3.0), (1.0, 1.0), (2.0, 7.0)]:
            buf.record(t, v)
        assert buf.snapshot() == {
            "kind": "gauge", "dropped": 0,
            "t": [0.0, 1.0, 2.0], "value": [3.0, 1.0, 7.0],
        }
        assert series_peak(buf.snapshot()) == 7.0
        assert series_final(buf.snapshot()) == 7.0

    def test_ring_overwrites_oldest_and_counts_dropped(self):
        buf = SeriesBuffer("gauge", capacity=3)
        for i in range(5):
            buf.record(float(i), float(i * 10))
        snap = buf.snapshot()
        assert snap["t"] == [2.0, 3.0, 4.0]
        assert snap["value"] == [20.0, 30.0, 40.0]
        assert snap["dropped"] == 2
        assert len(buf) == 3
        assert series_final(snap) == 40.0
        # Peak reflects only what is still on record.
        assert series_peak(snap) == 40.0

    def test_empty_series(self):
        buf = SeriesBuffer("gauge", capacity=4)
        snap = buf.snapshot()
        assert series_peak(snap) == 0.0 and series_final(snap) == 0.0
        assert snap["t"] == []


class TestTimelineSampling:
    def _timeline(self, **cfg):
        sim = Simulator()
        tl = Timeline(sim, TimelineConfig(**cfg))
        return sim, tl

    def test_samples_on_the_configured_cadence(self):
        sim, tl = self._timeline(interval_us=100.0)
        values = {"x": 0.0}
        tl.add_probe("layer.x", lambda: values["x"])
        tl.start()

        def bump(sim):
            for _ in range(5):
                yield 100.0
                values["x"] += 1.0

        from repro.sim import spawn
        spawn(sim, bump(sim), name="bump")
        sim.run(until=450.0)
        tl.stop()
        snap = tl.snapshot()["series"]["layer.x"]
        # Anchor sample at t=0 plus one per 100us tick, plus the final
        # stop() sample.
        assert snap["t"][0] == 0.0
        assert snap["value"][0] == 0.0
        assert snap["value"][-1] == values["x"] == 4.0
        assert tl.samples_taken >= 5

    def test_stop_disarms_the_sampler(self):
        sim, tl = self._timeline(interval_us=50.0)
        tl.add_probe("x", lambda: 1.0)
        tl.start()
        sim.run(until=200.0)
        tl.stop()
        taken = tl.samples_taken
        # The one already-armed tick fires as a no-op; nothing re-arms.
        sim.run()
        assert tl.samples_taken == taken
        assert sim.pending_events == 0

    def test_stop_before_start_is_a_no_op(self):
        _sim, tl = self._timeline()
        tl.stop()
        assert tl.samples_taken == 0

    def test_duplicate_probe_key_rejected(self):
        _sim, tl = self._timeline()
        tl.add_probe("x", lambda: 0.0)
        with pytest.raises(ConfigError):
            tl.add_probe("x", lambda: 1.0)
        assert sorted(tl.series) == ["x"]

    def test_counter_kind_recorded_in_snapshot(self):
        _sim, tl = self._timeline()
        tl.add_probe("evictions", lambda: 3.0, kind="counter")
        tl.start()
        tl.stop()
        assert tl.snapshot()["series"]["evictions"]["kind"] == "counter"

    def test_bad_probe_kind_rejected(self):
        _sim, tl = self._timeline()
        with pytest.raises(ConfigError):
            tl.add_probe("x", lambda: 0.0, kind="rate")
