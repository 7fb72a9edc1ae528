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
)
from repro.sim import Simulator


class TestTimelineConfig:
    def test_defaults(self):
        cfg = TimelineConfig()
        assert cfg.interval_us == 1000.0
        assert cfg.window == 1 and cfg.capacity == 65536

    @pytest.mark.parametrize("kwargs", [
        {"interval_us": 0.0},
        {"interval_us": -5.0},
        {"window": 0},
        {"capacity": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TimelineConfig(**kwargs)

    @pytest.mark.parametrize("field,value,message", [
        ("interval_us", float("nan"), "finite and positive, got nan"),
        ("interval_us", float("inf"), "finite and positive, got inf"),
        ("interval_us", "5", "finite and positive, got '5'"),
        ("window", 1.5, "integer >= 1, got 1.5"),
        ("window", True, "integer >= 1, got True"),
        ("capacity", "8", "integer >= 1, got '8'"),
    ])
    def test_rejects_bad_numbers_in_one_line(self, field, value, message):
        """A NaN interval would otherwise reach the event queue from
        the sampler; a string would raise a bare TypeError."""
        with pytest.raises(ConfigError, match=f"{field} must be") as info:
            TimelineConfig(**{field: value})
        assert str(info.value).endswith(message)
        assert "\n" not in str(info.value)

    def test_from_dict_round_trip(self):
        cfg = TimelineConfig(interval_us=500.0, window=4, capacity=128)
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
        cfg = TimelineConfig(window=2)
        assert parse_observe(cfg) == (True, cfg)
        assert canonical_observe(cfg) is cfg

    @pytest.mark.parametrize("value", [
        1, "yes", {"timelines": True}, {"timeline": 3},
    ])
    def test_rejects_malformed(self, value):
        with pytest.raises(ConfigError):
            parse_observe(value)

    def test_canonical_form_is_hashable(self):
        for value in (False, True, {"timeline": {"window": 2}}):
            hash(canonical_observe(value))


class TestSeriesBuffer:
    def test_window_of_one_stores_raw_samples(self):
        buf = SeriesBuffer("gauge", capacity=8, window=1)
        for t, v in [(0.0, 3.0), (1.0, 1.0), (2.0, 7.0)]:
            buf.record(t, v)
        snap = buf.snapshot()
        assert snap["t"] == [0.0, 1.0, 2.0]
        assert snap["min"] == snap["max"] == snap["mean"] == snap["last"] == [
            3.0, 1.0, 7.0
        ]
        assert buf.peak == 7.0 and buf.final == 7.0
        assert snap["dropped"] == 0

    def test_windowed_aggregation(self):
        buf = SeriesBuffer("gauge", capacity=8, window=4)
        for i, v in enumerate([4.0, 2.0, 8.0, 6.0]):
            buf.record(float(i), v)
        snap = buf.snapshot()
        # One stored point stamped at the closing sample's time.
        assert snap["t"] == [3.0]
        assert snap["min"] == [2.0] and snap["max"] == [8.0]
        assert snap["mean"] == [5.0] and snap["last"] == [6.0]

    def test_flush_partial_emits_the_open_window(self):
        buf = SeriesBuffer("gauge", capacity=8, window=4)
        buf.record(0.0, 2.0)
        buf.record(1.0, 4.0)
        assert len(buf) == 0
        buf.flush_partial(1.5)
        snap = buf.snapshot()
        assert snap["t"] == [1.5] and snap["mean"] == [3.0]
        buf.flush_partial(2.0)  # nothing pending: no-op
        assert len(buf) == 1

    def test_ring_overwrites_oldest_and_counts_dropped(self):
        buf = SeriesBuffer("gauge", capacity=3, window=1)
        for i in range(5):
            buf.record(float(i), float(i * 10))
        snap = buf.snapshot()
        assert snap["t"] == [2.0, 3.0, 4.0]
        assert snap["last"] == [20.0, 30.0, 40.0]
        assert snap["dropped"] == 2
        assert buf.final == 40.0
        # Peak reflects only what is still on record.
        assert buf.peak == 40.0

    def test_empty_series(self):
        buf = SeriesBuffer("gauge", capacity=4, window=1)
        assert buf.peak == 0.0 and buf.final == 0.0
        assert buf.snapshot()["t"] == []


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
        assert snap["last"][0] == 0.0
        assert snap["last"][-1] == tl.series["layer.x"].final
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
        # Distinct labels are distinct series.
        tl.add_probe("x", lambda: 1.0, policy="lru")
        assert sorted(tl.series) == ["x", "x{policy=lru}"]

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
