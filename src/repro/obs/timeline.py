"""Timeline telemetry: deterministic time-series probes over the run.

Spans answer *what happened*; histograms answer *how it was
distributed*; neither answers the question the paper's figures actually
plot — **how a quantity evolved over the job**.  Figure 9's footprint
claim is a trajectory (connections vs. time under churn), and ROADMAP
item 2's pressure-driven eviction needs a sampled occupancy signal to
act on.  This module is that substrate.

A :class:`Timeline` samples a set of registered :class:`Probe`\\ s — a
probe is just a name plus a zero-argument callable reading live layer
state — on a fixed **simulated-time** cadence.  Samples land in
columnar ring buffers (:class:`SeriesBuffer`) with windowed
aggregation: every ``window`` raw samples collapse into one stored
point carrying ``(t, min, max, mean, last)``, and once ``capacity``
windows are stored the oldest are overwritten (``dropped`` counts
them), so memory is bounded no matter how long the job runs.

Determinism contract
--------------------
Sampling must have **zero effect on simulated time** — the 128-PE
golden trace is byte-identical with the sampler on (pinned by
``tests/sim/test_golden_trace.py``).  That holds because:

* tick events consume sequence numbers but seq only breaks *same-time*
  ties, and inserting extra monotone allocations preserves the relative
  order of every other event;
* probe callables are pure reads — no RNG draws, no state mutation, no
  process interaction — and the tick callback schedules nothing but its
  own successor;
* the sampler stops re-arming once :meth:`Timeline.stop` runs (the Job
  calls it when every PE has finished), so the event queue still
  drains; one orphaned tick may fire after the stop and does nothing.

``parse_observe`` / ``canonical_observe`` also live here: they define
how ``RuntimeConfig.observe`` accepts ``bool | dict | TimelineConfig``
(e.g. ``observe={"timeline": True}``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    TYPE_CHECKING,
    Tuple,
)

from ..errors import ConfigError, require_positive_int, require_positive_real

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = [
    "TimelineConfig",
    "Probe",
    "SeriesBuffer",
    "Timeline",
    "parse_observe",
    "canonical_observe",
]


@dataclass(frozen=True)
class TimelineConfig:
    """Sampling parameters; frozen and hashable so it can live inside
    the frozen ``RuntimeConfig``."""

    #: Simulated microseconds between samples.
    interval_us: float = 1000.0
    #: Raw samples aggregated into one stored window point.
    window: int = 1
    #: Ring capacity in *windows* per series; the oldest windows are
    #: overwritten (and counted as dropped) beyond it.
    capacity: int = 65536

    def __post_init__(self) -> None:
        require_positive_real("timeline interval_us", self.interval_us)
        require_positive_int("timeline window", self.window)
        require_positive_int("timeline capacity", self.capacity)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimelineConfig":
        unknown = sorted(k for k in data if k not in cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown timeline config keys: {unknown}")
        return cls(**dict(data))

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def parse_observe(value: Any) -> Tuple[bool, Optional[TimelineConfig]]:
    """Normalise an ``observe=`` argument to ``(enabled, timeline_cfg)``.

    Accepted forms::

        False / None                     -> observation off
        True                             -> spans + metrics only
        {"timeline": True}               -> spans + metrics + timeline
        {"timeline": {"interval_us": 500}}
        TimelineConfig(...)              -> shorthand for the dict form
    """
    if value is None or value is False:
        return False, None
    if value is True:
        return True, None
    if isinstance(value, TimelineConfig):
        return True, value
    if isinstance(value, Mapping):
        unknown = sorted(k for k in value if k != "timeline")
        if unknown:
            raise ConfigError(f"unknown observe options: {unknown}")
        timeline = value.get("timeline", False)
        if timeline is True:
            return True, TimelineConfig()
        if timeline is False or timeline is None:
            return True, None
        if isinstance(timeline, TimelineConfig):
            return True, timeline
        if isinstance(timeline, Mapping):
            return True, TimelineConfig.from_dict(timeline)
        raise ConfigError(
            f"observe['timeline'] must be a bool, dict, or TimelineConfig, "
            f"got {timeline!r}"
        )
    raise ConfigError(
        f"observe must be a bool, dict, or TimelineConfig, got {value!r}"
    )


def canonical_observe(value: Any) -> Any:
    """Canonical, hashable storage form: ``False`` / ``True`` /
    :class:`TimelineConfig` (used by the frozen ``RuntimeConfig`` so
    dict arguments never leak into hashable fields)."""
    enabled, cfg = parse_observe(value)
    if not enabled:
        return False
    return cfg if cfg is not None else True


class Probe:
    """One registered data source: a key plus a pure-read callable."""

    __slots__ = ("name", "labels", "fn", "kind")

    def __init__(self, name: str, fn: Callable[[], float], kind: str,
                 labels: Tuple[Tuple[str, Any], ...]) -> None:
        if kind not in ("gauge", "counter"):
            raise ConfigError(f"probe kind must be gauge/counter, got {kind!r}")
        self.name = name
        self.fn = fn
        self.kind = kind
        self.labels = labels

    @property
    def key(self) -> str:
        """Flat series name, ``name{k=v,...}`` (same form as metrics)."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


class SeriesBuffer:
    """Columnar ring buffer of windowed samples for one series.

    Five parallel arrays — window end time, min, max, mean, last —
    preallocated at ``capacity`` and written through a wrapping head
    index.  ``snapshot`` unrolls to chronological Python lists.
    """

    __slots__ = (
        "kind", "capacity", "window", "dropped",
        "_t", "_min", "_max", "_mean", "_last", "_head", "_filled",
        "_wn", "_wsum", "_wmin", "_wmax", "_wlast",
    )

    def __init__(self, kind: str, capacity: int, window: int) -> None:
        self.kind = kind
        self.capacity = capacity
        self.window = window
        self.dropped = 0
        self._t = [0.0] * capacity
        self._min = [0.0] * capacity
        self._max = [0.0] * capacity
        self._mean = [0.0] * capacity
        self._last = [0.0] * capacity
        self._head = 0
        self._filled = 0
        # Accumulator for the currently-open window.
        self._wn = 0
        self._wsum = 0.0
        self._wmin = 0.0
        self._wmax = 0.0
        self._wlast = 0.0

    def record(self, now: float, value: float) -> None:
        """Fold one raw sample in; flush if the window is complete."""
        if self._wn == 0:
            self._wmin = self._wmax = value
        else:
            if value < self._wmin:
                self._wmin = value
            if value > self._wmax:
                self._wmax = value
        self._wn += 1
        self._wsum += value
        self._wlast = value
        if self._wn >= self.window:
            self._flush(now)

    def flush_partial(self, now: float) -> None:
        """Emit a short final window (job end rarely lands on a window
        boundary)."""
        if self._wn:
            self._flush(now)

    def _flush(self, now: float) -> None:
        slot = self._head
        self._t[slot] = now
        self._min[slot] = self._wmin
        self._max[slot] = self._wmax
        self._mean[slot] = self._wsum / self._wn
        self._last[slot] = self._wlast
        self._head = (slot + 1) % self.capacity
        if self._filled < self.capacity:
            self._filled += 1
        else:
            self.dropped += 1
        self._wn = 0
        self._wsum = 0.0

    def __len__(self) -> int:
        return self._filled

    def _unroll(self, column: List[float]) -> List[float]:
        if self._filled < self.capacity:
            return column[: self._filled]
        head = self._head
        return column[head:] + column[:head]

    @property
    def peak(self) -> float:
        """Largest windowed max on record (0.0 for an empty series)."""
        values = self._unroll(self._max)
        return max(values) if values else 0.0

    @property
    def final(self) -> float:
        """Most recent stored last-value (0.0 for an empty series)."""
        if self._filled == 0:
            return 0.0
        return self._last[(self._head - 1) % self.capacity]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "dropped": self.dropped,
            "t": self._unroll(self._t),
            "min": self._unroll(self._min),
            "max": self._unroll(self._max),
            "mean": self._unroll(self._mean),
            "last": self._unroll(self._last),
        }


class Timeline:
    """The sampler: probes in, windowed ring-buffered series out."""

    def __init__(self, sim: "Simulator", config: TimelineConfig) -> None:
        self.sim = sim
        self.config = config
        self.series: Dict[str, SeriesBuffer] = {}
        self._probes: List[Probe] = []
        self._started = False
        self._stopped = False
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # registration (Job wires the layers in at assembly time)
    # ------------------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float],
                  kind: str = "gauge", **labels: Any) -> None:
        """Register ``fn`` under ``name{labels}``.

        ``fn`` MUST be a pure read of live state: no RNG, no mutation,
        no simulated delay — the determinism contract depends on it.
        ``kind`` is ``"gauge"`` (instantaneous level) or ``"counter"``
        (cumulative count sampled over time; the diff tool turns those
        into rates).
        """
        probe = Probe(name, fn, kind, tuple(sorted(labels.items())))
        if probe.key in self.series:
            raise ConfigError(f"duplicate timeline probe {probe.key!r}")
        self._probes.append(probe)
        self.series[probe.key] = SeriesBuffer(
            kind, self.config.capacity, self.config.window
        )

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Take the t=0 anchor sample and arm the periodic tick."""
        if self._started:
            return
        self._started = True
        self._sample()
        self._arm()

    def stop(self) -> None:
        """Final sample + flush; the pending tick becomes a no-op."""
        if self._stopped:
            return
        self._stopped = True
        if not self._started:
            return
        self._sample()
        now = self.sim.now
        for buf in self.series.values():
            buf.flush_partial(now)

    def _arm(self) -> None:
        self.sim.schedule_callback(
            self.sim.now + self.config.interval_us, self._tick
        )

    def _tick(self, _arg: Any) -> None:
        if self._stopped:
            return
        self._sample()
        self._arm()

    def _sample(self) -> None:
        now = self.sim.now
        self.samples_taken += 1
        series = self.series
        for probe in self._probes:
            series[probe.key].record(now, float(probe.fn()))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump: config echo + every series, key-sorted."""
        return {
            "interval_us": self.config.interval_us,
            "window": self.config.window,
            "capacity": self.config.capacity,
            "samples": self.samples_taken,
            "series": {
                key: self.series[key].snapshot()
                for key in sorted(self.series)
            },
        }
