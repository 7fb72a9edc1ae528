"""Timeline telemetry: deterministic time-series probes over the run.

Spans answer *what happened*; histograms answer *how it was
distributed*; neither answers the question the paper's figures actually
plot — **how a quantity evolved over the job**.  Figure 9's footprint
claim is a trajectory (connections vs. time under churn), and ROADMAP
item 2's pressure-driven eviction needs a sampled occupancy signal to
act on.  This module is that substrate.

A :class:`Timeline` samples a set of registered probes — a probe is
just a name plus a zero-argument callable reading live layer state — on
a fixed **simulated-time** cadence.  Each sample lands as one
``(t, value)`` point in a per-series ring buffer (:class:`SeriesBuffer`);
once :data:`CAPACITY` points are stored the oldest are overwritten
(``dropped`` counts them), so memory is bounded no matter how long the
job runs.

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

from ..errors import ConfigError, require_positive_real

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = [
    "CAPACITY",
    "TimelineConfig",
    "SeriesBuffer",
    "Timeline",
    "parse_observe",
    "canonical_observe",
]


#: Ring capacity in points per series; the oldest points are
#: overwritten (and counted as dropped) beyond it.
CAPACITY = 65536


@dataclass(frozen=True)
class TimelineConfig:
    """Sampling parameters; frozen and hashable so it can live inside
    the frozen ``RuntimeConfig``."""

    #: Simulated microseconds between samples.
    interval_us: float = 1000.0

    def __post_init__(self) -> None:
        require_positive_real("timeline interval_us", self.interval_us)

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
        True                             -> spans + histograms only
        {"timeline": True}               -> spans + histograms + timeline
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


class SeriesBuffer:
    """Ring buffer of ``(t, value)`` samples for one series.

    Grows to ``capacity`` points, then overwrites the oldest through a
    wrapping head index; ``snapshot`` unrolls to chronological lists.
    """

    __slots__ = ("kind", "capacity", "dropped", "_t", "_value", "_head")

    def __init__(self, kind: str, capacity: int = CAPACITY) -> None:
        self.kind = kind
        self.capacity = capacity
        self.dropped = 0
        self._t: List[float] = []
        self._value: List[float] = []
        self._head = 0

    def record(self, now: float, value: float) -> None:
        if len(self._t) < self.capacity:
            self._t.append(now)
            self._value.append(value)
            return
        slot = self._head
        self._t[slot] = now
        self._value[slot] = value
        self._head = (slot + 1) % self.capacity
        self.dropped += 1

    def __len__(self) -> int:
        return len(self._t)

    def _unroll(self, column: List[float]) -> List[float]:
        head = self._head
        return column[head:] + column[:head]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "dropped": self.dropped,
            "t": self._unroll(self._t),
            "value": self._unroll(self._value),
        }


class Timeline:
    """The sampler: probes in, ring-buffered series out."""

    def __init__(self, sim: "Simulator", config: TimelineConfig) -> None:
        self.sim = sim
        self.config = config
        self.series: Dict[str, SeriesBuffer] = {}
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self._started = False
        self._stopped = False
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # registration (Job wires the layers in at assembly time)
    # ------------------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float],
                  kind: str = "gauge") -> None:
        """Register ``fn`` as the series ``name``.

        ``fn`` MUST be a pure read of live state: no RNG, no mutation,
        no simulated delay — the determinism contract depends on it.
        ``kind`` is ``"gauge"`` (instantaneous level) or ``"counter"``
        (cumulative count sampled over time); the diff tool reports a
        series of either kind by its peak and final value.
        """
        if kind not in ("gauge", "counter"):
            raise ConfigError(f"probe kind must be gauge/counter, got {kind!r}")
        if name in self.series:
            raise ConfigError(f"duplicate timeline probe {name!r}")
        self._probes.append((name, fn))
        self.series[name] = SeriesBuffer(kind)

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
        """Final sample; the pending tick becomes a no-op."""
        if self._stopped:
            return
        self._stopped = True
        if self._started:
            self._sample()

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
        for name, fn in self._probes:
            series[name].record(now, float(fn()))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump: cadence, sample count and every series,
        key-sorted."""
        return {
            "interval_us": self.config.interval_us,
            "samples": self.samples_taken,
            "series": {
                key: self.series[key].snapshot()
                for key in sorted(self.series)
            },
        }
