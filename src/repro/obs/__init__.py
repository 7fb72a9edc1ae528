"""repro.obs — the flight recorder: spans, histograms, timeline, exporters.

One :class:`Observability` object per observed :class:`~repro.core.job.
Job` holds the recording surfaces:

* :attr:`Observability.spans` — a :class:`SpanTracer` capturing nested,
  causally-linked spans across every substrate (SHMEM startup phases,
  on-demand handshakes, QP state machines, PMI collectives, fault
  hits);
* :meth:`Observability.histogram` — one log2-bucket latency
  :class:`Histogram` per name;
* :attr:`Observability.timeline` — the optional time-series sampler.

The job's flat :class:`~repro.sim.trace.Counters` stay the one counter
surface.  :meth:`Observability.telemetry` folds all of it into the one
machine-readable run record, ``JobResult.telemetry``::

    {"spans": {"count", "dropped", "open"},
     "counters": {name: int},              # the flat Counters, as is
     "histograms": {name: {count, sum, min, max, mean, p50, p99, buckets}},
     "timeline": {"interval_us", "samples",          # only when sampled
                  "series": {name: {kind, dropped, t, value}}}}

Layers hold a plain ``obs`` attribute that is ``None`` unless the job's
config sets ``observe=True`` — instrumentation sites cost exactly
one predicate check when observation is off (the ``KernelProfile.
_prof`` discipline), which is what keeps the golden traces and the
wall-clock bench untouched by this module's existence.

Export with :meth:`Observability.chrome_trace` (Perfetto-loadable) or
:meth:`Observability.flat_spans` (byte-stable golden text), compare two
records with ``python -m repro.obs diff``, or run from the command
line::

    PYTHONPATH=src python -m repro.obs --npes 64 --out trace.json
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..sim import Counters, Simulator
from .diff import (
    diff_snapshots,
    format_diff,
    load_snapshot,
    series_final,
    series_peak,
)
from .export import (
    chrome_trace,
    flat_dump,
    span_descendants,
    span_index,
    timeline_counter_events,
    timeline_csv,
    validate_chrome_trace,
)
from .metrics import BUCKET_BOUNDS, Histogram, bucket_index
from .spans import Span, SpanTracer
from .timeline import (
    SeriesBuffer,
    Timeline,
    TimelineConfig,
    canonical_observe,
    parse_observe,
)

__all__ = [
    "Observability",
    "Span",
    "SpanTracer",
    "Histogram",
    "BUCKET_BOUNDS",
    "bucket_index",
    "Timeline",
    "TimelineConfig",
    "SeriesBuffer",
    "parse_observe",
    "canonical_observe",
    "chrome_trace",
    "flat_dump",
    "span_index",
    "span_descendants",
    "validate_chrome_trace",
    "timeline_counter_events",
    "timeline_csv",
    "load_snapshot",
    "diff_snapshots",
    "format_diff",
    "series_peak",
    "series_final",
]


class Observability:
    """Span tracer, histograms and optional timeline for one observed job."""

    def __init__(self, sim: Simulator, span_capacity: int = 1_000_000,
                 timeline: Optional[TimelineConfig] = None) -> None:
        self.sim = sim
        self.spans = SpanTracer(sim, capacity=span_capacity)
        self.histograms: Dict[str, Histogram] = {}
        #: Time-series sampler; ``None`` unless the job asked for
        #: ``observe={"timeline": ...}``.
        self.timeline: Optional[Timeline] = (
            Timeline(sim, timeline) if timeline is not None else None
        )

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    # ------------------------------------------------------------------
    # results / export
    # ------------------------------------------------------------------
    def telemetry(self, counters: Counters) -> Dict[str, Any]:
        """The ``JobResult.telemetry`` record (schema in the module
        docstring)."""
        record: Dict[str, Any] = {
            "spans": {
                "count": len(self.spans),
                "dropped": self.spans.dropped,
                "open": sum(1 for s in self.spans if s.end_us is None),
            },
            "counters": dict(sorted(counters.as_dict().items())),
            "histograms": {
                name: self.histograms[name].snapshot()
                for name in sorted(self.histograms)
            },
        }
        if self.timeline is not None:
            record["timeline"] = self.timeline.snapshot()
        return record

    def chrome_trace(self, label: str = "repro simulated job") -> Dict[str, Any]:
        """Chrome trace-event JSON object (see :func:`export.chrome_trace`).

        When a timeline is attached its series are merged in as counter
        ("C") tracks, so footprint curves render under the span rows.
        """
        timeline = (self.timeline.snapshot()
                    if self.timeline is not None else None)
        return chrome_trace(self.spans, label=label,
                            dropped=self.spans.dropped,
                            timeline=timeline)

    def flat_spans(self) -> List[str]:
        """Deterministic flat-text span dump for golden comparisons."""
        lines = flat_dump(self.spans)
        if self.spans.dropped:
            lines.append(f"# dropped {self.spans.dropped} spans "
                         f"(capacity {self.spans.capacity})")
        return lines
