"""Exporters: Chrome trace-event JSON (Perfetto-loadable) and flat text.

Three formats, three purposes:

* :func:`chrome_trace` — the `Trace Event Format
  <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
  consumed by ``ui.perfetto.dev`` and ``chrome://tracing``.  One track
  (``tid``) per PE plus dedicated ``fabric`` / ``pmi`` / ``faults``
  tracks; durations become complete (``"X"``) events, instants become
  ``"i"`` events, and every cross-actor parent link becomes a flow
  (``"s"``/``"f"``) arrow so a connection establishment reads as one
  causal chain across tracks.

* :func:`flat_dump` — a deterministic one-line-per-span text form for
  golden tests: byte-for-byte comparable across runs, like
  ``Tracer.formatted()``.

* :func:`timeline_csv` — the timeline sampler's series as one flat
  CSV (``series,kind,t_us,value``) for offline plotting; the
  ``churn-smoke`` CI job uploads it as an artifact.

:func:`validate_chrome_trace` is a dependency-free structural check of
the trace-event schema (used by the CI ``obs-smoke`` step — the
container installs nothing, so the validator lives here).
:func:`timeline_counter_events` renders a timeline snapshot as counter
("C") track events, merged into :func:`chrome_trace` via its
``timeline=`` argument so footprint curves render under the span rows.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .spans import Span

__all__ = [
    "chrome_trace",
    "flat_dump",
    "span_index",
    "span_descendants",
    "validate_chrome_trace",
    "timeline_counter_events",
    "timeline_csv",
]

#: Well-known non-PE actors, in display order after the PE tracks.
_SPECIAL_ACTORS = ("fabric", "pmi", "faults")


def _actor_order(actors: Iterable[str]) -> List[str]:
    """PE tracks in rank order, then fabric/pmi/faults, then the rest."""
    pes: List[Tuple[int, str]] = []
    special: List[str] = []
    other: List[str] = []
    # dict.fromkeys, not set(): dedup without hash-order iteration (the
    # output is fully sorted below, but the lint bans the pattern
    # wholesale — see repro.check.lint).
    for actor in dict.fromkeys(actors):
        if actor.startswith("pe") and actor[2:].isdigit():
            pes.append((int(actor[2:]), actor))
        elif actor in _SPECIAL_ACTORS:
            special.append(actor)
        else:
            other.append(actor)
    ordered = [a for _, a in sorted(pes)]
    ordered += [a for a in _SPECIAL_ACTORS if a in special]
    ordered += sorted(other)
    return ordered


def timeline_counter_events(
    timeline: Dict[str, Any], pid: int = 1, tid: int = 0,
) -> List[Dict[str, Any]]:
    """Render a timeline snapshot as Chrome counter ("C") track events.

    One counter track per series (Perfetto keys counter tracks by event
    ``name``, so they all share one synthetic ``tid``); one event per
    stored sample.
    """
    events: List[Dict[str, Any]] = []
    series = timeline.get("series", {})
    for key in sorted(series):
        buf = series[key]
        for t, value in zip(buf["t"], buf["value"]):
            events.append({
                "name": key, "cat": "timeline", "ph": "C",
                "ts": t, "pid": pid, "tid": tid,
                "args": {"value": value},
            })
    return events


def chrome_trace(
    spans: Iterable[Span],
    label: str = "repro simulated job",
    dropped: int = 0,
    timeline: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event JSON object (not a string).

    ``timeline`` (a :meth:`Timeline.snapshot` dict) merges counter
    tracks into the same trace.
    """
    spans = list(spans)
    by_id: Dict[int, Span] = {s.span_id: s for s in spans}
    actors = _actor_order(s.actor for s in spans)
    tids = {actor: i + 1 for i, actor in enumerate(actors)}
    pid = 1

    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": label},
    }]
    for actor in actors:
        events.append({
            "ph": "M", "pid": pid, "tid": tids[actor],
            "name": "thread_name", "args": {"name": actor},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": tids[actor],
            "name": "thread_sort_index", "args": {"sort_index": tids[actor]},
        })

    for span in spans:
        tid = tids[span.actor]
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        if span.end_us is not None and span.end_us > span.start_us:
            events.append({
                "name": span.name, "cat": "span", "ph": "X",
                "ts": span.start_us, "dur": span.end_us - span.start_us,
                "pid": pid, "tid": tid, "args": args,
            })
        else:
            if span.end_us is None:
                args["open"] = True
            events.append({
                "name": span.name, "cat": "span", "ph": "i",
                "ts": span.start_us, "pid": pid, "tid": tid,
                "s": "t", "args": args,
            })
        # Cross-actor causality: draw a flow arrow parent -> child.
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None and parent.actor != span.actor:
            # The "s" anchor must lie inside the parent slice.
            anchor = span.start_us
            if anchor < parent.start_us:
                anchor = parent.start_us
            if parent.end_us is not None and anchor > parent.end_us:
                anchor = parent.end_us
            events.append({
                "name": span.name, "cat": "causal", "ph": "s",
                "id": span.span_id, "ts": anchor,
                "pid": pid, "tid": tids[parent.actor],
            })
            events.append({
                "name": span.name, "cat": "causal", "ph": "f", "bp": "e",
                "id": span.span_id, "ts": span.start_us,
                "pid": pid, "tid": tid,
            })

    trace: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans": len(spans), "dropped_spans": dropped},
    }
    if timeline is not None:
        counter_events = timeline_counter_events(timeline, pid=pid)
        events.extend(counter_events)
        trace["otherData"]["counter_series"] = len(timeline.get("series", {}))
        trace["otherData"]["counter_samples"] = len(counter_events)
    return trace


def flat_dump(spans: Iterable[Span]) -> List[str]:
    """Canonical one-line-per-span form for byte-exact golden diffs.

    ``start|end|actor|name|span_id|parent_id|attrs`` with ``repr`` for
    times and attribute values (attributes key-sorted), mirroring
    ``Tracer.formatted``.
    """
    lines = []
    for s in spans:
        end = "open" if s.end_us is None else repr(s.end_us)
        attrs = (
            ",".join(f"{k}={s.attrs[k]!r}" for k in sorted(s.attrs))
            if s.attrs else "-"
        )
        parent = "-" if s.parent_id is None else str(s.parent_id)
        lines.append(
            f"{s.start_us!r}|{end}|{s.actor}|{s.name}|{s.span_id}|"
            f"{parent}|{attrs}"
        )
    return lines


# ----------------------------------------------------------------------
# tree reconstruction helpers (tests and analysis)
# ----------------------------------------------------------------------
def span_index(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    """Map parent_id -> children, in recording order."""
    children: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    return children


def span_descendants(root: Span, children: Dict[Optional[int], List[Span]]
                     ) -> List[Span]:
    """Every span transitively parented under ``root`` (depth-first)."""
    out: List[Span] = []
    stack = list(reversed(children.get(root.span_id, [])))
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(reversed(children.get(s.span_id, [])))
    return out


# ----------------------------------------------------------------------
# schema validation (CI obs-smoke)
# ----------------------------------------------------------------------
_KNOWN_PHASES = {"B", "E", "X", "i", "I", "M", "s", "t", "f", "C", "b", "e", "n"}
_NUMBER = (int, float)


def _fail(i: int, event: Any, why: str) -> None:
    raise ValueError(f"traceEvents[{i}]: {why} (event={event!r})")


def validate_chrome_trace(trace: Any) -> Dict[str, int]:
    """Structurally validate a trace-event JSON object.

    Checks the container shape and, per event, the fields the format
    requires for its phase type.  Returns ``{phase: count}`` stats;
    raises :class:`ValueError` with a precise location on violation.
    """
    if isinstance(trace, str):
        trace = json.loads(trace)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a 'traceEvents' key")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty array")

    stats: Dict[str, int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            _fail(i, ev, "event is not an object")
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            _fail(i, ev, f"unknown or missing ph {ph!r}")
        if not isinstance(ev.get("pid"), int):
            _fail(i, ev, "pid must be an int")
        if ph != "M":
            if not isinstance(ev.get("ts"), _NUMBER):
                _fail(i, ev, "ts must be a number")
            if ev["ts"] < 0:
                _fail(i, ev, "ts must be >= 0")
            if not isinstance(ev.get("tid"), int):
                _fail(i, ev, "tid must be an int")
        if ph in ("X", "B", "E", "i", "I", "s", "f", "C"):
            if not isinstance(ev.get("name"), str) or not ev["name"]:
                _fail(i, ev, "name must be a non-empty string")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, _NUMBER) or dur < 0:
                _fail(i, ev, "X event needs dur >= 0")
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            _fail(i, ev, "instant scope must be one of t/p/g")
        if ph in ("s", "f") and "id" not in ev:
            _fail(i, ev, "flow event needs an id")
        if ph == "M":
            if ev.get("name") not in (
                "process_name", "thread_name", "process_sort_index",
                "thread_sort_index", "process_labels",
            ):
                _fail(i, ev, f"unknown metadata name {ev.get('name')!r}")
            if not isinstance(ev.get("args"), dict):
                _fail(i, ev, "metadata event needs args")
        stats[ph] = stats.get(ph, 0) + 1

    # Every flow start must have a matching finish (and vice versa).
    starts = {e["id"] for e in events if e.get("ph") == "s"}
    ends = {e["id"] for e in events if e.get("ph") == "f"}
    if starts != ends:
        raise ValueError(
            f"unmatched flow ids: starts-only={sorted(starts - ends)[:5]} "
            f"finishes-only={sorted(ends - starts)[:5]}"
        )
    return stats


# ----------------------------------------------------------------------
# timeline CSV (offline plotting)
# ----------------------------------------------------------------------
def timeline_csv(timeline: Dict[str, Any]) -> str:
    """Flatten a timeline snapshot to CSV text, ``series,kind,t_us,value``.

    One row per stored sample, series key-sorted then chronological;
    floats are written with ``repr``, so no digit is lost.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("series", "kind", "t_us", "value"))
    series = timeline.get("series", {})
    for key in sorted(series):
        buf = series[key]
        for t, value in zip(buf["t"], buf["value"]):
            writer.writerow((key, buf["kind"], t, value))
    return out.getvalue()
