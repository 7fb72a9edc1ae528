"""Per-layer attribution: host time, calls, retained memory and counters.

A layer is a package under ``src/repro/<layer>/``.  Profiler entries and
allocation sites are attributed by the file they sit in; anything outside
the layer packages (builtins, the standard library, NumPy, ``repro.obs``,
...) is ``other``.  Counters come from ``JobResult.counters`` and
``KernelProfile``, renamed with the layer as prefix.
"""

from __future__ import annotations

import pstats
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "PER_LAYER", "layer_of", "profile_by_layer",
           "memory_by_layer", "layer_counters"]

LAYERS = ("sim", "ib", "pmi", "gasnet", "shmem", "mpi", "apps", "core",
          "cluster", "other")

_MARK = "/src/repro/"

#: ``ib.qp_cache_misses`` <- ``hca.qp_cache_misses`` and so on.
_RENAMED = {
    "ib.rc_qp_created": "verbs.rc_qp_created",
    "ib.ud_qp_created": "verbs.ud_qp_created",
    "ib.mr_registered": "verbs.mr_registered",
    "ib.fabric_packets": "fabric.packets",
    "ib.fabric_bytes": "fabric.bytes",
    "ib.qp_cache_misses": "hca.qp_cache_misses",
    "ib.rnr_retries": "rc.rnr_retries",
    "ib.ud_dropped": "fabric.ud_dropped",
    "pmi.tree_messages": "pmi.tree_messages",
    "pmi.tree_bytes": "pmi.tree_bytes",
    "pmi.gets": "pmi.gets",
    "pmi.fences": "pmi.fences",
    "pmi.iallgathers": "pmi.iallgathers",
    "gasnet.connect_requests": "conduit.connect_requests",
    "gasnet.connect_retries": "conduit.connect_retries",
    "gasnet.connections": "conduit.connections",
    "gasnet.evictions": "conduit.evictions",
    "gasnet.reconnects": "conduit.reconnects",
    "gasnet.am_sent": "conduit.am_sent",
    "gasnet.dup_requests": "conduit.dup_requests",
    "shmem.puts": "shmem.puts",
    "shmem.atomics": "shmem.atomics",
    "shmem.barriers": "shmem.barriers",
}
_MPI_COLLECTIVES = ("mpi.barriers", "mpi.bcasts", "mpi.reduces",
                    "mpi.allgathers", "mpi.alltoalls")
_KERNEL = ("events_scheduled", "events_dispatched", "waves_scheduled",
           "micro_ratio", "batch_ratio")

_COUNTER_UNITS = {
    **{f"sim.{k}": "count" for k in _KERNEL},
    "sim.micro_ratio": "ratio",
    "sim.batch_ratio": "ratio",
    **{k: "count" for k in _RENAMED},
    "ib.fabric_bytes": "bytes",
    "pmi.tree_bytes": "bytes",
    "ib.qp_cache_hit_ratio": "ratio",
    "gasnet.retry_ratio": "ratio",
    "shmem.start_pes_mean_us": "us",
    "shmem.start_pes_max_us": "us",
    "mpi.collectives": "count",
}
#: Ratios where more is better; every other layer metric is a cost.
_HIGHER = {"sim.micro_ratio", "sim.batch_ratio", "ib.qp_cache_hit_ratio"}


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = []
    for layer in LAYERS:
        rows += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"),
                 (f"{layer}.build_self_s", "s"),
                 (f"{layer}.retained_mb", "MiB"),
                 (f"{layer}.build_retained_mb", "MiB")]
    rows += sorted(_COUNTER_UNITS.items())
    return [(name, unit, "higher" if name in _HIGHER else "lower")
            for name, unit in rows]


#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = _per_layer()


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside them)."""
    path = filename.replace("\\", "/")
    at = path.rfind(_MARK)
    if at < 0:
        return "other"
    package, sep, _ = path[at + len(_MARK):].partition("/")
    return package if sep and package in LAYERS else "other"


def profile_by_layer(profile) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` from a ``cProfile.Profile``."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in (
            pstats.Stats(profile).stats.items()):
        row = out[layer_of(filename)]
        row["self_s"] += tt
        row["calls"] += nc
    return out


def memory_by_layer(snapshot) -> Dict[str, float]:
    """``{layer: MiB}`` still allocated in a ``tracemalloc`` snapshot."""
    out = {layer: 0.0 for layer in LAYERS}
    for stat in snapshot.statistics("filename"):
        out[layer_of(stat.traceback[0].filename)] += stat.size / 2**20
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(result, kernel_snapshot: dict) -> Dict[str, float]:
    """The counter half of the ledger for one run."""
    c = result.counters
    out = {f"sim.{k}": kernel_snapshot[k] for k in _KERNEL}
    out.update({name: c.get(src, 0) for name, src in _RENAMED.items()})
    hits, misses = c.get("hca.qp_cache_hits", 0), c.get("hca.qp_cache_misses", 0)
    out["ib.qp_cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["gasnet.retry_ratio"] = _ratio(c.get("conduit.connect_retries", 0),
                                       c.get("conduit.connect_requests", 0))
    out["shmem.start_pes_mean_us"] = result.startup.mean_us
    out["shmem.start_pes_max_us"] = result.startup.max_us
    out["mpi.collectives"] = sum(c.get(k, 0) for k in _MPI_COLLECTIVES)
    return out
