"""Analytical phase-model (macro) support: kernel-side containers.

The macro layer (``RuntimeConfig(macro=True)``) replaces the per-PE
generator swarms of *homogeneous, data-independent* startup phases with
closed-form cost curves evaluated directly from the
:class:`~repro.cluster.params.CostModel`.  The per-layer model providers
live next to the code they model:

* :mod:`repro.pmi.models` — tree fence/allgather dissemination;
* :mod:`repro.shmem.models` — the on-demand ``start_pes`` flow itself
  (the orchestrator ``run_macro_job`` lives there);
* :mod:`repro.gasnet.models` — the on-demand connect/teardown cost
  model behind the finalize.

This module holds only the kernel-side glue those providers share: a
lightweight stand-in for a :class:`~repro.shmem.runtime.ShmemPE` that
quacks exactly like one for the purposes of
:meth:`repro.core.metrics.StartupReport.from_pes` and
:meth:`repro.core.metrics.ResourceReport.from_pes`, plus the container
the orchestrator returns to :class:`repro.core.job.Job`.

Equivalence contract
--------------------
A macro run must reproduce the exact DES's simulated phase times,
``StartupReport`` breakdown and the deterministic per-layer counters
*bit for bit* (see ``tests/core/test_macro_equivalence.py``).  The
closed forms therefore mirror the engine's float arithmetic operation
by operation — e.g. a phase duration is computed as ``end - begin`` of
two separately accumulated instants, never as an algebraically
simplified sum — and the aggregation reuses the real ``from_pes``
reducers rather than re-deriving means.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["MacroPE", "MacroRunResult"]


class MacroPE:
    """Stand-in PE carrying one rank's analytically derived metrics.

    Exposes exactly the surface the job-level reducers read:
    ``pe.timer.breakdown()``, ``pe.init_duration`` and
    ``pe.resource_usage()``.  ``timer`` is the object itself (the
    breakdown is precomputed), which keeps a 1M-PE sweep at one small
    object + one dict per rank; the resource dict is typically shared
    between ranks (identical on every PE in the on-demand flow).
    """

    __slots__ = ("rank", "_breakdown", "init_done_at", "init_duration",
                 "_resources")

    def __init__(self, rank: int, breakdown: Dict[str, float],
                 init_done_at: float, init_duration: float,
                 resources: Dict[str, float]) -> None:
        self.rank = rank
        self._breakdown = breakdown
        self.init_done_at = init_done_at
        self.init_duration = init_duration
        self._resources = resources

    @property
    def timer(self) -> "MacroPE":
        return self

    def breakdown(self) -> Dict[str, float]:
        return self._breakdown

    def resource_usage(self) -> Dict[str, float]:
        return self._resources


class MacroRunResult:
    """What :func:`repro.shmem.models.run_macro_job` hands back to the
    Job (which assembles the public :class:`~repro.core.metrics.
    JobResult` from it, reusing the exact engine's reducers)."""

    __slots__ = ("pes", "wall_time_us", "app_done_us", "app_results",
                 "counters", "modeled")

    def __init__(self, pes: List[Any], wall_time_us: float,
                 app_done_us: float, app_results: List[Any],
                 counters: Dict[str, int],
                 modeled: Optional[List[str]] = None) -> None:
        self.pes = pes
        self.wall_time_us = wall_time_us
        self.app_done_us = app_done_us
        self.app_results = app_results
        self.counters = counters
        #: Counter keys / fields whose values come from a *model* (the
        #: no-loss finalize approximation) rather than the exact
        #: equivalence argument; documented in DESIGN.md and excluded
        #: from the equivalence fixtures.
        self.modeled = modeled or []
