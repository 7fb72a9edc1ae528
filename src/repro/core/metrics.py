"""Job-level measurement containers (what the benchmarks report)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from ..shmem.startup import STARTUP_PHASES

__all__ = ["StartupReport", "ResourceReport", "JobResult"]


@dataclass
class StartupReport:
    """Aggregated ``start_pes`` timing across all PEs (Figures 1, 5)."""

    #: Mean time per phase (us), keyed by the paper's phase labels.
    phase_means: Dict[str, float]
    #: Mean / max of the whole start_pes call (us).
    mean_us: float
    max_us: float

    @classmethod
    def from_pes(cls, pes) -> "StartupReport":
        n = len(pes)
        if n == 0:
            raise ConfigError("cannot build a StartupReport from 0 PEs")
        sums: Dict[str, float] = {p: 0.0 for p in STARTUP_PHASES}
        durations: List[float] = []
        for pe in pes:
            bd = pe.timer.breakdown()
            for phase, t in bd.items():
                sums[phase] = sums.get(phase, 0.0) + t
            durations.append(pe.init_duration or 0.0)
        return cls(
            phase_means={p: s / n for p, s in sums.items()},
            mean_us=sum(durations) / n,
            max_us=max(durations),
        )


@dataclass
class ResourceReport:
    """Per-process endpoint/connection/memory usage (Figure 9, Table I)."""

    mean_endpoints: float  #: QPs created per process (RC + UD).
    mean_rc_qps: float
    mean_connections: float
    mean_active_peers: float  #: distinct peers communicated with (Table I).
    mean_fabric_peers: float  #: distinct cross-node RC-connected peers.
    mean_qp_memory_bytes: float

    @classmethod
    def from_pes(cls, pes) -> "ResourceReport":
        n = len(pes)
        if n == 0:
            raise ConfigError("cannot build a ResourceReport from 0 PEs")
        usages = [pe.resource_usage() for pe in pes]

        def mean(key: str) -> float:
            return sum(u[key] for u in usages) / n

        return cls(
            mean_endpoints=mean("rc_qps") + mean("ud_qps"),
            mean_rc_qps=mean("rc_qps"),
            mean_connections=mean("connections"),
            mean_active_peers=mean("peers"),
            mean_fabric_peers=mean("active_connections"),
            mean_qp_memory_bytes=mean("qp_memory_bytes"),
        )


@dataclass
class JobResult:
    """Everything one simulated job run produced."""

    npes: int
    config_label: str
    #: Wall-clock of the whole job as the launcher reports it (us),
    #: including launch overhead — what "Hello World" measures.
    wall_time_us: float
    #: Time from launch until the last PE finished the *application*
    #: (excludes finalize/teardown).
    app_done_us: float
    startup: StartupReport
    resources: ResourceReport
    #: Per-PE values returned by the application's run().
    app_results: List[Any]
    counters: Dict[str, int]
    #: The run's telemetry record (span stats, the flat counters,
    #: histograms and, when sampled, the timeline; schema in
    #: :mod:`repro.obs`) when the job ran with ``observe=True``;
    #: ``None`` otherwise.
    telemetry: Optional[Dict[str, Any]] = None
    #: Sanitizer report (plan, violations, stats, leak report) when the
    #: job ran with ``check=...``; ``None`` otherwise.
    check: Optional[Dict[str, Any]] = None
    #: True when the metrics came from the analytical phase-model layer
    #: (``RuntimeConfig(macro=True)``) instead of the exact event
    #: simulation.
    macro: bool = False

    @property
    def wall_time_s(self) -> float:
        return self.wall_time_us / 1e6
