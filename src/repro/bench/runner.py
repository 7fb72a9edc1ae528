"""Experiment plumbing shared by all figure/table harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..core import JobResult, RuntimeConfig
from ..exec import JobSpec, execute, run_sweep

__all__ = [
    "ExperimentResult",
    "job_spec",
    "run_job",
    "run_jobs",
    "JobSpec",
    "CURRENT",
    "PROPOSED",
]

#: The paper's two design points.
CURRENT = RuntimeConfig.current()
PROPOSED = RuntimeConfig.proposed()


@dataclass
class ExperimentResult:
    """Uniform container every experiment returns."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[List[Any]]
    note: str = ""
    #: Free-form extras (raw JobResults, fits, ...) for tests.
    extras: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        from .tables import render_table

        return render_table(
            f"{self.experiment}: {self.title}", self.columns, self.rows,
            note=self.note or None,
        )

    def csv(self) -> str:
        from .tables import rows_to_csv

        return rows_to_csv(self.columns, self.rows)


def job_spec(
    app,
    npes: int,
    config: RuntimeConfig,
    testbed: str = "A",
    ppn: Optional[int] = None,
    **config_overrides,
) -> JobSpec:
    """Describe one job on the named paper testbed (A or B).

    ``config_overrides`` evolve ``config`` — every run option lives
    there (e.g. ``observe={"timeline": True}``, ``check=True``,
    ``macro=True`` for the analytical phase-model layer)."""
    if config_overrides:
        config = config.evolve(**config_overrides)
    return JobSpec(app=app, npes=npes, config=config, testbed=testbed,
                   ppn=ppn)


def run_job(
    app,
    npes: int,
    config: RuntimeConfig,
    testbed: str = "A",
    ppn: Optional[int] = None,
    **config_overrides,
) -> JobResult:
    """Run one job on the named paper testbed (A or B), in-process.

    With ``observe=True`` the result carries a ``telemetry`` section
    experiments can assert against; with ``check`` set it carries a
    ``check`` report (see :func:`job_spec` for the overrides).
    """
    return execute(job_spec(app, npes, config, testbed=testbed, ppn=ppn,
                            **config_overrides))


def run_jobs(specs: Iterable[JobSpec],
             max_workers: Optional[int] = None) -> List[JobResult]:
    """Run an experiment's job grid through the sweep pool.

    Results come back in spec order (see ``repro.exec`` for the
    determinism and failure contracts); ``REPRO_PAR`` controls the
    worker count, with ``REPRO_PAR=0`` forcing the in-process serial
    path.
    """
    return run_sweep(specs, max_workers=max_workers)
