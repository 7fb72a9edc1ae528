"""Deterministic parallel sweep execution (see DESIGN.md).

Experiment harnesses describe their job grids as picklable
:class:`JobSpec` descriptors and hand them to :func:`run_sweep`, which
fans the independent simulations out across worker processes (or runs
them serially in-process — same results, byte for byte).
"""

from .pool import (
    JobSpec,
    SweepError,
    execute,
    resolve_workers,
    resolve_workers_info,
    run_sweep,
)

__all__ = [
    "JobSpec",
    "SweepError",
    "execute",
    "resolve_workers",
    "resolve_workers_info",
    "run_sweep",
]
