"""Application interface for the job launcher."""

from __future__ import annotations

from typing import Any, Dict, Generator

__all__ = ["Application"]


class Application:
    """Base class for simulated applications.

    Subclasses implement :meth:`run` as a generator that programs
    against the :class:`~repro.shmem.runtime.ShmemPE` API (and
    ``pe.mpi`` when :attr:`uses_mpi` is set).  The return value is
    collected per PE into :attr:`~repro.core.metrics.JobResult.app_results`.
    """

    #: Report label.
    name = "app"
    #: When True the Job attaches an MPI communicator as ``pe.mpi``.
    uses_mpi = False

    def run(self, pe) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    # Apps are plain parameter holders; value equality lets a pickled
    # copy (sweep-pool JobSpecs cross a process boundary) compare equal
    # to the original.  Attributes named ``_*`` are caches an app fills
    # while it runs, so they are not part of its value.
    def _params(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k[0] != "_"}

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self), repr(sorted(self._params().items()))))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"
