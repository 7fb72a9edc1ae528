"""The sweep pool: fan independent simulations out across cores.

Every experiment point — one ``(app, npes, config, testbed)`` tuple —
is a complete, self-seeded discrete-event simulation: it builds its own
:class:`~repro.sim.engine.Simulator` and draws every random number from
``RngRegistry(config.seed)``.  Two runs of the same :class:`JobSpec`
therefore produce identical :class:`~repro.core.metrics.JobResult`\\ s
*wherever they run*, which makes the paper sweeps (Figure 5's seven job
sizes x two designs, Figure 9's app x size grid, the ablations)
embarrassingly parallel.

Determinism contract
--------------------
* A :class:`JobSpec` fully determines its result (no wall-clock, no
  global state, no cross-job RNG).
* :func:`run_sweep` returns results **in spec order** — position ``i``
  of the output is the result of ``specs[i]`` regardless of which
  worker finished first.
* The serial fallback (``REPRO_PAR=0``, ``max_workers=1``, a single
  spec, or a single-core host) runs the same ``execute`` function
  in-process; parallel and serial output are byte-identical.

Failure contract
----------------
Any exception inside a job — in the worker or on the serial path — is
re-raised as :class:`SweepError` carrying the failing :class:`JobSpec`
(``.spec``), its position in the sweep (``.index``) and the original
exception (``.cause`` / ``__cause__``).
A worker process dying outright (segfault, OOM-kill) surfaces the
pool's :class:`BrokenProcessPool` the same way.

Worker model
------------
Workers are plain ``ProcessPoolExecutor`` processes.  On platforms with
``fork`` they inherit the parent's already-imported modules (warm
start); elsewhere an initializer pre-imports the heavy packages once
per worker so per-job import cost is zero either way.  Clusters and
config singletons are cached per process (see ``repro.cluster.presets``
and ``RuntimeConfig.current``), so a worker running many points of one
sweep builds each distinct ``(npes, ppn)`` topology once.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ConfigError, require_positive_int

__all__ = ["JobSpec", "SweepError", "execute", "resolve_workers",
           "resolve_workers_info", "run_sweep"]

_TESTBEDS = ("A", "B")


class SweepError(RuntimeError):
    """A sweep job failed; carries the spec, its position and the
    original exception.

    The message names the job by its position in the sweep, which is
    unique, plus the descriptive :attr:`JobSpec.key`, so a failure is
    never misattributed to a different point of the grid.
    """

    def __init__(self, index: int, spec: "JobSpec",
                 cause: BaseException) -> None:
        super().__init__(
            f"sweep job #{index} ({spec.key}) failed: {cause!r}")
        self.index = index
        self.spec = spec
        self.cause = cause


@dataclass(frozen=True)
class JobSpec:
    """One picklable experiment point.

    ``config`` carries every run option (seed, faults, observe, check,
    lifecycle, macro); it plus the cluster description (``testbed`` /
    ``ppn`` / ``cost_overrides``) and the ``app`` instance fully
    determine the simulation.  App instances must be picklable
    module-level classes holding plain parameters — every app in
    ``repro.apps`` and ``repro.bench.microbench`` qualifies.
    """

    app: Any
    npes: int
    config: Any  # RuntimeConfig (kept untyped to avoid an import cycle)
    testbed: str = "A"
    ppn: Optional[int] = None
    #: CostModel fields to evolve on top of the testbed's preset (e.g.
    #: ``{"qp_cache_entries": 8}`` for ablation D5).  Normalised to a
    #: sorted tuple (``None`` when empty) so specs stay hashable.
    cost_overrides: Optional[Tuple[Tuple[str, Any], ...]] = None

    def __post_init__(self) -> None:
        require_positive_int("JobSpec.npes", self.npes)
        if self.testbed not in _TESTBEDS:
            raise ConfigError(
                f"JobSpec.testbed must be one of {_TESTBEDS}, "
                f"got {self.testbed!r}"
            )
        if self.ppn is not None:
            require_positive_int("JobSpec.ppn", self.ppn)
        overrides = self.cost_overrides
        if isinstance(overrides, Mapping):
            overrides = tuple(sorted(overrides.items()))
        if not overrides:
            overrides = None
        object.__setattr__(self, "cost_overrides", overrides)
        if overrides:
            # Validate here, with the offending key in hand — an
            # unhashable value (e.g. a list) would otherwise explode
            # deep inside _custom_cluster's lru_cache with an opaque
            # TypeError long after construction.
            for entry in overrides:
                try:
                    key, value = entry
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"JobSpec.cost_overrides entries must be "
                        f"(name, value) pairs, got {entry!r}"
                    )
                if not isinstance(key, str):
                    raise ConfigError(
                        f"JobSpec.cost_overrides keys must be strings, "
                        f"got {key!r}"
                    )
                try:
                    hash(value)
                except TypeError:
                    raise ConfigError(
                        f"JobSpec.cost_overrides[{key!r}] must be a "
                        f"hashable value, got {value!r}"
                    )

    @property
    def key(self) -> str:
        """Descriptive display string: app, size, design point,
        testbed, a non-default seed and every armed option.  NOT
        collision-free — it elides option details — so anything
        attributing behaviour to a spec must also carry the spec
        itself or its position in the sweep.
        """
        config = self.config
        app_name = getattr(self.app, "name", type(self.app).__name__)
        parts = [app_name, f"n{self.npes}", config.label,
                 f"tb{self.testbed}"]
        if self.ppn is not None:
            parts.append(f"ppn{self.ppn}")
        if config.seed != type(config).seed:
            parts.append(f"seed{config.seed}")
        if config.observe:
            parts.append("obs" if config.observe is True else "obs-tl")
        if config.faults is not None and not config.faults.empty:
            parts.append("faults")
        if config.check is not None:
            parts.append("check")
        if self.cost_overrides:
            parts.append("co")
        if config.macro:
            parts.append("macro")
        return "-".join(parts)


@lru_cache(maxsize=32)
def _custom_cluster(testbed: str, npes: int, ppn: int,
                    overrides: Tuple[Tuple[str, Any], ...]):
    from ..cluster import CLUSTER_A_COST, CLUSTER_B_COST
    from ..cluster.topology import Cluster

    base = CLUSTER_A_COST if testbed == "A" else CLUSTER_B_COST
    return Cluster(npes=npes, ppn=ppn, cost=base.evolve(**dict(overrides)),
                   name=f"Cluster-{testbed}*")


def _cluster_for(spec: JobSpec):
    from ..cluster import cluster_a, cluster_b

    ppn = spec.ppn if spec.ppn is not None else (
        8 if spec.testbed == "A" else 16)
    if spec.cost_overrides:
        return _custom_cluster(spec.testbed, spec.npes, ppn,
                               spec.cost_overrides)
    factory = cluster_a if spec.testbed == "A" else cluster_b
    return factory(spec.npes, ppn=ppn)


def execute(spec: JobSpec) -> Any:
    """Run one spec to completion in this process; returns a JobResult.

    This is the single code path both the serial fallback and the pool
    workers run — parallel == serial by construction.  The dead job's
    machine is reclaimed by the next job's build (see the collector
    policy in :mod:`repro.core.job`).
    """
    from ..core import Job

    job = Job(spec.npes, config=spec.config, cluster=_cluster_for(spec))
    return job.run(spec.app)


# ----------------------------------------------------------------------
# worker-count policy
# ----------------------------------------------------------------------
def _detect_host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers_info(max_workers: Optional[int] = None,
                         njobs: Optional[int] = None,
                         host_cpus: Optional[int] = None) -> Dict[str, Any]:
    """Pick the worker count; returns the decision *and* why.

    Policy: ``REPRO_PAR=0`` (or ``1``) is a global kill switch forcing
    the serial path even when the caller asked for workers (single-core
    CI, debugging).  ``REPRO_PAR=N`` sets the default when the caller
    passed no explicit ``max_workers``.  With neither, auto-detect from
    CPU affinity.  The count is clamped to the number of jobs **and to
    the host CPUs actually available** — oversubscribing a process pool
    of CPU-bound simulations only adds fork and context-switch cost (a
    2-worker sweep on a 1-CPU host measured a 0.81x "speedup"), so a
    request beyond the affinity mask falls back rather than thrashing.
    On a single-core host every request degrades to the serial path.

    Returns a dict so callers can record the policy outcome in result
    metadata (``BENCH_sweep.json`` stores it verbatim):

    ``requested``
        The worker count asked for (explicit argument or ``REPRO_PAR``),
        or ``None`` for auto-detect.
    ``host_cpus``
        CPUs available to this process (affinity-aware).
    ``workers``
        The resolved count — what :func:`run_sweep` will use.
    ``mode``
        ``"parallel"`` or ``"serial"``.
    ``reason``
        Why the count differs from the request (``"REPRO_PAR kill
        switch"``, ``"clamped to host CPUs"``, ``"single-core host"``,
        ``"clamped to job count"``), or ``None``.

    ``host_cpus`` may be passed explicitly to make the policy testable
    independent of the machine running the tests.
    """
    if host_cpus is None:
        host_cpus = _detect_host_cpus()
    info: Dict[str, Any] = {
        "requested": max_workers,
        "host_cpus": host_cpus,
        "workers": 1,
        "mode": "serial",
        "reason": None,
    }
    env = os.environ.get("REPRO_PAR", "").strip()
    if env:
        try:
            env_workers = int(env)
        except ValueError:
            raise ConfigError(f"REPRO_PAR must be an integer, got {env!r}")
        if env_workers <= 1:
            info["reason"] = "REPRO_PAR kill switch"
            return info
        if max_workers is None:
            max_workers = env_workers
            info["requested"] = env_workers
    workers = max_workers if max_workers is not None else host_cpus
    if workers > host_cpus:
        workers = host_cpus
        info["reason"] = ("single-core host" if host_cpus <= 1
                          else "clamped to host CPUs")
    if njobs is not None and workers > njobs:
        workers = njobs
        info["reason"] = "clamped to job count"
    workers = max(1, workers)
    info["workers"] = workers
    info["mode"] = "parallel" if workers > 1 else "serial"
    if workers == 1 and info["reason"] is None and host_cpus <= 1:
        info["reason"] = "single-core host"
    return info


def resolve_workers(max_workers: Optional[int] = None,
                    njobs: Optional[int] = None,
                    host_cpus: Optional[int] = None) -> int:
    """The worker count alone (see :func:`resolve_workers_info`)."""
    return resolve_workers_info(max_workers, njobs, host_cpus)["workers"]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def _warm_worker() -> None:
    """Per-worker initializer: pre-import the heavy packages once so no
    job pays import cost (a no-op under ``fork``, where the worker
    inherits the parent's modules)."""
    import repro.apps  # noqa: F401
    import repro.bench.microbench  # noqa: F401
    import repro.core  # noqa: F401


def _run_serial(specs: List[JobSpec],
                progress: Optional[Callable] = None) -> List[Any]:
    results = []
    for i, spec in enumerate(specs):
        try:
            results.append(execute(spec))
        except Exception as exc:
            raise SweepError(i, spec, exc) from exc
        if progress is not None:
            progress(spec, i + 1, len(specs))
    return results


def _run_parallel(specs: List[JobSpec], workers: int,
                  progress: Optional[Callable] = None) -> List[Any]:
    import multiprocessing

    mp_context = None
    if "fork" in multiprocessing.get_all_start_methods():
        # Warm-start workers: they inherit every module the parent has
        # already imported instead of re-importing under spawn.
        mp_context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_warm_worker,
    )
    try:
        # Results are keyed by submission position — completion order
        # never matters, so the merge is deterministic by construction.
        futures = [pool.submit(execute, spec) for spec in specs]
        results = []
        for i, (spec, future) in enumerate(zip(specs, futures)):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                # The worker died without raising (crash/OOM-kill);
                # attach the first spec whose result we could not get.
                raise SweepError(i, spec, exc) from exc
            except Exception as exc:
                for pending in futures[i + 1:]:
                    pending.cancel()
                raise SweepError(i, spec, exc) from exc
            if progress is not None:
                progress(spec, i + 1, len(specs))
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(specs: Iterable[JobSpec],
              max_workers: Optional[int] = None,
              progress: Optional[Callable] = None) -> List[Any]:
    """Run every spec; returns JobResults in spec order.

    ``progress``, when given, is called as ``progress(spec, done,
    total)`` after each job completes (in spec order).
    """
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            raise ConfigError(f"run_sweep expects JobSpecs, got {spec!r}")
    if not specs:
        return []
    workers = resolve_workers(max_workers, njobs=len(specs))
    if workers <= 1:
        return _run_serial(specs, progress)
    return _run_parallel(specs, workers, progress)
