"""Runtime configuration: the paper's design axes as data.

The paper's "Current Design" and "Proposed Design" are the two preset
corners; ablations mix the axes independently (e.g. static connections
with non-blocking PMI, Section IV-D's observation that the overlap
cannot help the static scheme).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Any, Optional

from ..check import CheckPlan
from ..errors import ConfigError, require_positive_real
from ..faults import FaultPlan
from ..gasnet import LifecyclePolicy
from ..obs.timeline import canonical_observe

__all__ = ["RuntimeConfig"]

_CONNECTION_MODES = ("static", "ondemand")
_PMI_MODES = ("blocking", "nonblocking")
_BARRIER_MODES = ("global", "intranode")


@dataclass(frozen=True)
class RuntimeConfig:
    """One point in the design space evaluated by the paper."""

    #: ``static`` (full wire-up at init) or ``ondemand`` (Fig. 4).
    connection_mode: str = "ondemand"
    #: ``blocking`` Put/Fence/Get or ``nonblocking`` iallgather.
    pmi_mode: str = "nonblocking"
    #: Barriers inside start_pes: ``global`` or ``intranode``.
    barrier_mode: str = "intranode"
    #: On-demand only: piggyback segment keys on the connect handshake
    #: (Section IV-C).  When False, the runtime sends a separate
    #: request/reply exchange after connecting — the baseline
    #: inefficiency #2 the paper eliminates (ablation D1).
    piggyback_segments: bool = True
    #: Symmetric heap size (MB) registered at init — drives the
    #: memory-registration cost, as on the real systems.
    heap_mb: float = 256.0
    #: Real backing buffer per PE (KB) actually materialised for data.
    #: Raise for data-heavy apps; see SymmetricHeap.
    heap_backing_kb: int = 64
    #: RNG master seed for the whole job (a non-negative ``int``).
    seed: int = 12345
    #: Enable the flight recorder (:mod:`repro.obs`): span tracing +
    #: latency histograms on every substrate.  Off by default; when off
    #: the instrumentation costs one predicate check per site.
    #: Accepts ``bool``, ``{"timeline": ...}`` (adds the time-series
    #: sampler), or a :class:`repro.obs.TimelineConfig`; normalised to
    #: ``False`` / ``True`` / ``TimelineConfig`` so the dataclass stays
    #: hashable.
    observe: Any = False
    #: Deterministic fault plan (:class:`repro.faults.FaultPlan` or the
    #: equivalent config dict); ``None`` disables injection.
    faults: Optional[FaultPlan] = None
    #: Invariant sanitizer plan (:class:`repro.check.CheckPlan`, the
    #: equivalent config dict, or ``True`` for the default plan);
    #: ``None`` disables auditing.
    check: Optional[CheckPlan] = None
    #: Connection-lifecycle policy (:class:`repro.gasnet.LifecyclePolicy`
    #: or the equivalent config dict): idle-connection reaping and
    #: transparent reconnect on the on-demand conduit.  ``None`` (the
    #: default) keeps eviction off — connections live until finalize,
    #: exactly as in the paper's evaluation.  Ignored by the static
    #: conduit, which owns no per-peer lifecycle.
    lifecycle: Optional[LifecyclePolicy] = None
    #: Analytical phase models (:mod:`repro.sim.macro`): reproduce the
    #: startup metrics through closed-form cost curves instead of the
    #: per-PE event swarm.  Off by default — the exact engine is the
    #: reference; macro mode exists for very large scale points
    #: (Figure 5 beyond ~10^5 PEs).  Models the on-demand corner only
    #: and is incompatible with faults, observe, check and a lifecycle
    #: policy (and with ``Job(trace=True)``).
    macro: bool = False

    def __post_init__(self) -> None:
        if self.connection_mode not in _CONNECTION_MODES:
            raise ConfigError(f"connection_mode must be one of {_CONNECTION_MODES}")
        if self.pmi_mode not in _PMI_MODES:
            raise ConfigError(f"pmi_mode must be one of {_PMI_MODES}")
        if self.barrier_mode not in _BARRIER_MODES:
            raise ConfigError(f"barrier_mode must be one of {_BARRIER_MODES}")
        if not isinstance(self.piggyback_segments, bool):
            raise ConfigError(
                f"piggyback_segments must be a bool, "
                f"got {self.piggyback_segments!r}"
            )
        require_positive_real("heap_mb", self.heap_mb)
        require_positive_real("heap_backing_kb", self.heap_backing_kb)
        if (
            not isinstance(self.seed, numbers.Integral)
            or isinstance(self.seed, bool) or self.seed < 0
        ):
            raise ConfigError(
                f"seed must be a non-negative int, got {self.seed!r}"
            )
        object.__setattr__(self, "observe", canonical_observe(self.observe))
        if isinstance(self.faults, dict):
            object.__setattr__(
                self, "faults", FaultPlan.from_dict(self.faults)
            )
        elif self.faults is not None and not isinstance(
            self.faults, FaultPlan
        ):
            raise ConfigError(
                f"faults must be a FaultPlan or config dict, "
                f"got {self.faults!r}"
            )
        if self.check is True:
            object.__setattr__(self, "check", CheckPlan())
        elif self.check is False:
            object.__setattr__(self, "check", None)
        elif isinstance(self.check, dict):
            object.__setattr__(self, "check", CheckPlan.from_dict(self.check))
        elif self.check is not None and not isinstance(self.check, CheckPlan):
            raise ConfigError(
                f"check must be a CheckPlan, config dict, or bool, "
                f"got {self.check!r}"
            )
        if isinstance(self.lifecycle, dict):
            object.__setattr__(
                self, "lifecycle", LifecyclePolicy.from_dict(self.lifecycle)
            )
        elif self.lifecycle is not None and not isinstance(
            self.lifecycle, LifecyclePolicy
        ):
            raise ConfigError(
                f"lifecycle must be a LifecyclePolicy or config dict, "
                f"got {self.lifecycle!r}"
            )
        if self.macro:
            self._check_macro()

    def _check_macro(self) -> None:
        """The macro layer reproduces metrics, not events: anything that
        hooks the event stream has nothing to hook, and only the paper's
        on-demand corner has phase models."""
        if self.faults is not None and not self.faults.empty:
            raise ConfigError("macro mode cannot inject faults")
        if self.observe:
            raise ConfigError("macro mode has no flight recorder")
        if self.check is not None:
            raise ConfigError("macro mode cannot run the sanitizer")
        if self.lifecycle is not None:
            raise ConfigError("macro mode does not model connection lifecycle")
        axes = (self.connection_mode, self.pmi_mode, self.barrier_mode)
        if axes != ("ondemand", "nonblocking", "intranode"):
            raise ConfigError(
                "macro mode models one of the paper's two design corners "
                "only (ondemand+nonblocking+intranode), "
                f"not {self.label!r}; use the exact engine"
            )
        if not self.piggyback_segments:
            raise ConfigError(
                "macro mode does not model the D1 ablation "
                "(piggyback_segments=False); use the exact engine"
            )

    # -- the paper's two corners ------------------------------------------
    # The unmodified corners are process-wide singletons: RuntimeConfig
    # is frozen, and sweep workers request the same design point for
    # every grid cell (validation in __post_init__ is not free).
    _current_singleton = None
    _proposed_singleton = None

    @classmethod
    def current(cls, **overrides) -> "RuntimeConfig":
        """The baseline: static connections, blocking PMI, global barriers."""
        base = cls._current_singleton
        if base is None or base.__class__ is not cls:
            base = cls(
                connection_mode="static", pmi_mode="blocking",
                barrier_mode="global",
            )
            cls._current_singleton = base
        return base.evolve(**overrides) if overrides else base

    @classmethod
    def proposed(cls, **overrides) -> "RuntimeConfig":
        """The paper's design: on-demand + non-blocking PMI + intra-node."""
        base = cls._proposed_singleton
        if base is None or base.__class__ is not cls:
            base = cls(
                connection_mode="ondemand", pmi_mode="nonblocking",
                barrier_mode="intranode",
            )
            cls._proposed_singleton = base
        return base.evolve(**overrides) if overrides else base

    # Friendly aliases.
    static = current
    on_demand = proposed

    def evolve(self, **overrides) -> "RuntimeConfig":
        return replace(self, **overrides)

    @property
    def label(self) -> str:
        """Short label for tables ("static+blocking+global")."""
        return (
            f"{self.connection_mode}+{self.pmi_mode}+{self.barrier_mode}"
        )
