"""Declarative check plans: the *what* of invariant auditing.

A :class:`CheckPlan` is pure data — a frozen, hashable description of
which per-layer auditors the sanitizer should arm and how violations
surface.  It mirrors :class:`repro.faults.FaultPlan`: the same plan can
be printed, round-tripped through a config dict, and attached to a
:class:`~repro.core.config.RuntimeConfig` as ``check``.  The runtime
evaluation (per-layer hook state, the final audit) lives in
:class:`repro.check.sanitizer.Sanitizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict

from ..errors import ConfigError

__all__ = ["CheckPlan"]

#: The auditable layers, in report order.
_LAYERS = ("ib", "memory", "pmi", "conduit", "lifecycle")


@dataclass(frozen=True)
class CheckPlan:
    """A named bundle of auditor toggles.

    Example::

        plan = CheckPlan(name="teardown-audit", pmi=False)
        config = RuntimeConfig.proposed(check=plan)
        result = Job(npes=16, config=config).run(app)
        result.check["violations"]   # [] on a clean run

    ``strict=True`` (the default) raises a structured
    :class:`~repro.errors.InvariantViolation` at the violation site;
    ``strict=False`` collects violations into the job's check report
    instead, letting a damaged run play out to completion.
    """

    name: str = "check"
    #: QP state-machine legality, WR/CQE conservation, QP-context
    #: cache accounting.
    ib: bool = True
    #: MemoryRegion lifetime, symmetric-heap symmetry, leak report.
    memory: bool = True
    #: KVS epoch monotonicity, fence pairing, memo-cache coherence.
    pmi: bool = True
    #: Handshake conformance and teardown legality.
    conduit: bool = True
    #: Connection-lifecycle legality: drained eviction, reconnect
    #: hygiene (no evict-with-outstanding-WRs, no reconnect storms).
    lifecycle: bool = True
    #: Raise at the violation site (True) or collect into the report.
    strict: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"CheckPlan.name must be a non-empty string, "
                              f"got {self.name!r}")
        for f in fields(self):
            if f.name == "name":
                continue
            value = getattr(self, f.name)
            if not isinstance(value, bool):
                raise ConfigError(
                    f"CheckPlan.{f.name} must be a bool, got {value!r}"
                )

    @property
    def empty(self) -> bool:
        """True when no auditor is armed (the plan does nothing)."""
        return not any(getattr(self, layer) for layer in _LAYERS)

    # -- config round-trip ---------------------------------------------
    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "CheckPlan":
        """Build a plan from a plain config mapping."""
        if not isinstance(spec, dict):
            raise ConfigError(f"CheckPlan spec must be a dict, got {spec!r}")
        valid = {f.name for f in fields(cls)}
        unknown = set(spec) - valid
        if unknown:
            raise ConfigError(f"unknown CheckPlan keys: {sorted(unknown)}")
        return cls(**spec)

    def as_dict(self) -> Dict[str, Any]:
        """Inverse of :meth:`from_dict` (plain types only)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
