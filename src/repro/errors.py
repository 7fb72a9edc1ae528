"""Exception hierarchy shared across the repro stack."""

from __future__ import annotations

import math
import numbers
from typing import Any

__all__ = [
    "ReproError",
    "VerbsError",
    "QPStateError",
    "ResourceExhaustedError",
    "MemoryRegistrationError",
    "RemoteAccessError",
    "PMIError",
    "ConduitError",
    "ShmemError",
    "MPIError",
    "ConfigError",
    "InvariantViolation",
    "require_positive_real",
    "require_positive_int",
]


class ReproError(RuntimeError):
    """Base class for all library errors."""


class VerbsError(ReproError):
    """Misuse of the simulated verbs interface."""


class QPStateError(VerbsError):
    """Operation attempted on a QP in the wrong state."""


class ResourceExhaustedError(VerbsError):
    """Transient ENOMEM-style verbs failure (e.g. QP context memory);
    callers are expected to back off and retry."""


class MemoryRegistrationError(VerbsError):
    """Invalid memory registration or rkey/lkey lookup."""


class RemoteAccessError(VerbsError):
    """RDMA/atomic access outside a registered region or with a bad rkey."""


class PMIError(ReproError):
    """PMI client/server protocol error."""


class ConduitError(ReproError):
    """GASNet-like conduit error."""


class ShmemError(ReproError):
    """OpenSHMEM semantic error (bad symmetric address, use before init...)."""


class MPIError(ReproError):
    """MPI layer error."""


class ConfigError(ReproError):
    """Invalid runtime configuration."""


def require_positive_real(name: str, value: Any) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite real > 0."""
    if not (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and math.isfinite(value) and value > 0
    ):
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def require_positive_int(name: str, value: Any) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer >= 1
    (bools refused)."""
    if not (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
        and value >= 1
    ):
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


class InvariantViolation(ReproError):
    """A protocol/lifetime invariant was broken (``repro.check``).

    Raised (or collected, under a non-strict plan) by the opt-in
    sanitizer.  Carries enough structure to locate the violation in a
    simulated run: the layer, the invariant name, the acting rank, the
    simulated time, and — when the flight recorder is on — the id of
    the active span.
    """

    def __init__(
        self,
        layer: str,
        invariant: str,
        detail: str,
        rank=None,
        time_us=None,
        span_id=None,
    ) -> None:
        where = f"pe{rank}" if rank is not None else "?"
        when = f"{time_us:.3f}us" if time_us is not None else "?"
        super().__init__(
            f"[{layer}:{invariant}] {where} @ {when}: {detail}"
        )
        self.layer = layer
        self.invariant = invariant
        self.detail = detail
        self.rank = rank
        self.time_us = time_us
        self.span_id = span_id

    def as_dict(self):
        return {
            "layer": self.layer,
            "invariant": self.invariant,
            "detail": self.detail,
            "rank": self.rank,
            "time_us": self.time_us,
            "span_id": self.span_id,
        }
