"""Canonical JobSpec identity: a content hash of the spec's fields.

A :class:`~repro.exec.JobSpec` fully determines its
:class:`~repro.core.metrics.JobResult` (the determinism contract in
``repro.exec.pool``), so a digest of the spec's content names a run:
distinct specs hash differently, and :class:`~repro.exec.SweepError`
messages use it so a failure is never misattributed to another point
of the grid.

The hash covers the spec's own fields — ``app`` (type and parameters),
``npes``, ``config``, ``testbed``, ``ppn`` and ``cost_overrides`` —
reduced to plain data as written.  It resolves no effective values:
``RuntimeConfig`` is the one carrier of run options and coerces them
when it is built, so there is nothing left to reconcile.

Values must be plain data (bool/int/float/str/None, mappings,
sequences, dataclasses) — anything else raises a one-line
:class:`ConfigError` rather than hashing an unstable ``repr``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from typing import Any, Dict, Mapping

from ..errors import ConfigError

__all__ = [
    "canonical_spec",
    "canonical_json",
    "spec_hash",
    "spec_identity",
]

#: Hex digits of the full hash appended to :func:`spec_identity`
#: strings (48 bits — collision-free at any realistic sweep size).
_IDENTITY_DIGEST_CHARS = 12


def _plain(value: Any, where: str) -> Any:
    """Recursively reduce ``value`` to JSON-canonical plain data."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for k in value:
            if not isinstance(k, str):
                raise ConfigError(
                    f"JobSpec content hash: {where} has non-string key {k!r}"
                )
            out[k] = _plain(value[k], f"{where}.{k}")
        return out
    if isinstance(value, (list, tuple)):
        return [_plain(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # App params may hold frozen config dataclasses (e.g. a NAS
        # problem class); fold them to their fields, tagged with the
        # type so same-shaped configs of different types stay distinct.
        out = {"__type__": type(value).__qualname__}
        for f in dataclasses.fields(value):
            out[f.name] = _plain(getattr(value, f.name),
                                 f"{where}.{f.name}")
        return out
    raise ConfigError(
        f"JobSpec content hash: {where} holds unhashable value {value!r} "
        f"of type {type(value).__name__}; specs must carry plain data"
    )


def canonical_spec(spec: Any) -> Dict[str, Any]:
    """The canonical plain-data form of a spec (what gets hashed)."""
    app = spec.app
    return {
        "app": {
            "type": f"{type(app).__module__}.{type(app).__qualname__}",
            "params": _plain(vars(app), "app"),
        },
        "npes": spec.npes,
        "config": _plain(spec.config, "config"),
        "testbed": spec.testbed,
        "ppn": spec.ppn,
        "cost_overrides": _plain(spec.cost_overrides, "cost_overrides"),
    }


def canonical_json(spec: Any) -> str:
    """The canonical form as compact, key-sorted JSON (the hash input)."""
    try:
        return json.dumps(
            canonical_spec(spec), sort_keys=True,
            separators=(",", ":"), allow_nan=False,
        )
    except ValueError as exc:  # NaN/Inf have no canonical JSON form
        raise ConfigError(
            f"JobSpec content hash: non-finite float in spec: {exc}"
        ) from exc


def spec_hash(spec: Any) -> str:
    """SHA-256 hex digest of the canonical spec."""
    return hashlib.sha256(canonical_json(spec).encode("ascii")).hexdigest()


def spec_identity(spec: Any) -> str:
    """Collision-free human-readable identity: the descriptive
    :attr:`JobSpec.key` plus the first 12 hex chars of
    :func:`spec_hash`, so error messages always distinguish specs that
    differ *anywhere*."""
    return f"{spec.key}#{spec_hash(spec)[:_IDENTITY_DIGEST_CHARS]}"
