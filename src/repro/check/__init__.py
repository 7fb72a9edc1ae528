"""Opt-in invariant auditing for simulated runs (``repro.check``).

Wired like :mod:`repro.obs` and :mod:`repro.faults`: set a
:class:`CheckPlan` as ``RuntimeConfig.check`` and the job arms a
:class:`Sanitizer` on every substrate.  Off path is one ``is None``
predicate per hook site; sanitized runs are byte-identical in
simulated time.

Also home to the static determinism lint::

    python -m repro.check.lint src/repro
"""

from ..errors import InvariantViolation
from .plan import CheckPlan
from .sanitizer import Sanitizer

__all__ = ["CheckPlan", "Sanitizer", "InvariantViolation"]
