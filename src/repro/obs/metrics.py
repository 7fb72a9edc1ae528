"""Log2-bucket latency histograms.

:class:`Histogram` records full distributions of handshake RTT,
reconnect latency, PMI fence duration and ``start_pes`` time instead
of means only.  Its log2 buckets are fixed and shared by *every*
histogram, so two histograms are always mergeable and golden snapshots
never depend on per-instance configuration.  Bucket semantics are
Prometheus-style ``le``: bucket ``i`` counts values ``v`` with
``bounds[i-1] < v <= bounds[i]``; an exact power of two lands in the
bucket whose bound it equals (pinned by unit tests — the boundary test
uses :func:`math.frexp`, which is exact for floats, not ``log2``
rounding).

:meth:`repro.obs.Observability.histogram` keeps one histogram per name;
the flat :class:`repro.sim.trace.Counters` stay the one counter surface.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["BUCKET_BOUNDS", "bucket_index", "Histogram"]

#: Smallest / largest log2 bucket exponent.  2**-4 = 0.0625 us resolves
#: sub-cost-model noise; 2**24 us ≈ 16.8 simulated seconds tops every
#: latency the repro can produce.  Fixed for ALL histograms (see module
#: docstring).
_LOG2_MIN_EXP = -4
_LOG2_MAX_EXP = 24

#: Inclusive upper bounds of the finite buckets; one overflow bucket
#: (+Inf) follows implicitly.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(_LOG2_MIN_EXP, _LOG2_MAX_EXP + 1)
)

#: Finite buckets + overflow.
NUM_BUCKETS = len(BUCKET_BOUNDS) + 1


def bucket_index(value: float) -> int:
    """Index of the bucket that counts ``value`` (le semantics).

    Exact at the boundaries: ``frexp`` decomposes the float precisely,
    so ``2.0**k`` always lands in the bucket whose bound is ``2.0**k``,
    never one off due to ``log2`` rounding.
    """
    if value <= BUCKET_BOUNDS[0]:
        return 0
    mantissa, exp = math.frexp(value)  # value = mantissa * 2**exp
    if mantissa == 0.5:  # exact power of two: v == 2**(exp-1)
        exp -= 1
    idx = exp - _LOG2_MIN_EXP
    return idx if idx < len(BUCKET_BOUNDS) else len(BUCKET_BOUNDS)


class Histogram:
    """Latency distribution over the shared log2 buckets."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * NUM_BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        Conservative (bucket-resolution) estimate; the overflow bucket
        reports the maximum observed value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[i]
                return self.max if self.max is not None else BUCKET_BOUNDS[-1]
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly summary; only non-empty buckets are listed."""
        buckets = [
            {"le": BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else "+Inf",
             "count": c}
            for i, c in enumerate(self.counts) if c
        ]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }
