"""Connection-lifecycle policy: when established connections retire.

The paper's Fig. 9 / QP-context-cache story is about what happens when
connection count exceeds HCA cache capacity; establishing on demand is
only half the answer at production scale — long-running services with
rotating hot partners also need connections to *go away* once idle, or
steady-state QP footprint grows without bound.

:class:`LifecyclePolicy` is pure data, mirroring
:class:`repro.faults.FaultPlan` and :class:`repro.check.CheckPlan`: a
frozen, hashable description of the eviction strategy that can be
round-tripped through a config dict and attached to a
:class:`~repro.core.config.RuntimeConfig`.  The runtime evaluation (the
reaper process, the Disconnect/DisconnectAck drain handshake) lives in
:class:`repro.gasnet.ondemand_conduit.OnDemandConduit`.

Eviction defaults **off** (``RuntimeConfig.lifecycle is None``): every
existing experiment and the 128-PE golden trace stay byte-identical
unless a policy is explicitly installed.

Victim selection is a pure function (:func:`select_victims`) so the
policies are unit-testable without a simulator and provably
deterministic: candidates are ordered by ``(last_used_us, peer)``, never
by dict/set iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError, require_positive_int, require_positive_real

__all__ = ["LifecyclePolicy", "select_victims"]

_POLICIES = ("lru", "credit")


@dataclass(frozen=True)
class LifecyclePolicy:
    """Idle-connection reaping strategy for the on-demand conduit.

    Example::

        policy = LifecyclePolicy(max_connections=8,
                                 idle_timeout_us=20_000.0)
        config = RuntimeConfig.proposed(lifecycle=policy)

    * ``"lru"``    — a connection idle for ``idle_timeout_us`` is
      evicted; additionally, whenever the connection count exceeds
      ``max_connections`` the least-recently-used connections are
      evicted down to the cap regardless of age.
    * ``"credit"`` — each connection holds ``credits`` tokens, refilled
      on every use; each reaper scan debits one token from connections
      untouched since the previous scan and evicts those at zero (a
      coarse, constant-space CLOCK approximation).  The
      ``max_connections`` cap applies identically.
    """

    #: Victim-selection strategy.
    policy: str = "lru"
    #: Evict connections unused for this long (simulated us).
    idle_timeout_us: float = 20_000.0
    #: Reaper scan period (simulated us).
    scan_interval_us: float = 5_000.0
    #: Soft cap on per-PE connection count; ``None`` = idle-only.
    max_connections: Optional[int] = None
    #: Credit policy: scans-without-use before eviction.
    credits: int = 4
    #: Poll period while quiescing outstanding WRs during a drain.
    drain_poll_us: float = 5.0

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ConfigError(
                f"LifecyclePolicy.policy must be one of {_POLICIES}, "
                f"got {self.policy!r}"
            )
        for name in ("idle_timeout_us", "scan_interval_us", "drain_poll_us"):
            require_positive_real(f"LifecyclePolicy.{name}",
                                  getattr(self, name))
        if self.max_connections is not None:
            require_positive_int("LifecyclePolicy.max_connections",
                                 self.max_connections)
        require_positive_int("LifecyclePolicy.credits", self.credits)

    # -- config round-trip ---------------------------------------------
    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "LifecyclePolicy":
        """Build a policy from a plain config mapping."""
        if not isinstance(spec, dict):
            raise ConfigError(
                f"LifecyclePolicy spec must be a dict, got {spec!r}"
            )
        valid = {f.name for f in fields(cls)}
        unknown = set(spec) - valid
        if unknown:
            raise ConfigError(
                f"unknown LifecyclePolicy keys: {sorted(unknown)}"
            )
        return cls(**spec)

    def as_dict(self) -> Dict[str, Any]:
        """Inverse of :meth:`from_dict` (plain types only)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def select_victims(
    now: float,
    candidates: Iterable[Tuple[int, float, int]],
    policy: LifecyclePolicy,
) -> List[int]:
    """Pick peers to evict this scan, oldest-first, deterministically.

    ``candidates`` yields ``(peer, last_used_us, credits)`` for every
    *evictable* connection (the caller excludes peers already draining).
    Returns peer ranks in eviction order.  Selection depends only on the
    candidate tuples, never on their iteration order.
    """
    ranked = sorted(candidates, key=lambda c: (c[1], c[0]))
    victims: List[int] = []
    if policy.policy == "credit":
        for peer, _last_used, credits in ranked:
            if credits <= 0:
                victims.append(peer)
    else:  # "lru"
        for peer, last_used, _credits in ranked:
            if now - last_used >= policy.idle_timeout_us:
                victims.append(peer)
    if policy.max_connections is not None:
        surviving = len(ranked) - len(victims)
        overflow = surviving - policy.max_connections
        if overflow > 0:
            chosen = set(victims)
            for peer, _last_used, _credits in ranked:
                if overflow <= 0:
                    break
                if peer not in chosen:
                    victims.append(peer)
                    chosen.add(peer)
                    overflow -= 1
    return victims
