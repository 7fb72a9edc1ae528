"""Runtime fault evaluation: the *when and to whom* of a FaultPlan.

One :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a simulation run: it owns the per-rule firing budgets and draws all
randomness from **named sub-streams** of the run's master
:class:`~repro.sim.rng.RngRegistry` — one stream per (rule, src, dst)
pair — so

* the same (plan, seed) always produces byte-identical schedules, and
* faults on one pair never perturb the draws another pair sees.

The injector is passive: the substrates consult it at their hook
points (``Fabric.transmit``, ``HCA.try_alloc_rc_context``,
``Daemon.occupy``) and it answers "what happens to this operation".
Attach it with :meth:`install`, or let ``Job`` do so for
``RuntimeConfig(faults=plan)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .plan import FaultPlan, PMIFault, QPCreateFault, UDFault

if TYPE_CHECKING:  # pragma: no cover
    from ..ib.fabric import Fabric
    from ..ib.hca import HCA
    from ..pmi.server import PMIDomain
    from ..sim import Counters, RngRegistry, Simulator

__all__ = ["FaultInjector", "UDVerdict"]

#: Fate of one UD datagram: ``dropped``; extra delivery delay for the
#: original copy; delays of any injected duplicate copies.
UDVerdict = Tuple[bool, float, Tuple[float, ...]]

_NO_FAULT: UDVerdict = (False, 0.0, ())


class FaultInjector:
    """Evaluates one plan against one simulation run."""

    def __init__(
        self,
        plan: FaultPlan,
        sim: "Simulator",
        rng: "RngRegistry",
        counters: "Counters",
    ) -> None:
        self.plan = plan
        self.sim = sim
        self.rng = rng
        self.counters = counters
        #: Flight recorder (installed by ``Job`` if ``config.observe``);
        #: fault hits become instant spans on the "faults" track.
        self.obs = None
        #: Per-UD-rule firing counts (first_n budgets).
        self._ud_fired: List[int] = [0] * len(plan.ud)
        #: Per-QP-rule firing counts; per-rank rules key by rank.
        self._qp_fired: List[Dict[Optional[int], int]] = [
            {} for _ in plan.qp_create
        ]

    # ------------------------------------------------------------------
    def install(
        self,
        fabric: Optional["Fabric"] = None,
        hcas: Iterable["HCA"] = (),
        pmi_domain: Optional["PMIDomain"] = None,
    ) -> "FaultInjector":
        """Attach this injector to the given substrates."""
        if fabric is not None:
            fabric.faults = self
        for hca in hcas:
            hca.faults = self
        if pmi_domain is not None:
            pmi_domain.faults = self
        return self

    # ------------------------------------------------------------------
    # UD datagrams (consulted by Fabric.transmit)
    # ------------------------------------------------------------------
    def ud_fate(self, src_node: int, dst_node: int,
                kind: Optional[str] = None) -> UDVerdict:
        """Decide the fate of one UD datagram src_node -> dst_node.

        ``kind`` is the payload's class name (``None`` when the caller
        does not discriminate); rules with a ``kind`` only fire on a
        matching datagram.
        """
        plan_ud = self.plan.ud
        if not plan_ud:
            return _NO_FAULT
        now = self.sim.now
        extra = 0.0
        dups: List[float] = []
        for i, rule in enumerate(plan_ud):
            if rule.src is not None and rule.src != src_node:
                continue
            if rule.dst is not None and rule.dst != dst_node:
                continue
            if rule.kind is not None and rule.kind != kind:
                continue
            if rule.window is not None and not (
                rule.window[0] <= now < rule.window[1]
            ):
                continue
            if rule.first_n is not None and self._ud_fired[i] >= rule.first_n:
                continue
            stream = None
            if rule.prob < 1.0 or rule.jitter_us > 0.0:
                stream = self.rng.substream(
                    f"faults.ud.{i}", src_node, dst_node
                )
            if rule.prob < 1.0 and stream.random() >= rule.prob:
                continue
            self._ud_fired[i] += 1
            delay = rule.delay_us
            if rule.jitter_us > 0.0:
                delay += stream.random() * rule.jitter_us
            obs = self.obs
            if rule.action == "drop":
                self.counters.add("faults.ud_dropped")
                if obs is not None:
                    obs.spans.event("fault.ud_drop", "faults", rule=i,
                                    src_node=src_node, dst_node=dst_node)
                return (True, 0.0, ())
            if rule.action == "duplicate":
                self.counters.add("faults.ud_duplicated")
                if obs is not None:
                    obs.spans.event("fault.ud_duplicate", "faults", rule=i,
                                    src_node=src_node, dst_node=dst_node)
                dups.append(delay)
            else:  # "delay"
                self.counters.add("faults.ud_delayed")
                if obs is not None:
                    obs.spans.event("fault.ud_delay", "faults", rule=i,
                                    src_node=src_node, dst_node=dst_node,
                                    delay_us=delay)
                extra += delay
        if extra == 0.0 and not dups:
            return _NO_FAULT
        return (False, extra, tuple(dups))

    # ------------------------------------------------------------------
    # RC QP creation (consulted by HCA.try_alloc_rc_context)
    # ------------------------------------------------------------------
    def qp_create_fails(self, rank: int) -> bool:
        """True when this RC QP creation should fail ENOMEM-style."""
        now = self.sim.now
        for i, rule in enumerate(self.plan.qp_create):
            if rule.rank is not None and rule.rank != rank:
                continue
            if rule.window is not None and not (
                rule.window[0] <= now < rule.window[1]
            ):
                continue
            fired = self._qp_fired[i]
            key = rank if rule.per_rank else None
            if rule.first_n is not None and fired.get(key, 0) >= rule.first_n:
                continue
            if rule.prob < 1.0:
                stream = self.rng.substream(f"faults.qp.{i}", rank)
                if stream.random() >= rule.prob:
                    continue
            fired[key] = fired.get(key, 0) + 1
            self.counters.add("faults.qp_create_failed")
            if self.obs is not None:
                self.obs.spans.event("fault.qp_enomem", "faults", rule=i,
                                     rank=rank)
            return True
        return False

    # ------------------------------------------------------------------
    # PMI daemons (consulted by Daemon.occupy)
    # ------------------------------------------------------------------
    def pmi_adjust(
        self, node: int, arrival: float, cpu: float
    ) -> Tuple[float, float]:
        """Apply outage deferrals and slowdown factors to daemon work."""
        for rule in self.plan.pmi:
            if rule.node is not None and rule.node != node:
                continue
            start, end = rule.window
            if rule.outage and start <= arrival < end:
                # Daemon is restarting: the request is accepted once it
                # is back up (clients see it as a very slow server).
                arrival = end
                self.counters.add("faults.pmi_deferrals")
                if self.obs is not None:
                    self.obs.spans.event("fault.pmi_outage", "faults",
                                         node=node, deferred_to=end)
            if rule.slowdown > 1.0 and start <= arrival < end:
                cpu *= rule.slowdown
                self.counters.add("faults.pmi_slowdowns")
                if self.obs is not None:
                    self.obs.spans.event("fault.pmi_slowdown", "faults",
                                         node=node, factor=rule.slowdown)
        return arrival, cpu
