"""The switched fabric: moves packets between HCAs with realistic timing.

Timing model per packet:

* **egress serialisation** -- each HCA's uplink transmits at
  ``fabric_bandwidth`` bytes/us and packets queue behind each other
  (captures incast/fan-out contention without per-link simulation);
* **propagation** -- base latency plus a per-switch-hop increment from
  the cluster topology (same leaf vs. across the spine);
* **intra-node** -- transfers between PEs of one node skip the fabric
  and use the shared-memory latency/bandwidth instead.

UD packets additionally face loss and duplication (seeded RNG stream)
-- reliability is the *software's* job, exactly as on real hardware.
An installed :class:`~repro.faults.FaultInjector` layers scheduled
drops, duplicates and delay-based *reordering* on top of that baseline
noise (consulted first, so a plan can blackhole a pair outright).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..cluster import Cluster
from ..sim import Counters, RngRegistry, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector
    from .hca import HCA
    from .types import Packet

__all__ = ["Fabric"]


class Fabric:
    """Connects the per-node HCAs of one simulated job."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rng: RngRegistry,
        counters: Counters,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        cost = self.cost = cluster.cost
        self.counters = counters
        #: The counters' backing dict, bumped in place on every packet.
        self._counts = counters.counts
        #: Propagation latency (a zero-byte wire time) of the fat tree's
        #: two inter-node cases in ``Cluster.hops``: same leaf switch, or
        #: across the spine.
        self._leaf_radix = cost.leaf_radix
        self._same_leaf_us = cost.wire_time(0, cluster.SAME_LEAF_HOPS)
        self._cross_spine_us = cost.wire_time(0, cluster.CROSS_SPINE_HOPS)
        self._loss_rng = rng.stream("fabric.ud-loss")
        self._hcas: Dict[int, "HCA"] = {}  # lid -> HCA
        #: Optional fault injector (installed by ``Job`` if ``config.faults``).
        self.faults: Optional["FaultInjector"] = None
        #: Flight recorder (installed by ``Job`` if ``config.observe``).
        self.obs = None

    def attach(self, hca: "HCA") -> None:
        if hca.lid in self._hcas:
            raise ValueError(f"duplicate LID {hca.lid:#x}")
        self._hcas[hca.lid] = hca

    # ------------------------------------------------------------------
    def transmit(self, src: "HCA", packet: "Packet", unreliable: bool = False) -> None:
        """Inject ``packet`` into the fabric from ``src``.

        Delivery (or silent loss for UD) is scheduled on the event
        queue; the caller does not block.
        """
        dst = self._hcas.get(packet.dst_lid)
        if dst is None:
            raise KeyError(f"no HCA with LID {packet.dst_lid:#x}")
        counts = self._counts
        counts["fabric.packets"] += 1
        counts["fabric.bytes"] += packet.nbytes

        if unreliable:
            extra = 0.0
            obs = self.obs
            faults = self.faults
            if faults is not None:
                dropped, extra, dup_delays = faults.ud_fate(
                    src.node, dst.node, type(packet.payload).__name__
                )
                if dropped:
                    self.counters.add("fabric.ud_dropped")
                    if obs is not None:
                        self._obs_ud_event(obs, "fabric.ud_drop", src, dst,
                                           packet)
                    return
                for dup in dup_delays:
                    self.counters.add("fabric.ud_duplicated")
                    if obs is not None:
                        self._obs_ud_event(obs, "fabric.ud_duplicate", src,
                                           dst, packet)
                    self._deliver(src, dst, packet, extra_delay=extra + dup)
            if self._loss_rng.random() < self.cost.ud_loss_prob:
                self.counters.add("fabric.ud_dropped")
                if obs is not None:
                    self._obs_ud_event(obs, "fabric.ud_drop", src, dst, packet)
                return
            if self._loss_rng.random() < self.cost.ud_duplicate_prob:
                self.counters.add("fabric.ud_duplicated")
                if obs is not None:
                    self._obs_ud_event(obs, "fabric.ud_duplicate", src, dst,
                                       packet)
                self._deliver(
                    src, dst, packet,
                    extra_delay=extra + self.cost.ud_duplicate_delay_us,
                )
            self._deliver(src, dst, packet, extra_delay=extra)
            return

        self._deliver(src, dst, packet, extra_delay=0.0)

    def _obs_ud_event(self, obs, name: str, src: "HCA", dst: "HCA",
                      packet: "Packet") -> None:
        """Record a UD loss/duplication on the fabric track, parented to
        the in-flight handshake span when the payload carries one."""
        parent = getattr(packet.payload, "span_id", None)
        obs.spans.event(
            name, "fabric", parent=parent,
            src_node=src.node, dst_node=dst.node, nbytes=packet.nbytes,
        )

    def _deliver(
        self, src: "HCA", dst: "HCA", packet: "Packet", extra_delay: float
    ) -> None:
        sim = self.sim
        now = sim.now
        a, b = src.node, dst.node
        if a == b:
            arrival = now + self.cost.intra_node_time(packet.nbytes) + extra_delay
        else:
            ser = packet.nbytes / self.cost.fabric_bandwidth
            start = src.egress_free_at
            if start < now:
                start = now
            src.egress_free_at = start + ser
            radix = self._leaf_radix
            prop = (self._same_leaf_us if a // radix == b // radix
                    else self._cross_spine_us)
            arrival = start + ser + prop + extra_delay
        sim._schedule_at(arrival, dst.receive, packet)
