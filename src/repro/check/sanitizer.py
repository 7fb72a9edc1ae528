"""The runtime sanitizer: per-layer invariant auditors.

The :class:`Sanitizer` is *passive*, exactly like the fault injector:
substrates hold a ``check`` attribute that is ``None`` unless a job was
built with a :class:`~repro.check.plan.CheckPlan`, and every hook site
costs one ``if check is not None`` predicate when auditing is off.  All
auditing is pure host-side bookkeeping — no simulated time is charged,
no RNG stream is drawn — so a sanitized run is byte-identical in
simulated time to an unsanitized one (asserted by the golden-trace and
chaos byte-identity tests).

Violations are :class:`~repro.errors.InvariantViolation`\\ s carrying
layer, invariant name, rank, simulated time and (when observing) the
active span id.  Under ``strict`` plans they raise at the violation
site; otherwise they are collected into the job's check report.

Invariant catalogue
-------------------
ib
    * QP state machine: no post before RTS, transitions only from
      their legal predecessor states, no double destroy.
    * Destroy with outstanding WRs is *flagged* (recorded, never
      raised: an application may legitimately tear down with traffic
      in flight only if it previously quiesced — the record makes the
      case visible either way).
    * WR/CQE conservation: every tracked WR completes exactly once,
      errors exactly once, is flushed by its QP's destroy, or is still
      pending on a live QP at the end of the job.
    * QP-context cache accounting: per HCA,
      ``misses == capacity evictions + destroy removals + resident``.
memory
    * Remote access through a revoked (deregistered) or unknown rkey
      is a sanitizer error (the un-audited runtime NAKs it back to the
      requester as an error completion, mirroring IBV).
    * Symmetric-heap symmetry: every PE must produce the same
      ``shmalloc`` (offset, size) sequence.
    * Leak report: allocations never freed by ``finalize``.
pmi
    * KVS epoch monotonicity (+1 per commit) and range-memo hygiene
      (the memo must be dropped on commit).
    * Range-memo coherence: a memo hit must equal a reference fetch.
    * Fence pairing: every rank ends the job at the same fence epoch;
      every daemon collective has completed (result delivered, no
      stranded waiters).
conduit
    * Handshake transitions correct code cannot reach, recorded by the
      conduit under their own ids before it raises
      ``ProtocolStateError``: a ConnectReply this PE never asked for
      (``handshake.unsolicited_reply``), a serve after teardown began
      (``handshake.serve_after_close``).  A second connection
      registered for one peer is recorded too
      (``handshake.duplicate_connection``).
    * Teardown completeness: a closed conduit holds no connections at
      the end of the job.
lifecycle
    * Drained eviction: a connection must be quiesced (zero
      outstanding WRs on its QP) before its QPs are destroyed by the
      disconnect protocol.
    * Reconnect hygiene: re-establishing the same (rank, peer) pair
      more than ``RECONNECT_STORM_N`` times inside
      ``RECONNECT_STORM_WINDOW_US`` flags an eviction-policy/workload
      mismatch (the reaper is thrashing a hot connection).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import InvariantViolation
from .plan import CheckPlan

__all__ = ["Sanitizer"]


class Sanitizer:
    """Runtime state of one job's invariant auditing."""

    #: Reconnects of one (rank, peer) pair inside the window that
    #: constitute a storm (tunable class attribute, like ASan's
    #: thresholds are env-tunable).
    RECONNECT_STORM_N = 4
    RECONNECT_STORM_WINDOW_US = 5_000.0

    def __init__(self, plan: CheckPlan, sim, obs=None) -> None:
        self.plan = plan
        self.sim = sim
        self.obs = obs
        #: Violations collected so far (also populated when strict —
        #: the raise happens after recording, so a crashed run still
        #: carries its evidence).
        self.violations: List[InvariantViolation] = []
        # -- ib: WR/CQE conservation ---------------------------------
        self._wr_posted = 0
        self._wr_completed = 0
        self._wr_errored = 0
        self._wr_flushed = 0
        #: Live RC QPs (registered, not destroyed) for the final audit.
        self._live_rc_qps: List[Any] = []
        # -- ib: cache accounting (per HCA node) ----------------------
        self._cache_hits: Dict[int, int] = {}
        self._cache_misses: Dict[int, int] = {}
        self._cache_evictions: Dict[int, int] = {}
        self._cache_removals: Dict[int, int] = {}
        # -- memory: heap symmetry ------------------------------------
        self._shmalloc_seq: Dict[int, List] = {}
        # -- pmi ------------------------------------------------------
        self._kvs_commits = 0
        # -- lifecycle ------------------------------------------------
        self._evictions = 0
        self._reconnects = 0
        #: (rank, peer) -> recent reconnect timestamps (storm window).
        self._reconnect_times: Dict[tuple, List[float]] = {}
        self._installed: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # violation plumbing
    # ------------------------------------------------------------------
    def _violate(self, layer: str, invariant: str, detail: str,
                 rank=None, span=None, raise_now: bool = True) -> None:
        span_id = getattr(span, "span_id", span) if span is not None else None
        v = InvariantViolation(
            layer, invariant, detail, rank=rank,
            time_us=self.sim.now, span_id=span_id,
        )
        self.violations.append(v)
        if raise_now and self.plan.strict:
            raise v

    @staticmethod
    def _qp_span(qp):
        """The QP's bound flight-recorder parent span, if any."""
        bound = getattr(qp, "_obs", None)
        return bound[1] if bound else None

    # ------------------------------------------------------------------
    # ib hooks (called from repro.ib.qp / repro.ib.hca)
    # ------------------------------------------------------------------
    def on_qp_registered(self, qp) -> None:
        if self.plan.ib and qp.is_rc:
            self._live_rc_qps.append(qp)

    def on_qp_state_error(self, qp, needed, detail: str) -> None:
        """A verbs call found the QP in an illegal state.

        Records (and under a strict plan raises) the violation; if it
        returns — ib auditing off, or non-strict — the caller still
        raises its legacy ``QPStateError`` so the illegal operation
        never proceeds.
        """
        if self.plan.ib:
            self._violate(
                "ib", "qp.state", detail,
                rank=qp.owner_rank, span=self._qp_span(qp),
            )

    def on_qp_destroy(self, qp) -> None:
        if not self.plan.ib:
            return
        try:
            self._live_rc_qps.remove(qp)
        except ValueError:
            pass
        pending = getattr(qp, "_pending", None)
        if pending:
            # Flagged, never raised: see the module docstring.
            self._wr_flushed += len(pending)
            self._violate(
                "ib", "qp.destroy_outstanding_wrs",
                f"QP {qp.qpn} destroyed with {len(pending)} WRs in flight",
                rank=qp.owner_rank, span=self._qp_span(qp), raise_now=False,
            )

    def on_qp_double_destroy(self, qp) -> None:
        if not self.plan.ib:
            return
        self._violate(
            "ib", "qp.double_destroy",
            f"QP {qp.qpn} destroyed twice",
            rank=qp.owner_rank, span=self._qp_span(qp),
        )

    def on_wr_posted(self, qp, token: int) -> None:
        if self.plan.ib:
            self._wr_posted += 1

    def on_wr_completed(self, qp, token: int) -> None:
        if self.plan.ib:
            self._wr_completed += 1

    def on_wr_errored(self, qp, token: int) -> None:
        if self.plan.ib:
            self._wr_errored += 1

    def on_unmatched_completion(self, qp, kind: str, token: int) -> None:
        if not self.plan.ib:
            return
        self._violate(
            "ib", "wr.unmatched_completion",
            f"QP {qp.qpn} got {kind} for unknown token {token}",
            rank=qp.owner_rank, span=self._qp_span(qp),
        )

    def on_cache_touch(self, hca, hit: bool, evicted: bool) -> None:
        if not self.plan.ib:
            return
        node = hca.node
        if hit:
            self._cache_hits[node] = self._cache_hits.get(node, 0) + 1
        else:
            self._cache_misses[node] = self._cache_misses.get(node, 0) + 1
        if evicted:
            self._cache_evictions[node] = (
                self._cache_evictions.get(node, 0) + 1
            )

    def on_cache_remove(self, hca) -> None:
        if self.plan.ib:
            node = hca.node
            self._cache_removals[node] = self._cache_removals.get(node, 0) + 1

    # ------------------------------------------------------------------
    # memory hooks (called from repro.ib.qp / repro.shmem.context)
    # ------------------------------------------------------------------
    def on_remote_access_error(self, qp, rkey: int, detail: str) -> None:
        """Inbound RDMA/atomic hit a revoked/unknown rkey.

        Without auditing the target NAKs and the requester sees an
        error completion; the sanitizer turns it into a hard error at
        the point of damage.
        """
        if not self.plan.memory:
            return
        self._violate(
            "memory", "region.revoked_access",
            detail, rank=qp.owner_rank, span=self._qp_span(qp),
        )

    def on_shmalloc(self, rank: int, offset: int, size: int) -> None:
        if self.plan.memory:
            self._shmalloc_seq.setdefault(rank, []).append((offset, size))

    # ------------------------------------------------------------------
    # pmi hooks (called from repro.pmi.kvs)
    # ------------------------------------------------------------------
    def on_kvs_commit(self, kvs, prev_epoch: int) -> None:
        if not self.plan.pmi:
            return
        self._kvs_commits += 1
        if kvs.epoch != prev_epoch + 1:
            self._violate(
                "pmi", "kvs.epoch_monotonicity",
                f"commit moved epoch {prev_epoch} -> {kvs.epoch}",
            )
        if kvs._range_key is not None:
            self._violate(
                "pmi", "kvs.memo_leak",
                f"range memo {kvs._range_key!r} survived the commit to "
                f"epoch {kvs.epoch}",
            )

    def on_range_memo_hit(self, kvs, prefix: str, count: int,
                          values) -> None:
        """Verify a memo hit against a reference fetch."""
        if not self.plan.pmi:
            return
        reference = [kvs.get(f"{prefix}{i}") for i in range(count)]
        if values != reference:
            self._violate(
                "pmi", "kvs.memo_incoherent",
                f"memoised get_range({prefix!r}, {count}) diverged from a "
                f"reference fetch",
            )

    # ------------------------------------------------------------------
    # conduit hooks (called from repro.gasnet)
    # ------------------------------------------------------------------
    def on_protocol_error(self, rank: int, invariant: str,
                          detail: str) -> None:
        if self.plan.conduit:
            self._violate("conduit", invariant, detail, rank=rank)

    # ------------------------------------------------------------------
    # lifecycle hooks (called from repro.gasnet.ondemand_conduit)
    # ------------------------------------------------------------------
    def on_evict(self, rank: int, peer: int, outstanding_wrs: int) -> None:
        """The disconnect protocol is about to destroy a drained QP."""
        if not self.plan.lifecycle:
            return
        self._evictions += 1
        if outstanding_wrs > 0:
            self._violate(
                "lifecycle", "lifecycle.evict_with_outstanding_wrs",
                f"connection to {peer} evicted with {outstanding_wrs} WRs "
                f"still in flight (drain handshake skipped the quiesce)",
                rank=rank,
            )

    def on_reconnect(self, rank: int, peer: int) -> None:
        """A previously evicted (rank, peer) pair re-established."""
        if not self.plan.lifecycle:
            return
        self._reconnects += 1
        now = self.sim.now
        window = self.RECONNECT_STORM_WINDOW_US
        times = self._reconnect_times.setdefault((rank, peer), [])
        times.append(now)
        while times and times[0] < now - window:
            times.pop(0)
        if len(times) >= self.RECONNECT_STORM_N:
            self._violate(
                "lifecycle", "lifecycle.reconnect_storm",
                f"pe{rank} reconnected to {peer} {len(times)} times within "
                f"{window:g}us (eviction policy is thrashing a hot peer)",
                rank=rank,
            )

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, hcas=None, pmi_domain=None, network=None) -> "Sanitizer":
        """Arm the hook sites.  Mirrors ``FaultInjector.install``.

        Conduits and PEs read their ``check`` pointer from the network
        at construction time, so ``network`` must be armed before they
        are built (the Job does this).
        """
        if hcas is not None:
            for hca in hcas:
                hca.check = self
            self._installed["hcas"] = list(hcas)
        if pmi_domain is not None:
            pmi_domain.check = self
            pmi_domain.kvs.check = self
            self._installed["pmi_domain"] = pmi_domain
        if network is not None:
            network.check = self
        return self

    # ------------------------------------------------------------------
    # final audit
    # ------------------------------------------------------------------
    def final_audit(self, pes=(), conduits=(), pmi_clients=()) -> Dict[str, Any]:
        """End-of-run reconciliation; returns the check report payload.

        Runs after ``sim.run()`` completed, so it cannot perturb the
        simulation; under a strict plan the first end-state violation
        raises after being recorded.
        """
        before = len(self.violations)
        leaks: List[Dict[str, Any]] = []
        requested = 0
        if self.plan.ib:
            self._audit_wr_conservation()
            self._audit_cache_accounting()
        if self.plan.memory:
            self._audit_heap_symmetry()
            leaks = self._heap_leak_report(pes)
        if self.plan.pmi:
            self._audit_fence_pairing(pmi_clients)
            self._audit_collectives()
        if self.plan.conduit:
            self._audit_teardown(conduits)
            requested = sum(link.requested for c in conduits
                            for link in c._links.values())
        report = self.report(leaks=leaks, connect_requests_seen=requested)
        if self.plan.strict and len(self.violations) > before:
            raise self.violations[before]
        return report

    def _audit_wr_conservation(self) -> None:
        still_pending = sum(
            len(qp._pending) for qp in self._live_rc_qps
        )
        accounted = (
            self._wr_completed + self._wr_errored + self._wr_flushed
            + still_pending
        )
        if self._wr_posted != accounted:
            self._violate(
                "ib", "wr.conservation",
                f"{self._wr_posted} WRs posted but {accounted} accounted "
                f"for ({self._wr_completed} completed, "
                f"{self._wr_errored} errored, {self._wr_flushed} flushed, "
                f"{still_pending} pending)",
                raise_now=False,
            )

    def _audit_cache_accounting(self) -> None:
        for hca in self._installed.get("hcas", ()):
            node = hca.node
            misses = self._cache_misses.get(node, 0)
            accounted = (
                self._cache_evictions.get(node, 0)
                + self._cache_removals.get(node, 0)
                + len(hca._qp_cache)
            )
            if misses != accounted:
                self._violate(
                    "ib", "hca.cache_accounting",
                    f"node {node}: {misses} cache misses vs {accounted} "
                    f"accounted (evictions + removals + resident)",
                    raise_now=False,
                )

    def _audit_heap_symmetry(self) -> None:
        if not self._shmalloc_seq:
            return
        ranks = sorted(self._shmalloc_seq)
        reference = self._shmalloc_seq[ranks[0]]
        for rank in ranks[1:]:
            if self._shmalloc_seq[rank] != reference:
                self._violate(
                    "memory", "heap.asymmetric_allocation",
                    f"pe{rank} shmalloc sequence diverges from "
                    f"pe{ranks[0]}'s",
                    rank=rank, raise_now=False,
                )

    @staticmethod
    def _heap_leak_report(pes) -> List[Dict[str, Any]]:
        leaks = []
        for pe in pes:
            heap = getattr(pe, "heap", None)
            if heap is not None and heap._allocs:
                leaks.append({
                    "rank": pe.rank,
                    "allocations": len(heap._allocs),
                    "bytes": sum(heap._allocs.values()),
                })
        return leaks

    def _audit_fence_pairing(self, pmi_clients) -> None:
        epochs = {c._fence_epoch for c in pmi_clients}
        if len(epochs) > 1:
            self._violate(
                "pmi", "fence.imbalance",
                f"ranks ended at different fence epochs: {sorted(epochs)}",
                raise_now=False,
            )

    def _audit_collectives(self) -> None:
        domain = self._installed.get("pmi_domain")
        if domain is None:
            return
        for daemon in domain.daemons:
            for cid, state in daemon._coll.items():
                if state.result is None or state.waiters:
                    self._violate(
                        "pmi", "collective.incomplete",
                        f"daemon {daemon.node}: collective {cid} never "
                        f"completed (result={state.result is not None}, "
                        f"waiters={len(state.waiters)})",
                        raise_now=False,
                    )

    def _audit_teardown(self, conduits) -> None:
        closed = {conduit.rank for conduit in conduits if conduit._closed}
        for conduit in conduits:
            if conduit._closed and conduit._conns:
                self._violate(
                    "conduit", "teardown.connections_leaked",
                    f"{len(conduit._conns)} connections survived teardown "
                    f"(peers {sorted(conduit._conns)[:5]})",
                    rank=conduit.rank, raise_now=False,
                )
        # A finalize that raced a handshake leaves an RC QP stuck
        # half-open (INIT/RTR) with nothing left to drive or destroy
        # it.  Any other QP still in an HCA's table after its owner's
        # conduit closed was leaked: finalize destroys every QP.
        from ..ib.types import QPState

        for hca in self._installed.get("hcas", ()):
            for qp in hca._qps.values():
                if qp.is_rc and qp.state in (QPState.INIT, QPState.RTR):
                    self._violate(
                        "conduit", "teardown.half_open_qp",
                        f"RC QP {qp.qpn} left {qp.state.value} at job end",
                        rank=qp.owner_rank, raise_now=False,
                    )
                elif qp.owner_rank in closed:
                    self._violate(
                        "conduit", "teardown.qp_leaked",
                        f"{qp.qp_type.value} QP {qp.qpn} on LID "
                        f"{hca.lid:#x} left {qp.state.value} at job end",
                        rank=qp.owner_rank, raise_now=False,
                    )

    # ------------------------------------------------------------------
    def report(self, leaks: Optional[List[Dict[str, Any]]] = None,
               connect_requests_seen: int = 0) -> Dict[str, Any]:
        """The check payload attached to the JobResult.

        ``connect_requests_seen`` counts (rank, peer) pairs whose
        ConnectRequest went out (read off the conduits' links).
        """
        return {
            "plan": self.plan.name,
            "strict": self.plan.strict,
            "violations": [v.as_dict() for v in self.violations],
            "heap_leaks": leaks or [],
            "stats": {
                "wr_posted": self._wr_posted,
                "wr_completed": self._wr_completed,
                "wr_errored": self._wr_errored,
                "wr_flushed": self._wr_flushed,
                "kvs_commits": self._kvs_commits,
                "connect_requests_seen": connect_requests_seen,
                "evictions": self._evictions,
                "reconnects": self._reconnects,
            },
        }
