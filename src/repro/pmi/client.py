"""PMI client API (what the middleware links against).

Blocking PMI2 operations (``put``, ``get``, ``fence``) plus the
non-blocking PMIX extensions from the authors' earlier work
(EuroMPI'14 / CCGrid'15) that this paper exploits:

* :meth:`PMIClient.ifence`      -- split-phase fence,
* :meth:`PMIClient.iallgather`  -- fused Put+Fence+Get-all,
* :meth:`PMIHandle.wait`        -- wait for either to complete.

Every call charges realistic client<->daemon round-trip and daemon
queueing costs; collectives ride the daemon tree in
:mod:`repro.pmi.server`.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..errors import PMIError
from ..sim import SimEvent, Waitable
from .server import PMIDomain

__all__ = ["PMIClient", "PMIHandle"]


class PMIHandle:
    """Completion handle for a non-blocking PMI operation."""

    __slots__ = ("_event",)

    def __init__(self, event: SimEvent) -> None:
        self._event = event

    @property
    def done(self) -> bool:
        return self._event.triggered

    def wait(self) -> Waitable:
        """Yieldable; value is the operation result (dict rank->value)."""
        return self._event


class PMIClient:
    """Per-rank PMI client."""

    __slots__ = ("domain", "rank", "daemon", "_fence_epoch", "_iag_epoch",
                 "_staged_since_fence", "obs")

    def __init__(self, domain: PMIDomain, rank: int) -> None:
        self.domain = domain
        self.rank = rank
        self.daemon = domain.daemon_of(rank)
        self._fence_epoch = 0
        self._iag_epoch = 0
        self._staged_since_fence = 0
        #: Flight recorder (installed by ``Job`` if ``config.observe``).
        self.obs = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _local_call(self, cpu: float) -> Generator:
        """One client->daemon->client round trip; returns service time."""
        sim = self.domain.sim
        cost = self.domain.cost
        arrival = sim.now + cost.pmi_local_rtt_us / 2
        done = self.daemon.occupy(arrival, cpu)
        reply = done + cost.pmi_local_rtt_us / 2
        yield reply - sim.now
        return done

    # ------------------------------------------------------------------
    # blocking PMI2
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> Generator:
        """PMI2_KVS_Put: stage a key-value pair at the local daemon."""
        if self.daemon.staging.get(key) is not None or self.domain.kvs.contains(key):
            raise PMIError(f"PE {self.rank}: duplicate put of key {key!r}")
        self.domain.counters.add("pmi.puts")
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.spans.start("pmi.put", f"pe{self.rank}", key=key)
        yield from self._local_call(self.domain.cost.pmi_server_cpu_us)
        self.daemon.staging[key] = value
        self._staged_since_fence += 1
        if span is not None:
            obs.spans.finish(span)

    def get(self, key: str) -> Generator:
        """PMI2_KVS_Get: read a committed key (fence must have run)."""
        self.domain.counters.add("pmi.gets")
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.spans.start("pmi.get", f"pe{self.rank}", key=key)
        yield from self._local_call(self.domain.cost.pmi_server_cpu_us)
        if span is not None:
            obs.spans.finish(span)
        return self.domain.kvs.get(key)

    def get_many(self, keys: List[str]) -> Generator:
        """Batched get (one daemon request, per-entry parse cost)."""
        cost = self.domain.cost
        self.domain.counters.add("pmi.gets", len(keys))
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.spans.start(
                "pmi.get_many", f"pe{self.rank}", nkeys=len(keys)
            )
        yield from self._local_call(
            cost.pmi_server_cpu_us + len(keys) * cost.pmi_entry_cpu_us
        )
        if span is not None:
            obs.spans.finish(span)
        return self.domain.kvs.get_many(keys)

    def get_range(self, prefix: str, count: int) -> Generator:
        """Batched get of ``prefix0 .. prefix{count-1}``.

        Timing, counters and spans are identical to :meth:`get_many`
        over the same keys (one daemon request, per-entry parse cost);
        the parsed value list is shared job-wide via the KVS memo so a
        full-directory fetch costs O(N) host work once, not O(N) per PE.
        """
        cost = self.domain.cost
        self.domain.counters.add("pmi.gets", count)
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.spans.start(
                "pmi.get_many", f"pe{self.rank}", nkeys=count
            )
        yield from self._local_call(
            cost.pmi_server_cpu_us + count * cost.pmi_entry_cpu_us
        )
        if span is not None:
            obs.spans.finish(span)
        return self.domain.kvs.get_range(prefix, count)

    def fence(self) -> Generator:
        """PMI2_KVS_Fence: blocking commit + global synchronisation."""
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.spans.start("pmi.fence", f"pe{self.rank}")
        handle = self.ifence(_parent=span)
        yield handle.wait()
        if span is not None:
            obs.spans.finish(span)
            obs.histogram("pmi.fence_us").observe(
                span.end_us - span.start_us
            )

    # ------------------------------------------------------------------
    # non-blocking PMIX extensions
    # ------------------------------------------------------------------
    def ifence(self, _parent=None) -> PMIHandle:
        """Split-phase fence: returns immediately with a handle."""
        cid = f"fence:{self._fence_epoch}"
        self._fence_epoch += 1
        self.domain.counters.add("pmi.fences")
        staged, self._staged_since_fence = self._staged_since_fence, 0
        return self._contribute(cid, staged, "pmi.ifence", parent=_parent)

    def iallgather(self, value: Any) -> PMIHandle:
        """Non-blocking allgather of ``value``; result maps rank->value.

        Fuses the Put-Fence-Get-all sequence into one operation with a
        symmetric data pattern (paper Section III-E).
        """
        cid = f"iag:{self._iag_epoch}"
        self._iag_epoch += 1
        self.domain.counters.add("pmi.iallgathers")
        return self._contribute(cid, value, "pmi.iallgather")

    def _contribute(self, cid: str, value: Any, span_name: str,
                    parent=None) -> PMIHandle:
        sim = self.domain.sim
        cost = self.domain.cost
        daemon = self.daemon
        ev = sim.event()
        obs = self.obs
        if obs is not None:
            # Span covers launch -> completion of this rank's share of
            # the collective; closed from the event callback so it also
            # measures non-blocking ops that complete in the background.
            span = obs.spans.start(
                span_name, f"pe{self.rank}", parent=parent, cid=cid
            )
            spans = obs.spans

            def _close(_w, _span=span, _spans=spans):
                if _span.end_us is None:
                    _spans.finish(_span)

            ev.add_callback(_close)
        state = daemon.coll(cid)
        if state.result is not None:
            # Down phase already finished before this client asked.
            result = state.result
            sim._schedule_at(
                sim.now + cost.pmi_local_rtt_us,
                lambda _a: ev.succeed(result),
                None,
            )
        else:
            state.waiters.append(ev)
            arrival = sim.now + cost.pmi_local_rtt_us / 2
            done = daemon.occupy(arrival, cost.pmi_server_cpu_us)
            sim._schedule_at(
                done,
                lambda _a: daemon.local_contribution(cid, self.rank, value, done),
                None,
            )
        return PMIHandle(ev)
