"""The on-demand conduit: the paper's contribution (Sections IV-A/C/E).

Connection establishment follows Figure 4 exactly:

1. the **client** creates an RC QP (RESET->INIT) and sends a UD
   ``ConnectRequest`` carrying its ``<lid, qpn>`` *plus the upper
   layer's exchange payload* (OpenSHMEM's serialized segment keys);
2. the **server**'s connection-manager (progress process) creates its
   own RC QP, moves it INIT->RTR toward the client, replies with a UD
   ``ConnectReply`` (again piggybacking its payload), then RTR->RTS;
3. the client, on reply, moves INIT->RTR->RTS and flushes queued work.

Connection retirement mirrors it in reverse (installed via
:meth:`OnDemandConduit.install_lifecycle`; off by default): a reaper
selects victims, the initiator quiesces its half and sends a UD
``Disconnect``, the target quiesces, acks with ``DisconnectAck`` and
destroys its QP, and the initiator destroys its own on the ack (or
unilaterally once the retry budget is spent — late traffic to the dead
QP is NAKed, never written through).

Everything one PE knows about one peer lives in one :class:`PeerLink`,
and every handshake datagram goes through one transition function,
:meth:`OnDemandConduit._on_handshake`, which looks up
``(state, message type)`` in :data:`FIG4`.  Both handshakes share the
same UD discipline: retransmission after ``ud_retry_timeout_us`` up to
``ud_max_retries`` times, idempotent duplicates (the reply and the ack
are cached for the sender's whole retry window), collisions resolved
by the lower rank staying client/initiator, and requests *held* until
``mark_ready()`` or *parked* until a drain of the previous incarnation
completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..errors import ConduitError, ResourceExhaustedError
from ..ib import CompletionQueue, RCQueuePair
from ..sim import SimEvent, spawn
from .conduit import Conduit, Connection
from .lifecycle import LifecyclePolicy, select_victims
from .messages import ConnectReply, ConnectRequest, Disconnect, DisconnectAck

__all__ = ["FIG4", "OnDemandConduit", "PeerLink", "ProtocolStateError"]

#: Link states.  ``CONNECTED`` is never stored on a link: the base
#: class's ``_conns`` is the one home of an established connection.
IDLE, CONNECTING, SERVING, CONNECTED, DRAINING = (
    "idle", "connecting", "serving", "connected", "draining")


class ProtocolStateError(ConduitError):
    """A handshake message arrived in a state correct code cannot reach."""

    def __init__(self, rank: int, peer: int, state: str, message: str,
                 invariant: str) -> None:
        self.rank, self.peer, self.state = rank, peer, state
        self.message, self.invariant = message, invariant
        super().__init__(
            f"PE {rank}: {message} from {peer} is illegal in state "
            f"{state} ({invariant})"
        )


@dataclass(slots=True)
class _PendingConnect:
    """Client-side state for an in-flight handshake.

    Registered *before* the client's QP exists (QP creation itself
    takes simulated time) so that concurrent senders to the same peer
    always share one handshake.
    """

    event: SimEvent
    qp: Optional[RCQueuePair] = None
    send_cq: Optional[CompletionQueue] = None
    abandoned: bool = False  # collision: peer serves us instead
    #: Flight-recorder span covering this client attempt (or None).
    span: object = None


@dataclass(slots=True)
class _PendingDisconnect:
    """State of one in-flight drain handshake (either role).

    ``done`` fires only at the epilogue, *after* the record has left its
    link — waiters (new senders, shutdown) re-check the link on wake.
    ``ack`` (initiator role only) fires when the peer's
    ``DisconnectAck`` arrives or a lost collision abandons the
    handshake.
    """

    done: SimEvent
    gen: int
    role: str  # "initiator" | "target"
    ack: Optional[SimEvent] = None
    abandoned: bool = False  # collision: we lost; peer's drain wins
    #: The peer's generation from its Disconnect (collision-loser ack).
    peer_gen: Optional[int] = None
    #: Flight-recorder span covering this drain (or None).
    span: object = None


@dataclass(slots=True)
class PeerLink:
    """One PE's record of one remote peer.

    ``state`` is the handshake in progress (idle, connecting, serving
    or draining); :meth:`OnDemandConduit._state` reads an idle link
    whose peer is in ``_conns`` as connected.  A client attempt can
    outlive the switch to serving (a collision the peer won, or a
    sender arriving mid-serve), so ``connect`` is kept apart from it.
    """

    state: str = IDLE
    #: Establishments so far (1 after the first); a Disconnect with an
    #: older generation is a stale retransmission.
    gen: int = 0
    #: The client handshake in flight, if any.
    connect: Optional[_PendingConnect] = None
    #: The drain in flight (either role), if any.
    drain: Optional[_PendingDisconnect] = None
    #: Cached ConnectReply and DisconnectAck, retransmitted to
    #: duplicates until their TTL timers (the sender's whole retry
    #: schedule) drop them.
    reply: Optional[ConnectReply] = None
    ack: Optional[DisconnectAck] = None
    #: When the last drain completed, for the reconnect-latency metric.
    evicted_at: Optional[float] = None
    #: Whether this PE ever sent the peer a ConnectRequest: a
    #: ConnectReply is legal only then.
    requested: bool = False


class OnDemandConduit(Conduit):
    """Connections are made lazily, on first communication."""

    mode = "on-demand"

    __slots__ = ("_links", "_active_serves", "_serves_drained",
                 "_reaper_started", "_reaper_wake")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._links: Dict[int, PeerLink] = {}
        #: Serves currently executing in the progress process; teardown
        #: must drain them or it races a half-built QP.
        self._active_serves = 0
        self._serves_drained: Optional[SimEvent] = None
        self._reaper_started = False
        #: Set while the reaper is parked with nothing to watch;
        #: _register_connection fires it so the loop resumes scanning.
        self._reaper_wake: Optional[SimEvent] = None

    # ------------------------------------------------------------------
    # the transition function
    # ------------------------------------------------------------------
    def _link(self, peer: int) -> PeerLink:
        link = self._links.get(peer)
        if link is None:
            link = self._links[peer] = PeerLink()
        return link

    def _state(self, peer: int, link: PeerLink) -> str:
        if link.state == IDLE and peer in self._conns:
            return CONNECTED
        return link.state

    def _on_handshake(self, msg) -> Generator:
        """Apply one handshake datagram: the ``FIG4`` cell for the
        link's state and the message's type."""
        peer = msg.src_rank
        if self._closed and type(msg) is not ConnectReply:
            # Teardown has begun: serving or draining now would touch
            # QPs the shutdown sweep is already past.  A late copy is
            # legal UD behaviour — drop it; its sender's retry budget
            # has long expired.  (A reply still completes a client
            # attempt that shutdown is waiting out.)
            self.counters.add("conduit.dropped_after_close")
            return
        link = self._link(peer)
        cell = FIG4[self._state(peer, link), type(msg)]
        if type(cell) is str:
            # A UD-legal duplicate or stale copy: drop and count.
            self.counters.add(cell)
            return
        step = cell(self, peer, link, msg)
        if step is not None:
            yield from step

    def _drains(self) -> list:
        """The drains in flight, either role."""
        return [link.drain for link in self._links.values() if link.drain]

    def _illegal(self, invariant: str, peer, link, msg) -> None:
        """Record (with a sanitizer) and raise an unreachable transition."""
        err = ProtocolStateError(self.rank, peer, self._state(peer, link),
                                 type(msg).__name__, invariant)
        if self.check is not None:
            self.check.on_protocol_error(self.rank, invariant, str(err))
        raise err

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> Generator:
        """Drain or abort in-flight handshakes, then tear down.

        Finalize can race the progress engine: a serve spawned for a
        late ConnectRequest builds its RC QP over several simulated
        steps, and sweeping connections mid-build leaves a half-open QP
        nothing ever destroys.  Close first (the progress engine drops
        new requests from here on), abort held requests, wait out any
        client attempts and in-flight serves, then run the QP sweep.
        """
        self._closed = True
        if self._reaper_wake is not None and not self._reaper_wake.triggered:
            # A parked reaper re-checks _closed on wake and exits.
            self._reaper_wake.succeed()
        held, self._held_requests = self._held_requests, []
        if held:
            # Never served now; the senders' retry budgets expired long
            # before finalize's barrier let us get here.
            self.counters.add("conduit.held_dropped_at_close", len(held))
        links = self._links.values()
        for pending in [l.connect for l in links if l.connect]:
            if not pending.event.triggered:
                yield pending.event
        # Serves and drain handshakes can re-enter (a parked request
        # adopted mid-drain spawns a fresh serve after this loop last
        # looked), so re-arm with a fresh event on every pass instead
        # of trusting one lazily-created drained event to cover them
        # all.  Every waited event fires only after its record leaves
        # the link, so each pass either blocks or terminates the loop.
        while self._drains() or self._active_serves > 0:
            for pending in self._drains():
                if not pending.done.triggered:
                    yield pending.done
            if self._active_serves > 0:
                self._serves_drained = self.sim.event()
                yield self._serves_drained
        self._serves_drained = None
        # The reply/ack caches die with the conduit; their TTL timers
        # are _closed-guarded and must find nothing left to mutate.
        for link in links:
            link.reply = link.ack = None
        yield from super().shutdown()

    def install_lifecycle(self, policy: LifecyclePolicy) -> None:
        """Arm idle-connection reaping (connections never retire
        otherwise)."""
        self.lifecycle = policy
        if self._ready:
            self._spawn_reaper()

    def mark_ready(self) -> None:
        super().mark_ready()
        if self.lifecycle is not None:
            self._spawn_reaper()

    def _spawn_reaper(self) -> None:
        if not self._reaper_started:
            self._reaper_started = True
            spawn(self.sim, self._reaper_loop(), name=f"reaper-{self.rank}")

    def _reaper_loop(self) -> Generator:
        """Periodically evict idle / over-cap connections.

        Exits on ``_closed`` so a finished job drains instead of
        ticking forever; victim order is pinned by
        :func:`~repro.gasnet.lifecycle.select_victims`, never by table
        iteration order.
        """
        lc = self.lifecycle
        last_scan = self.sim.now
        while not self._closed:
            if not self._conns and not self._drains():
                # Nothing to watch: park until the next establishment
                # registers.  An idle reaper must not keep ticking —
                # it would hold the event queue open forever after the
                # job's real work has drained.
                self._reaper_wake = self.sim.event()
                yield self._reaper_wake
                self._reaper_wake = None
                if self._closed:
                    return
                last_scan = self.sim.now
            yield self.sim.timeout(lc.scan_interval_us)
            if self._closed:
                return
            if lc.policy == "credit":
                for conn in self._conns.values():
                    if conn.last_used_us <= last_scan and conn.credits > 0:
                        conn.credits -= 1
            last_scan = self.sim.now
            # A connected peer is never draining: a drain pops _conns.
            candidates = [
                (peer, conn.last_used_us, conn.credits)
                for peer, conn in self._conns.items()
            ]
            for peer in select_victims(self.sim.now, candidates, lc):
                if self._closed:
                    return
                yield from self._disconnect(peer, reason=lc.policy)

    # ------------------------------------------------------------------
    # disconnect: initiator side
    # ------------------------------------------------------------------
    def _disconnect(self, peer: int, reason: str = "idle") -> Generator:
        """Retire the connection to ``peer`` (drain handshake,
        establish in reverse)."""
        # A connected peer is never draining: a drain pops _conns.
        if self._closed or peer not in self._conns:
            return
        link = self._links[peer]
        conn = self._conns.pop(peer)
        # The cached ConnectReply (duplicate-request idempotence) names
        # this incarnation's QP; once the drain starts, a request from
        # the peer is a *fresh* establish and must be served anew.
        link.reply = None
        pending = _PendingDisconnect(
            done=self.sim.event(), ack=self.sim.event(),
            gen=link.gen, role="initiator",
        )
        link.drain, link.state = pending, DRAINING
        self.counters.add("conduit.disconnect_requests")
        obs = self.obs
        if obs is not None:
            pending.span = obs.spans.start(
                "conduit.disconnect", f"pe{self.rank}", peer=peer,
                reason=reason, gen=pending.gen,
            )
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "disconnect", peer)
        try:
            # Quiesce: the connection is out of the table, so new
            # posters re-route through ensure_connected and wait out
            # the drain; the lock excludes the poster that is already
            # in, and outstanding WRs complete while the peer's QP is
            # still alive (it destroys only after draining its half).
            yield conn.lock.acquire()
            try:
                yield from self._quiesce(conn)
                directory = yield from self.resolve_directory()
                span_id = getattr(pending.span, "span_id", None)
                yield from self._retransmit(
                    peer, directory[peer], lambda attempt: Disconnect(
                        src_rank=self.rank, gen=pending.gen,
                        attempt=attempt, span_id=span_id,
                    ),
                    pending.ack, pending.span, "conduit.ud_disconnect",
                    "conduit.disconnect_retries",
                    # Once finalize has begun peers drop handshake
                    # traffic: fall through to the unilateral destroy.
                    lambda: pending.ack.triggered or self._closed,
                )
                acked = pending.ack.triggered and not pending.abandoned
                if pending.abandoned:
                    # Lost collision: the peer's handshake retires the
                    # pair; ack as soon as our half is quiesced.  The
                    # ack must not wait for the local destroy —
                    # qp_destroy_us exceeds the UD retry timeout, so
                    # acking late makes the winner retransmit (and,
                    # on a tight budget, time out) on every collision.
                    yield from self._send_disc_ack(
                        peer, link, pending.peer_gen, span_parent=pending.span
                    )
                yield from self._destroy_drained(peer, conn)
            finally:
                conn.lock.release()
            if pending.abandoned:
                outcome = "collision"
            elif acked:
                outcome = "evicted"
            else:
                self.counters.add("conduit.disconnect_timeouts")
                outcome = "timeout"
            self.counters.add("conduit.evictions")
            if obs is not None and pending.span is not None:
                obs.spans.finish(pending.span, outcome=outcome)
        finally:
            self._finish_draining(link, pending)

    def _quiesce(self, conn: Connection) -> Generator:
        lc = self.lifecycle
        drain_poll = lc.drain_poll_us if lc is not None else 5.0
        while conn.qp._pending:
            yield self.sim.timeout(drain_poll)

    def _retransmit(self, peer: int, dst_ud, make, done: SimEvent, span,
                    event: str, retries: str, stop) -> Generator:
        """The UD retry discipline both handshakes share.

        Sends ``make(attempt)`` up to ``ud_max_retries`` times, each
        followed by a ``ud_retry_timeout_us`` wait, then waits once more
        (a grace pass for an answer in flight); only sends after the
        first count as retries.  Returns True as soon as ``done`` fires,
        False when the budget runs out or ``stop()`` holds at the top of
        a round.
        """
        obs = self.obs
        for attempt in range(self.cost.ud_max_retries + 1):
            if stop():
                break
            if attempt < self.cost.ud_max_retries:
                msg = make(attempt)
                if obs is not None:
                    obs.spans.event(event, f"pe{self.rank}", parent=span,
                                    peer=peer, attempt=attempt)
                yield from self._ud_send(dst_ud, msg, msg.nbytes)
                if attempt > 0:
                    self.counters.add(retries)
            timeout = self.sim.timeout(self.cost.ud_retry_timeout_us)
            which, _value = yield self.sim.any_of([done, timeout])
            if which is done:
                return True
        return False

    def _destroy_drained(self, peer: int, conn: Connection) -> Generator:
        if self.check is not None:
            self.check.on_evict(self.rank, peer, len(conn.qp._pending))
        yield from self.ctx.destroy_qp(conn.qp)

    def _finish_draining(self, link, pending) -> None:
        """Epilogue for both roles: leave the link, then wake waiters
        (strictly in that order — see shutdown's drain loop)."""
        link.evicted_at = self.sim.now
        if link.drain is pending:
            link.drain, link.state = None, IDLE
        if not pending.done.triggered:
            pending.done.succeed()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def ensure_connected(self, peer: int) -> Generator:
        if peer in self._conns:
            return
        if peer == self.rank or self.cluster.same_node(peer, self.rank):
            return
        link = self._link(peer)
        while True:
            if link.drain is not None:
                # The previous incarnation is mid-drain: wait it out,
                # then reconnect below (transparent reconnect-after-
                # evict through the normal _connect path).
                yield link.drain.done
                continue
            if peer in self._conns:
                return
            if link.connect is not None:
                # Someone on this PE is already connecting: piggyback.
                # Re-check on wake: the attempt may have failed (its
                # event fires then too) — mount our own attempt rather
                # than return unconnected.
                yield link.connect.event
                continue
            yield from self._connect(peer, link)
            # Re-validate rather than return: between the connect
            # event firing and this process resuming, the progress
            # loop can have accepted a Disconnect for the *fresh*
            # connection (the peer's reaper raced our establish) and
            # started draining it already.
            continue

    def _connect(self, peer: int, link: PeerLink) -> Generator:
        ev = self.sim.event()
        pending = _PendingConnect(event=ev)
        link.connect = pending
        obs = self.obs
        if obs is not None:
            # Root span of this establishment attempt; the server's
            # serve span links back to it via the request's span_id.
            pending.span = obs.spans.start(
                "conduit.connect", f"pe{self.rank}", peer=peer
            )
        if link.state == SERVING:
            # Our own progress engine is already serving this peer's
            # request: sending our own request too would cross the
            # handshakes and pair mismatched QPs.  The serve's epilogue
            # wakes our pending event.
            yield ev
            self._finish_connect_span(pending, "served")
            return
        link.state = CONNECTING
        directory = yield from self.resolve_directory()
        dst_ud = directory[peer]
        send_cq = self.ctx.create_cq()
        qp = yield from self._create_rc_qp_backoff(send_cq, peer)
        if pending.span is not None:
            qp.observe(obs.spans, pending.span)
        yield from self.ctx.modify_init(qp)
        if pending.abandoned or ev.triggered or peer in self._conns:
            # While we were creating the QP, our own progress process
            # served (or is serving) the peer's request — the
            # established connection does not use this QP.
            qp.destroy()
            if pending.abandoned and not ev.triggered:
                # Serve in flight: it wakes this event when done.
                yield ev
            self._end_connect(link, pending)
            self._finish_connect_span(pending, "superseded")
            return
        pending.qp = qp
        pending.send_cq = send_cq
        link.requested = True
        self.counters.add("conduit.connect_requests")
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "connect_req", peer)

        payload = self._exchange_payload
        span_id = getattr(pending.span, "span_id", None)
        answered = yield from self._retransmit(
            peer, dst_ud, lambda attempt: ConnectRequest(
                src_rank=self.rank, rc_addr=qp.address, payload=payload,
                attempt=attempt, span_id=span_id,
            ),
            ev, pending.span, "conduit.ud_request", "conduit.connect_retries",
            # Connected through the serve path without our event (it
            # had already sampled the link).
            lambda: peer in self._conns,
        )
        if answered:
            if peer in self._conns and self._conns[peer].qp is not qp:
                qp.destroy()  # superseded by a served collision
            # If the reply path connected us it already closed the
            # span "connected"; otherwise a serve won — close it.
            self._finish_connect_span(pending, "served")
            return
        if peer in self._conns:  # adopt the served connection
            qp.destroy()
            self._end_connect(link, pending)
            self._finish_connect_span(pending, "superseded")
            return
        self._finish_connect_span(pending, "failed")
        # Abort cleanly: a failed attempt must not leave a half-open QP
        # behind, nor a forever-untriggered pending event for shutdown
        # (or a piggybacked sender) to wait on.
        qp.destroy()
        self._end_connect(link, pending)
        sends = self.cost.ud_max_retries
        raise ConduitError(
            f"PE {self.rank}: connect to {peer} failed after {sends} sends "
            f"({sends - 1} retransmissions)"
        )

    def _end_connect(self, link, pending) -> None:
        """Retire a client attempt from its link, *then* wake its
        waiters, so they re-check a consistent link."""
        if link.connect is pending:
            link.connect = None
            if link.state == CONNECTING:
                link.state = IDLE
        if not pending.event.triggered:
            pending.event.succeed()

    def _finish_connect_span(self, pending: "_PendingConnect",
                             outcome: str) -> None:
        """Close the client span if the reply path has not already."""
        span = pending.span
        if span is not None and span.end_us is None:
            self.obs.spans.finish(span, outcome=outcome)

    def _create_rc_qp_backoff(self, send_cq: CompletionQueue, peer: int):
        """Create an RC QP, riding out transient ENOMEM failures.

        QP-context memory can be (transiently) exhausted under load or
        a fault plan; the conduit retries with bounded exponential
        backoff.  The jitter is a pure function of (rank, peer,
        attempt) — deterministic for the replay tests, yet decorrelated
        across ranks so colliding creators do not retry in lockstep.
        """
        attempt = 0
        while True:
            try:
                qp = yield from self.ctx.create_rc_qp(send_cq, self._recv_cq)
            except ResourceExhaustedError:
                if attempt >= self.cost.qp_create_max_retries:
                    raise ConduitError(
                        f"PE {self.rank}: QP creation toward {peer} still "
                        f"failing after {attempt} backoff retries"
                    ) from None
                self.counters.add("conduit.qp_create_retries")
                yield self._qp_backoff_delay(attempt, peer)
                attempt += 1
            else:
                return qp

    def _qp_backoff_delay(self, attempt: int, peer: int) -> float:
        base = min(
            self.cost.qp_create_backoff_base_us * (1 << attempt),
            self.cost.qp_create_backoff_cap_us,
        )
        # Golden-ratio style hash -> jitter fraction in [0, 1).
        h = (
            (self.rank * 0x9E3779B1)
            ^ (peer * 0x85EBCA77)
            ^ (attempt * 0xC2B2AE35)
        ) & 0xFFFFFFFF
        return base * (1.0 + h / 2.0**32)

    def _accept_reply(self, peer, link, rep) -> Generator:
        """connecting + ConnectReply: finish the client handshake."""
        pending = link.connect
        if pending.qp is None or rep.dst_qpn != pending.qp.qpn:
            # A copy answering an older attempt's QP (ours may not even
            # exist yet): pairing with it would connect to a dead QP.
            self._stale_reply(peer, link, rep)
            return
        obs = self.obs
        if obs is not None:
            obs.spans.event(
                "conduit.reply_rx", f"pe{self.rank}",
                parent=pending.span, src=peer,
            )
        yield self.cost.conn_handshake_cpu_us
        yield from self.ctx.modify_rtr(pending.qp, rep.rc_addr)
        yield from self.ctx.modify_rts(pending.qp)
        self._register_connection(peer, pending.qp, pending.send_cq)
        self._deliver_payload(peer, rep.payload)
        if obs is not None:
            span = pending.span
            if span is not None:
                obs.histogram("conduit.handshake_rtt_us").observe(
                    self.sim.now - span.start_us
                )
                if span.end_us is None:
                    obs.spans.finish(span, outcome="connected")
        self._end_connect(link, pending)

    def _stale_reply(self, peer, link, rep) -> None:
        """A ConnectReply outside the client handshake: a duplicate of
        one already handled — unless this PE never asked."""
        if not link.requested:
            self._illegal("handshake.unsolicited_reply", peer, link, rep)
        self.counters.add("conduit.dup_replies")

    # ------------------------------------------------------------------
    # server side (runs in the progress process)
    # ------------------------------------------------------------------
    def _serve_or_hold(self, peer, link, req) -> Generator:
        """idle + ConnectRequest: serve, or hold until ready."""
        if not self._ready:
            # Hold until our segments are registered (Section IV-E).
            self._held_requests.append(req)
            self.counters.add("conduit.requests_held")
            if self.obs is not None:
                self.obs.spans.event(
                    "conduit.request_held", f"pe{self.rank}",
                    parent=req.span_id, src=peer,
                )
            return
        self._active_serves += 1
        try:
            yield from self._do_serve(link, req)
        finally:
            self._active_serves -= 1
            if self._active_serves == 0 and self._serves_drained is not None:
                self._serves_drained.succeed()
                self._serves_drained = None

    def _request_collision(self, peer, link, req) -> Generator:
        """connecting + ConnectRequest: both sides initiated; the lower
        rank stays client, the higher serves reusing its INIT QP."""
        if self.rank < peer:
            self.counters.add("conduit.collisions_ignored")
            return
        yield from self._serve_or_hold(peer, link, req)

    def _resend_reply(self, peer, link, req) -> Generator:
        """connected + ConnectRequest: our reply was lost; retransmit
        it while it is cached."""
        rep = link.reply
        if rep is not None:
            directory = yield from self.resolve_directory()
            yield from self._ud_send(directory[peer], rep, rep.nbytes)
            self.counters.add("conduit.dup_requests")

    def _park_request(self, peer, link, req) -> None:
        """draining + ConnectRequest: a reconnect racing our drain of
        the previous incarnation.  The drain wins (serving now would
        pair a fresh QP with a half-dead one); the request re-enters
        the table once the drain completes."""
        self.counters.add("conduit.requests_during_drain")
        spawn(self.sim, self._replay_after_drain(link, req),
              name=f"parked-req-{self.rank}<-{peer}")

    def _replay_after_drain(self, link, req) -> Generator:
        # Waits on the drain's own event, so its wake-up takes its
        # place among the drain's other waiters (new senders included).
        while link.drain is not None:
            yield link.drain.done
        if not self._closed:
            yield from self._on_handshake(req)

    def _do_serve(self, link: PeerLink, req: ConnectRequest) -> Generator:
        peer = req.src_rank
        if self._closed:
            # Unreachable through _on_handshake (which drops post-close
            # requests); guards the invariant against other entry paths.
            self._illegal("handshake.serve_after_close", peer, link, req)
        pending = link.connect
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "serve", peer)
        obs = self.obs
        sspan = None
        if obs is not None:
            # Parented by the client's connect span id carried on the
            # request — the causal link across the simulated wire.
            sspan = obs.spans.start(
                "conduit.serve", f"pe{self.rank}",
                parent=req.span_id, peer=peer,
            )
        # Duplicate requests must not spawn a second QP from here on;
        # the eventual reply is retransmittable.
        link.state = SERVING
        yield self.cost.conn_handshake_cpu_us
        if pending is not None and pending.qp is not None:
            # Collision, we lost the tie-break: reuse our INIT QP.
            self.counters.add("conduit.collisions_served")
            qp, send_cq = pending.qp, pending.send_cq
            pending.abandoned = True
        else:
            if pending is not None:
                # Collision caught before our client QP even existed.
                self.counters.add("conduit.collisions_served")
                pending.abandoned = True
            send_cq = self.ctx.create_cq()
            qp = yield from self._create_rc_qp_backoff(send_cq, peer)
            if sspan is not None:
                qp.observe(obs.spans, sspan)
            yield from self.ctx.modify_init(qp)
        if sspan is not None:
            # Collision-reuse rebinding included: from here the QP's
            # transitions belong to the serve, not the dead attempt.
            qp.observe(obs.spans, sspan)
        yield from self.ctx.modify_rtr(qp, req.rc_addr)
        rep = ConnectReply(
            src_rank=self.rank, rc_addr=qp.address,
            payload=self._exchange_payload, dst_qpn=req.rc_addr.qpn,
            span_id=sspan.span_id if sspan is not None else None,
        )
        link.reply = rep
        directory = yield from self.resolve_directory()
        if sspan is not None:
            obs.spans.event(
                "conduit.ud_reply", f"pe{self.rank}",
                parent=sspan, peer=peer,
            )
        yield from self._ud_send(directory[peer], rep, rep.nbytes)
        yield from self.ctx.modify_rts(qp)
        self._register_connection(peer, qp, send_cq)
        self._deliver_payload(peer, req.payload)
        if sspan is not None:
            obs.spans.finish(sspan, outcome="connected")
        # The reply stays cached for idempotent retransmission to
        # duplicate requests, but only as long as the client can still
        # be retransmitting; after its full retry budget has elapsed
        # the entry is garbage (the exchange payload it carries is the
        # bulk of it), so evict on a timer instead of leaking one entry
        # per served peer for the lifetime of the job.
        self.sim._schedule_at(
            self.sim.now + self._serving_ttl_us(), self._evict_serving, peer
        )
        # Wake whichever client attempt exists *now* (it may have been
        # created after we sampled `pending` at serve entry).
        latest = link.connect
        if latest is None:
            latest = pending
        if latest is not None:
            latest.abandoned = True
            self._end_connect(link, latest)

    def _serving_ttl_us(self) -> float:
        """How long a served reply must stay retransmittable: the
        client's whole retry schedule (sends plus the grace pass) can
        still produce duplicate requests until it gives up."""
        return (self.cost.ud_max_retries + 1) * self.cost.ud_retry_timeout_us

    def _evict_serving(self, peer: int) -> None:
        # The timer can outlive the conduit (shutdown already cleared
        # the cache); a closed conduit must not be mutated, nor its
        # counters bumped, after finalize.
        link = self._links[peer]
        if not self._closed and link.reply is not None:
            link.reply = None
            self.counters.add("conduit.serving_evicted")

    # ------------------------------------------------------------------
    # disconnect: target side (runs in the progress process)
    # ------------------------------------------------------------------
    def _reack(self, peer, link, msg) -> Generator:
        """Disconnect outside a drain: already torn down (our ack was
        lost and the initiator is retransmitting), or a stale
        retransmission from an older generation that must not touch a
        fresh reconnection — re-ack idempotently, tear down nothing."""
        self.counters.add("conduit.dup_disconnects")
        yield from self._send_disc_ack(peer, link, msg.gen,
                                       span_parent=msg.span_id)

    def _serve_disconnect(self, peer, link, msg) -> Generator:
        """connected + Disconnect: start draining our half (establish's
        serve in reverse).

        The link changes synchronously — the very next message the
        progress loop dispatches must already see the pair as draining
        — but the drain body itself (quiesce + a qp_destroy_us far
        longer than the UD retry timeout) runs in its own process:
        executed inline it would starve the progress engine, delaying
        every unrelated handshake and the very Disconnect
        retransmissions whose ack the initiator is waiting for.
        Shutdown still waits it out through the link's drain record.
        """
        if msg.gen < link.gen:
            yield from self._reack(peer, link, msg)
            return
        conn = self._conns.pop(peer)
        # Same rule as the initiator side: the cached reply for this
        # incarnation dies with it.
        link.reply = None
        pending = _PendingDisconnect(
            done=self.sim.event(), gen=msg.gen, role="target"
        )
        link.drain, link.state = pending, DRAINING
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.log(f"pe{self.rank}", "drain", peer)
        obs = self.obs
        if obs is not None:
            pending.span = obs.spans.start(
                "conduit.drain", f"pe{self.rank}", parent=msg.span_id,
                peer=peer, gen=msg.gen,
            )
        spawn(
            self.sim,
            self._drain_as_target(peer, link, conn, msg, pending),
            name=f"drain-{self.rank}<-{peer}",
        )

    def _drain_as_target(self, peer, link, conn, msg,
                         pending) -> Generator:
        obs = self.obs
        try:
            yield self.cost.conn_handshake_cpu_us
            yield conn.lock.acquire()
            try:
                yield from self._quiesce(conn)
                # Ack on quiescence, not on destroy: once our WRs have
                # drained the initiator is free to destroy its half,
                # and our own qp_destroy_us (which exceeds the UD
                # retry timeout) must not stall the ack into the
                # initiator's retransmission schedule.
                yield from self._send_disc_ack(peer, link, msg.gen,
                                               span_parent=pending.span)
                yield from self._destroy_drained(peer, conn)
            finally:
                conn.lock.release()
            self.counters.add("conduit.evicted_by_peer")
            if obs is not None and pending.span is not None:
                obs.spans.finish(pending.span, outcome="evicted_by_peer")
        finally:
            self._finish_draining(link, pending)

    def _drain_collision(self, peer, link, msg) -> Generator:
        """draining + Disconnect: a duplicate while we drain as target,
        or both sides initiated."""
        pending = link.drain
        if pending.role == "target":
            self.counters.add("conduit.dup_disconnects")
            ack = link.ack
            if ack is not None and ack.gen == msg.gen:
                # Quiescence already acked but the ack was lost (or
                # crossed this retransmission): re-ack from the cache.
                # Our local destroy still in progress is no reason to
                # leave the initiator retrying.
                yield from self._send_disc_ack(
                    peer, link, msg.gen, span_parent=msg.span_id
                )
            return
        # Initiator-initiator collision: same rule as establish — the
        # lower rank stays initiator; the higher rank abandons its own
        # handshake and acks the peer's once its local drain finishes
        # (acking early would let the peer destroy a QP our in-flight
        # WRs still need).
        if self.rank < peer:
            self.counters.add("conduit.disconnect_collisions")
            return
        if pending.abandoned:
            self.counters.add("conduit.dup_disconnects")
            return
        self.counters.add("conduit.disconnect_collisions")
        pending.abandoned = True
        pending.peer_gen = msg.gen
        if not pending.ack.triggered:
            pending.ack.succeed()

    def _send_disc_ack(self, peer, link, gen, span_parent=None) -> Generator:
        ack = link.ack
        if ack is None or ack.gen != gen:
            span_id = getattr(span_parent, "span_id", span_parent)
            ack = link.ack = DisconnectAck(src_rank=self.rank, gen=gen,
                                           span_id=span_id)
            # Retransmittable for the initiator's whole retry schedule,
            # then garbage: timer-evicted like the ConnectReply cache
            # (and _closed-guarded the same way).
            self.sim._schedule_at(
                self.sim.now + self._serving_ttl_us(),
                self._evict_disc_ack, peer,
            )
        directory = yield from self.resolve_directory()
        if self.obs is not None:
            self.obs.spans.event(
                "conduit.ud_disc_ack", f"pe{self.rank}",
                parent=span_parent, peer=peer,
            )
        yield from self._ud_send(directory[peer], ack, ack.nbytes)

    def _evict_disc_ack(self, peer: int) -> None:
        link = self._links[peer]
        if not self._closed and link.ack is not None:
            link.ack = None
            self.counters.add("conduit.disc_ack_evicted")

    def _accept_ack(self, peer, link, msg) -> None:
        """draining + DisconnectAck: the peer's half is quiesced."""
        pending = link.drain
        if (
            pending.role != "initiator"
            or msg.gen != pending.gen
            or pending.ack.triggered
        ):
            # Stale or duplicate ack (UD duplicates/reorders): drop.
            self.counters.add("conduit.dup_disc_acks")
            return
        if self.obs is not None:
            self.obs.spans.event(
                "conduit.disc_ack_rx", f"pe{self.rank}",
                parent=pending.span, src=peer,
            )
        pending.ack.succeed()

    # ------------------------------------------------------------------
    # reconnect bookkeeping
    # ------------------------------------------------------------------
    def _register_connection(self, peer: int, qp, send_cq):
        conn = super()._register_connection(peer, qp, send_cq)
        if self._reaper_wake is not None and not self._reaper_wake.triggered:
            self._reaper_wake.succeed()
        link = self._links[peer]
        link.state = IDLE  # established: _conns holds it from here
        link.gen += 1
        if link.gen > 1:
            # Only reachable after an eviction, i.e. with a lifecycle
            # policy somewhere in the job — never on the golden path.
            self.counters.add("conduit.reconnects")
            evicted_at, link.evicted_at = link.evicted_at, None
            obs = self.obs
            if obs is not None and evicted_at is not None:
                obs.histogram("conduit.reconnect_latency_us").observe(
                    self.sim.now - evicted_at)
            if self.check is not None:
                self.check.on_reconnect(self.rank, peer)
        return conn


_C = OnDemandConduit
_DUP_ACK = "conduit.dup_disc_acks"

#: The Fig. 4 protocol, establishment and drain: ``(state, message
#: type) -> cell``.  A string cell is a UD-legal duplicate or stale
#: copy: the datagram is dropped and that counter bumped.  A function
#: cell is ``cell(conduit, peer, link, msg)``; it may return a
#: generator, which runs in the progress process.  DESIGN.md prints
#: this table.
FIG4 = {
    (state, kind): cell
    for state, row in (
        (IDLE, (_C._serve_or_hold, _C._stale_reply, _C._reack, _DUP_ACK)),
        (CONNECTING, (_C._request_collision, _C._accept_reply, _C._reack,
                      _DUP_ACK)),
        (SERVING, ("conduit.dup_requests", _C._stale_reply, _C._reack,
                   _DUP_ACK)),
        (CONNECTED, (_C._resend_reply, _C._stale_reply,
                     _C._serve_disconnect, _DUP_ACK)),
        (DRAINING, (_C._park_request, _C._stale_reply, _C._drain_collision,
                    _C._accept_ack)),
    )
    for kind, cell in zip(
        (ConnectRequest, ConnectReply, Disconnect, DisconnectAck), row
    )
}
