"""Every cell of the on-demand conduit's Fig. 4 table, one at a time.

Each case puts PE 1's link to PE 0 in one state, delivers one handshake
message from PE 0 through the transition function, and asserts the
cell's outcome: the counter it bumps, the transition it makes, or a
``ProtocolStateError`` for a message correct code never sends (the
protocol-harness probe "send START while IDLE, expect BAD_STATE").
One case flips the roles to exercise the lower rank's collision rule.
"""

import pytest

from repro.check import CheckPlan
from repro.errors import ConduitError, InvariantViolation
from repro.gasnet.messages import (
    ConnectReply,
    ConnectRequest,
    Disconnect,
    DisconnectAck,
)
from repro.gasnet.ondemand_conduit import (
    CONNECTED,
    CONNECTING,
    DRAINING,
    FIG4,
    IDLE,
    SERVING,
    ProtocolStateError,
    _PendingConnect,
    _PendingDisconnect,
)
from repro.sim import spawn

from .conftest import build_conduit_rig


def _run(rig, gen, for_us=None):
    spawn(rig.sim, gen, name="step")
    if for_us is None:
        rig.sim.run()
    else:
        rig.sim.run(until=rig.sim.now + for_us)


def _init_qp(rig, rank):
    """An RC QP in INIT on ``rank``: a client half built by hand."""
    ctx, made = rig.ctxs[rank], []

    def make():
        send_cq = ctx.create_cq()
        qp = yield from ctx.create_rc_qp(send_cq, rig.conduits[rank]._recv_cq)
        yield from ctx.modify_init(qp)
        made.append((qp, send_cq))

    _run(rig, make())
    return made[0]


# -- states of `me`'s link to `peer` --------------------------------------
def _idle(rig, me, peer):
    me._link(peer).requested = True


def _never_asked(rig, me, peer):
    me._link(peer)


def _connecting(rig, me, peer, with_qp=False):
    link = me._link(peer)
    link.state, link.requested = CONNECTING, True
    link.connect = _PendingConnect(event=rig.sim.event())
    if with_qp:
        link.connect.qp, link.connect.send_cq = _init_qp(rig, me.rank)


def _connecting_with_qp(rig, me, peer):
    _connecting(rig, me, peer, with_qp=True)


def _connecting_answered_for_older_qp(rig, me, peer):
    """The request is out, but the reply names an older client QP."""
    _connecting(rig, me, peer, with_qp=True)
    return {"dst_qpn": me._links[peer].connect.qp.qpn - 1}


def _serving(rig, me, peer):
    link = me._link(peer)
    link.state, link.requested = SERVING, True


def _connected(rig, me, peer):
    """A real establishment (``peer`` connects to ``me``), stopped while
    ``me``'s reply is still cached."""
    client = rig.conduits[peer]
    me.register_handler("ping", lambda src, data: None)
    _run(rig, client.am_send(me.rank, "ping"), for_us=3_000.0)
    me._link(peer).requested = True
    assert me._links[peer].reply is not None


def _connected_stale(rig, me, peer):
    """Connected at generation 2, so a generation-1 Disconnect is a
    retransmission from the previous incarnation."""
    _connected(rig, me, peer)
    me._links[peer].gen = 2


def _draining(rig, me, peer, role="target"):
    link = me._link(peer)
    link.state, link.requested, link.gen = DRAINING, True, 1
    link.drain = _PendingDisconnect(
        done=rig.sim.event(), gen=1, role=role,
        ack=rig.sim.event() if role == "initiator" else None,
    )


def _draining_initiator(rig, me, peer):
    _draining(rig, me, peer, role="initiator")


# -- outcomes that are transitions rather than a counter ------------------
def _served(rig, me, peer):
    return peer in me._conns and me._links[peer].gen == 1


def _connected_by_reply(rig, me, peer):
    return peer in me._conns and me._links[peer].connect is None


def _reacked_nothing_torn_down(rig, me, peer):
    return (rig.counters["conduit.dup_disconnects"] == 1
            and peer in me._conns and me._links[peer].drain is None)


def _drained_by_peer(rig, me, peer):
    link = me._links[peer]
    return (rig.counters["conduit.evicted_by_peer"] == 1
            and peer not in me._conns and link.drain is None
            and link.state == IDLE)


def _ack_accepted(rig, me, peer):
    drain = me._links[peer].drain
    return drain.ack.triggered and not drain.abandoned


def _collision_abandoned(rig, me, peer):
    drain = me._links[peer].drain
    return drain.abandoned and drain.ack.triggered and drain.peer_gen == 1


REQ, REP, DISC, ACK = ConnectRequest, ConnectReply, Disconnect, DisconnectAck

#: (id, state, setup, message type, outcome, receiver rank).  An outcome
#: is the counter the cell bumps, a predicate over the end state, or
#: ProtocolStateError.
CASES = [
    ("idle-request-serves", IDLE, _idle, REQ, _served, 1),
    ("connecting-request-higher-rank-serves", CONNECTING, _connecting, REQ,
     "conduit.collisions_served", 1),
    ("connecting-request-lower-rank-ignores", CONNECTING, _connecting, REQ,
     "conduit.collisions_ignored", 0),
    ("serving-request", SERVING, _serving, REQ, "conduit.dup_requests", 1),
    ("connected-request-resends-cached-reply", CONNECTED, _connected, REQ,
     "conduit.dup_requests", 1),
    ("draining-request-parks", DRAINING, _draining, REQ,
     "conduit.requests_during_drain", 1),
    ("idle-reply", IDLE, _idle, REP, "conduit.dup_replies", 1),
    ("idle-reply-unsolicited", IDLE, _never_asked, REP, ProtocolStateError, 1),
    ("connecting-reply-connects", CONNECTING, _connecting_with_qp, REP,
     _connected_by_reply, 1),
    ("connecting-reply-before-request", CONNECTING, _connecting, REP,
     "conduit.dup_replies", 1),
    ("connecting-reply-for-an-older-qp", CONNECTING,
     _connecting_answered_for_older_qp, REP, "conduit.dup_replies", 1),
    ("serving-reply", SERVING, _serving, REP, "conduit.dup_replies", 1),
    ("connected-reply", CONNECTED, _connected, REP, "conduit.dup_replies", 1),
    ("draining-reply", DRAINING, _draining, REP, "conduit.dup_replies", 1),
    ("idle-disconnect-reacks", IDLE, _idle, DISC,
     "conduit.dup_disconnects", 1),
    ("connecting-disconnect-reacks", CONNECTING, _connecting, DISC,
     "conduit.dup_disconnects", 1),
    ("serving-disconnect-reacks", SERVING, _serving, DISC,
     "conduit.dup_disconnects", 1),
    ("connected-disconnect-drains", CONNECTED, _connected, DISC,
     _drained_by_peer, 1),
    ("connected-disconnect-stale-gen-reacks", CONNECTED, _connected_stale,
     DISC, _reacked_nothing_torn_down, 1),
    ("draining-disconnect-duplicate", DRAINING, _draining, DISC,
     "conduit.dup_disconnects", 1),
    ("draining-disconnect-collision", DRAINING, _draining_initiator, DISC,
     _collision_abandoned, 1),
    ("idle-ack-no-drain", IDLE, _idle, ACK, "conduit.dup_disc_acks", 1),
    ("connecting-ack", CONNECTING, _connecting, ACK,
     "conduit.dup_disc_acks", 1),
    ("serving-ack", SERVING, _serving, ACK, "conduit.dup_disc_acks", 1),
    ("connected-ack", CONNECTED, _connected, ACK, "conduit.dup_disc_acks", 1),
    ("draining-ack-accepted", DRAINING, _draining_initiator, ACK,
     _ack_accepted, 1),
    ("draining-ack-as-target", DRAINING, _draining, ACK,
     "conduit.dup_disc_acks", 1),
]


def _message(kind, src, rc_addr, dst_qpn):
    if kind is REQ:
        return ConnectRequest(src_rank=src, rc_addr=rc_addr)
    if kind is REP:
        return ConnectReply(src_rank=src, rc_addr=rc_addr, dst_qpn=dst_qpn)
    return kind(src_rank=src, gen=1)


def test_cases_cover_every_cell():
    assert {(state, kind) for _, state, _, kind, _, _ in CASES} == set(FIG4)
    assert len(FIG4) == 5 * 4


@pytest.mark.parametrize(
    "state,setup,kind,outcome,receiver",
    [case[1:] for case in CASES], ids=[case[0] for case in CASES],
)
def test_cell_outcome(state, setup, kind, outcome, receiver):
    # Non-strict for the illegal cells, so the conduit's own error is
    # what surfaces (the strict sanitizer raises first; see below).
    plan = CheckPlan(name="fig4", strict=outcome is not ProtocolStateError)
    rig = build_conduit_rig(npes=2, check=plan)
    me, sender = rig.conduits[receiver], rig.conduits[1 - receiver]
    # The sender's half: a real INIT QP to pair with, and a record that
    # it asked, so whatever `me` answers is legal there.
    qp, _ = _init_qp(rig, sender.rank)
    sender._link(me.rank).requested = True
    overrides = setup(rig, me, sender.rank) or {}
    link = me._links[sender.rank]
    assert me._state(sender.rank, link) == state
    # A reply answers `me`'s client QP, if it has one.
    client_qp = link.connect.qp if link.connect is not None else None
    dst_qpn = overrides.get("dst_qpn", getattr(client_qp, "qpn", None))
    msg = _message(kind, sender.rank, qp.address, dst_qpn)
    before = rig.counters.as_dict()
    if outcome is ProtocolStateError:
        with pytest.raises(ProtocolStateError) as info:
            next(me._on_handshake(msg))
        err = info.value
        assert (err.rank, err.peer, err.state, err.message) == (
            me.rank, sender.rank, state, kind.__name__)
        assert "\n" not in str(err) and isinstance(err, ConduitError)
        assert [v.invariant for v in rig.check.violations] == [err.invariant]
        return
    _run(rig, me._on_handshake(msg))
    if isinstance(outcome, str):
        assert rig.counters[outcome] == before.get(outcome, 0) + 1
    else:
        assert outcome(rig, me, sender.rank)
    assert rig.check.violations == []


class TestSanitizerIds:
    """Each handshake invariant id is still reached, and under a strict
    plan the sanitizer raises before the conduit does."""

    def test_unsolicited_reply(self):
        rig = build_conduit_rig(npes=2, check=CheckPlan(name="fig4"))
        c1 = rig.conduits[1]
        qp, _ = _init_qp(rig, 0)
        with pytest.raises(InvariantViolation) as info:
            next(c1._on_handshake(ConnectReply(src_rank=0,
                                               rc_addr=qp.address)))
        assert info.value.invariant == "handshake.unsolicited_reply"
        assert info.value.rank == 1

    def test_unsolicited_reply_without_a_sanitizer(self):
        rig = build_conduit_rig(npes=2, check=False)
        c1 = rig.conduits[1]
        qp, _ = _init_qp(rig, 0)
        with pytest.raises(ProtocolStateError, match=(
            r"^PE 1: ConnectReply from 0 is illegal in state idle "
            r"\(handshake.unsolicited_reply\)$"
        )):
            next(c1._on_handshake(ConnectReply(src_rank=0,
                                               rc_addr=qp.address)))

    def test_duplicate_connection(self):
        rig = build_conduit_rig(npes=2, check=CheckPlan(name="fig4"))
        c0, c1 = rig.conduits
        c1.register_handler("ping", lambda src, data: None)
        _run(rig, c0.am_send(1, "ping"))
        qp, send_cq = _init_qp(rig, 1)
        with pytest.raises(InvariantViolation) as info:
            c1._register_connection(0, qp, send_cq)
        assert info.value.invariant == "handshake.duplicate_connection"
