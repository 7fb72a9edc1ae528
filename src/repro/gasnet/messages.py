"""Conduit wire messages (carried as packet payloads).

Plain ``__slots__`` classes, not dataclasses: an :class:`ActiveMessage`
is allocated per AM on the hot path, so these stay ``__dict__``-free.
"""

from __future__ import annotations

from typing import Any, Optional

from ..ib import EndpointAddress

__all__ = [
    "ConnectRequest",
    "ConnectReply",
    "Disconnect",
    "DisconnectAck",
    "ActiveMessage",
]

#: Fixed header bytes for the connect handshake messages (rank, qpn,
#: lid, flags — roughly what the mvapich2x conduit sends).
CONNECT_HEADER_BYTES = 24
#: Active-message header (handler id, size, token).
AM_HEADER_BYTES = 16


class ConnectRequest:
    """UD connect request: client -> server (Figure 4).

    ``payload`` is the opaque exchange blob the upper layer (OpenSHMEM)
    asked the conduit to piggyback — the conduit never interprets it.
    """

    __slots__ = ("src_rank", "rc_addr", "payload", "attempt", "span_id")

    def __init__(
        self,
        src_rank: int,
        rc_addr: EndpointAddress,
        payload: bytes = b"",
        attempt: int = 0,
        span_id=None,
    ) -> None:
        self.src_rank = src_rank
        self.rc_addr = rc_addr
        self.payload = payload
        #: Retransmission attempt (for tracing/diagnostics only).
        self.attempt = attempt
        #: Flight-recorder span context (int or None).  Observation
        #: metadata, not wire payload: never part of ``nbytes``.
        self.span_id = span_id

    @property
    def nbytes(self) -> int:
        return CONNECT_HEADER_BYTES + len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConnectRequest(src_rank={self.src_rank}, "
            f"rc_addr={self.rc_addr!r}, attempt={self.attempt})"
        )


class ConnectReply:
    """UD connect reply: server -> client, same piggyback rules.

    ``dst_qpn`` names the client QP whose request this answers (like the
    remote QPN in an IB CM reply, it is part of the fixed header), so a
    client can tell its own reply from a stale copy for an older QP.
    """

    __slots__ = ("src_rank", "rc_addr", "payload", "dst_qpn", "span_id")

    def __init__(
        self,
        src_rank: int,
        rc_addr: EndpointAddress,
        payload: bytes = b"",
        dst_qpn: Optional[int] = None,
        span_id=None,
    ) -> None:
        self.src_rank = src_rank
        self.rc_addr = rc_addr
        self.payload = payload
        self.dst_qpn = dst_qpn
        #: Flight-recorder span context (int or None); not in nbytes.
        self.span_id = span_id

    @property
    def nbytes(self) -> int:
        return CONNECT_HEADER_BYTES + len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConnectReply(src_rank={self.src_rank}, "
            f"rc_addr={self.rc_addr!r})"
        )


class Disconnect:
    """UD disconnect request: initiator -> target (establish in reverse).

    ``gen`` is the initiator's generation number for this connection
    (how many times the pair has connected): a retransmitted Disconnect
    from a *previous* incarnation must not tear down a fresh
    reconnection, so acks echo the generation and stale ones are
    dropped.
    """

    __slots__ = ("src_rank", "gen", "attempt", "span_id")

    def __init__(
        self,
        src_rank: int,
        gen: int,
        attempt: int = 0,
        span_id=None,
    ) -> None:
        self.src_rank = src_rank
        self.gen = gen
        #: Retransmission attempt (for tracing/diagnostics only).
        self.attempt = attempt
        #: Flight-recorder span context (int or None); not in nbytes.
        self.span_id = span_id

    @property
    def nbytes(self) -> int:
        return CONNECT_HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Disconnect(src_rank={self.src_rank}, gen={self.gen}, "
            f"attempt={self.attempt})"
        )


class DisconnectAck:
    """UD disconnect ack: target -> initiator, echoing ``gen``."""

    __slots__ = ("src_rank", "gen", "span_id")

    def __init__(self, src_rank: int, gen: int, span_id=None) -> None:
        self.src_rank = src_rank
        self.gen = gen
        #: Flight-recorder span context (int or None); not in nbytes.
        self.span_id = span_id

    @property
    def nbytes(self) -> int:
        return CONNECT_HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DisconnectAck(src_rank={self.src_rank}, gen={self.gen})"


class ActiveMessage:
    """A GASNet-core-style active message riding an RC connection."""

    __slots__ = ("src_rank", "handler", "data", "data_bytes")

    def __init__(
        self,
        src_rank: int,
        handler: str,
        data: Any = None,
        data_bytes: int = 0,
    ) -> None:
        self.src_rank = src_rank
        self.handler = handler
        self.data = data
        self.data_bytes = data_bytes

    @property
    def nbytes(self) -> int:
        return AM_HEADER_BYTES + self.data_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ActiveMessage(src_rank={self.src_rank}, "
            f"handler={self.handler!r}, data_bytes={self.data_bytes})"
        )
