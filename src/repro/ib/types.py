"""Shared types for the simulated InfiniBand verbs layer.

The hot wire types (:class:`Packet`, :class:`WorkCompletion`,
:class:`EndpointAddress`) are hand-written ``__slots__`` classes rather
than dataclasses: one is allocated per simulated packet/completion, so
skipping the per-instance ``__dict__`` measurably shrinks the DES
kernel's allocation churn.  The RC and UD paths build :class:`Packet`
and :class:`WorkCompletion` positionally, every field given, so no
call matches keywords.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

__all__ = [
    "QPType",
    "QPState",
    "Opcode",
    "WCStatus",
    "WorkCompletion",
    "Packet",
    "EndpointAddress",
]


class QPType(enum.Enum):
    """Transport type of a queue pair."""

    RC = "RC"  #: Reliable Connected -- one QP per peer, RDMA + atomics.
    UD = "UD"  #: Unreliable Datagram -- one QP talks to any peer, MTU-limited.


class QPState(enum.Enum):
    """Queue-pair state machine (subset of the IB spec we model)."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  #: Ready To Receive.
    RTS = "RTS"  #: Ready To Send.
    ERROR = "ERROR"


class Opcode(enum.Enum):
    """Work-request / work-completion opcodes."""

    SEND = "SEND"
    #: Receive-side completion of an inbound message (the verbs
    #: ``IBV_WC_RECV`` family) — distinct from the sender's SEND
    #: completion so CQ consumers can tell the two apart.
    RECV = "RECV"
    RDMA_WRITE = "RDMA_WRITE"
    RDMA_READ = "RDMA_READ"
    ATOMIC_FETCH_ADD = "ATOMIC_FETCH_ADD"
    ATOMIC_CMP_SWAP = "ATOMIC_CMP_SWAP"


class WCStatus(enum.Enum):
    """Work-completion status."""

    SUCCESS = "SUCCESS"
    REMOTE_ACCESS_ERROR = "REMOTE_ACCESS_ERROR"
    RETRY_EXCEEDED = "RETRY_EXCEEDED"
    WR_FLUSH_ERROR = "WR_FLUSH_ERROR"


class WorkCompletion:
    """Entry delivered to a completion queue."""

    __slots__ = (
        "wr_id", "opcode", "status", "byte_len", "src_qpn", "src_addr",
        "data",
    )

    def __init__(
        self,
        wr_id: int,
        opcode: Opcode,
        status: WCStatus = WCStatus.SUCCESS,
        byte_len: int = 0,
        src_qpn: Optional[int] = None,
        src_addr: Optional["EndpointAddress"] = None,
        data: Any = None,
    ) -> None:
        self.wr_id = wr_id
        self.opcode = opcode
        self.status = status
        #: Number of payload bytes (received or transferred).
        self.byte_len = byte_len
        #: For receive completions: sender identity (qpn of the source QP).
        self.src_qpn = src_qpn
        #: For UD receives: the source's (lid, qpn) so a reply can be sent.
        self.src_addr = src_addr
        #: Received payload (SEND) or atomic/read result.
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkCompletion(wr_id={self.wr_id}, opcode={self.opcode}, "
            f"status={self.status}, byte_len={self.byte_len})"
        )


class EndpointAddress:
    """The ``<lid, qpn>`` tuple the paper's protocol exchanges.

    Roughly an (IP address, port) pair: the LID identifies the node's
    HCA on the fabric, the QPN the queue pair within it.  Hashable and
    comparable by value (it is used as a dict key in directories).
    """

    __slots__ = ("lid", "qpn")

    def __init__(self, lid: int, qpn: int) -> None:
        self.lid = lid
        self.qpn = qpn

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndpointAddress):
            return NotImplemented
        return self.lid == other.lid and self.qpn == other.qpn

    def __hash__(self) -> int:
        return hash((self.lid, self.qpn))

    def __repr__(self) -> str:
        return f"EndpointAddress(lid={self.lid}, qpn={self.qpn})"


class Packet:
    """One fabric transfer unit.

    ``kind`` distinguishes protocol roles at the receiving HCA:
    ``"send"`` (two-sided message), ``"rdma_write"``, ``"rdma_read_req"``,
    ``"rdma_read_resp"``, ``"atomic_req"``, ``"atomic_resp"``, ``"ack"``.
    """

    __slots__ = (
        "kind", "dst_lid", "dst_qpn", "src_lid", "src_qpn", "nbytes",
        "payload", "raddr", "rkey", "token", "compare", "swap_or_add",
    )

    def __init__(
        self,
        kind: str,
        dst_lid: int,
        dst_qpn: int,
        src_lid: int,
        src_qpn: int,
        nbytes: int,
        payload: Any = None,
        raddr: int = 0,
        rkey: int = 0,
        token: int = 0,
        compare: int = 0,
        swap_or_add: int = 0,
    ) -> None:
        self.kind = kind
        self.dst_lid = dst_lid
        self.dst_qpn = dst_qpn
        self.src_lid = src_lid
        self.src_qpn = src_qpn
        self.nbytes = nbytes
        self.payload = payload
        #: Target virtual address / rkey for RDMA and atomics.
        self.raddr = raddr
        self.rkey = rkey
        #: Correlates requests with responses/acks at the initiator.
        self.token = token
        #: Atomic operands.
        self.compare = compare
        self.swap_or_add = swap_or_add

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind!r}, {self.src_lid}:{self.src_qpn} -> "
            f"{self.dst_lid}:{self.dst_qpn}, {self.nbytes}B)"
        )
