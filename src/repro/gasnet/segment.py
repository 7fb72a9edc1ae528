"""Segment descriptors: the ``<address, size, rkey>`` triplets.

OpenSHMEM registers its symmetric segments with the HCA and must hand
the resulting triplets to every peer that will RDMA into them.  *When*
that hand-off happens is exactly what the paper changes: statically via
a broadcast at init, or piggybacked on the connect handshake.

The wire encoding is a fixed 24 bytes per segment so the conduit can
charge realistic message sizes without interpreting the contents
(separation of concerns, Section IV-C).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ShmemError

__all__ = ["SegmentInfo", "SegmentTable", "encode_segments", "decode_segments"]

_SEG_FMT = "<QQQ"  # addr, size, rkey
SEGMENT_WIRE_BYTES = struct.calcsize(_SEG_FMT)


@dataclass(frozen=True, slots=True)
class SegmentInfo:
    """One registered, remotely accessible memory segment."""

    addr: int
    size: int
    rkey: int

    def translate(self, local_addr: int, local_base: int) -> int:
        """Map a symmetric address from the local segment into this one."""
        offset = local_addr - local_base
        if not (0 <= offset < self.size):
            raise ShmemError(
                f"symmetric offset {offset:#x} outside remote segment "
                f"(size {self.size:#x})"
            )
        return self.addr + offset


def encode_segments(segments: List[SegmentInfo]) -> bytes:
    """Serialise segments for piggybacking on connection packets."""
    return b"".join(struct.pack(_SEG_FMT, s.addr, s.size, s.rkey) for s in segments)


def decode_segments(data: bytes) -> List[SegmentInfo]:
    if len(data) % SEGMENT_WIRE_BYTES:
        raise ShmemError(f"segment blob length {len(data)} not a multiple of "
                         f"{SEGMENT_WIRE_BYTES}")
    out = []
    for off in range(0, len(data), SEGMENT_WIRE_BYTES):
        addr, size, rkey = struct.unpack_from(_SEG_FMT, data, off)
        out.append(SegmentInfo(addr=addr, size=size, rkey=rkey))
    return out


class SegmentTable:
    """Per-PE map: peer rank -> that peer's segments.

    A *resolver* may be installed for the statically-exchanged case:
    after the init-time broadcast every peer's keys are known, so the
    table materialises entries lazily instead of building N entries on
    each of N processes (an O(N^2) simulator cost with no timing
    meaning — the exchange time is charged in bulk at init).
    """

    __slots__ = ("rank", "_by_peer", "_resolver")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._by_peer: Dict[int, List[SegmentInfo]] = {}
        self._resolver = None

    def set_resolver(self, resolver) -> None:
        """``resolver(peer) -> List[SegmentInfo]`` fallback."""
        self._resolver = resolver

    def put(self, peer: int, segments: List[SegmentInfo]) -> None:
        self._by_peer[peer] = list(segments)

    def get(self, peer: int) -> List[SegmentInfo]:
        segs = self._by_peer.get(peer)
        if segs is not None:
            return segs
        if self._resolver is not None:
            segs = self._resolver(peer)
            if segs is not None:
                self._by_peer[peer] = segs
                return segs
        raise ShmemError(
            f"PE {self.rank}: no segment info for peer {peer} "
            "(connection not established / keys not exchanged)"
        )

    def knows(self, peer: int) -> bool:
        if peer in self._by_peer:
            return True
        if self._resolver is not None:
            segs = self._resolver(peer)
            if segs is not None:
                self._by_peer[peer] = segs
                return True
        return False

    def __len__(self) -> int:
        return len(self._by_peer)
