"""GASNet-like conduits: active messages, static and on-demand wiring."""

from .conduit import Conduit, ConduitNetwork, Connection
from .lifecycle import LifecyclePolicy, select_victims
from .messages import (
    ActiveMessage,
    ConnectReply,
    ConnectRequest,
    Disconnect,
    DisconnectAck,
)
from .ondemand_conduit import OnDemandConduit, ProtocolStateError
from .segment import SegmentInfo, SegmentTable, decode_segments, encode_segments
from .static_conduit import StaticConduit

__all__ = [
    "Conduit",
    "ConduitNetwork",
    "Connection",
    "ActiveMessage",
    "ConnectRequest",
    "ConnectReply",
    "Disconnect",
    "DisconnectAck",
    "LifecyclePolicy",
    "select_victims",
    "OnDemandConduit",
    "ProtocolStateError",
    "StaticConduit",
    "SegmentInfo",
    "SegmentTable",
    "encode_segments",
    "decode_segments",
]
