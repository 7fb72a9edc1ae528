"""Process Management Interface: KVS, daemon tree, client."""

from .client import PMIClient, PMIHandle
from .kvs import KeyValueStore
from .server import Daemon, PMIDomain

__all__ = [
    "PMIClient",
    "PMIHandle",
    "KeyValueStore",
    "Daemon",
    "PMIDomain",
]
