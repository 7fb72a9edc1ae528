"""OpenSHMEM runtime: symmetric heap, RMA, atomics, collectives, startup."""

from .collectives import tree_parent_children
from .context import ShmemContext
from .heap import SymmetricHeap
from .runtime import ShmemPE
from .startup import (
    PHASE_CONN,
    PHASE_MEMREG,
    PHASE_OTHER,
    PHASE_PMI,
    PHASE_SHM,
    STARTUP_PHASES,
)

__all__ = [
    "ShmemPE",
    "ShmemContext",
    "SymmetricHeap",
    "tree_parent_children",
    "PHASE_CONN",
    "PHASE_PMI",
    "PHASE_MEMREG",
    "PHASE_SHM",
    "PHASE_OTHER",
    "STARTUP_PHASES",
]
