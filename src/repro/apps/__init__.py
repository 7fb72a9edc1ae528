"""Simulated applications: Hello World, 2D-Heat, NAS skeletons,
Graph500, and the connection-churn lifecycle workload."""

from .base import Application
from .churn import ChurnWorkload
from .graph500 import Graph500Hybrid, kronecker_edges
from .heat2d import Heat2D, process_grid, solve_heat_serial
from .hello import HelloWorld
from .nas import CLASSES, NasBT, NasEP, NasMG, NasSP

__all__ = [
    "Application",
    "ChurnWorkload",
    "HelloWorld",
    "Heat2D",
    "process_grid",
    "solve_heat_serial",
    "Graph500Hybrid",
    "kronecker_edges",
    "NasBT",
    "NasEP",
    "NasMG",
    "NasSP",
    "CLASSES",
]
