"""NAS Parallel Benchmark skeletons (the OpenSHMEM ports the paper uses)."""

from .bt import NasBT
from .common import CLASSES, NASClass, grid_2d, grid_3d
from .ep import NasEP
from .mg import NasMG
from .sp import NasSP

__all__ = ["NasBT", "NasEP", "NasMG", "NasSP", "CLASSES", "NASClass",
           "grid_2d", "grid_3d"]
