#!/usr/bin/env python
"""Startup scaling sweep: regenerate the paper's Figure 5(a).

Measures ``start_pes`` and Hello World wall time for both designs on
simulated Stampede (Cluster-B, 16 ppn) at growing job sizes.  With the
default sizes this takes a couple of minutes; pass explicit sizes to
go bigger (the paper sweeps to 8,192).

    python examples/startup_at_scale.py [npes ...]
    python examples/startup_at_scale.py --scale    # on-demand only, to 1,048,576

``--scale`` runs the proposed design alone far past the paper
(16,384 to 1,048,576 PEs, the macro phase models from 131,072 up —
about 2 minutes on one core at 1.45 GB peak RSS).
"""

import sys

from repro.bench.experiments import fig5_startup


def main() -> None:
    argv = sys.argv[1:]
    if argv and argv[0] == "--scale":
        sizes = [int(a) for a in argv[1:]] or None
        print(fig5_startup.run_scale(sizes=sizes, quick=False).render())
        return
    sizes = [int(a) for a in argv] or [128, 512, 2048, 4096]
    result = fig5_startup.run(sizes=sizes)
    print(result.render())
    breakdown = fig5_startup.run_breakdown(sizes=sizes[:3])
    print(breakdown.render())


if __name__ == "__main__":
    main()
