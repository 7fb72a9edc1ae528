"""Command-line entry: regenerate paper tables/figures.

Usage::

    python -m repro.bench --list
    python -m repro.bench fig5a_startup fig9_resources   # quick scale
    python -m repro.bench --full fig8a_nas               # paper scale
    python -m repro.bench fig5_scale --sizes 131072 1048576
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, fig5_startup

#: ``--sizes`` sanity ceiling: the macro layer happily models a million
#: PEs, but anything past 4Mi is a typo, not an experiment.
MAX_SCALE_SIZE = 1 << 22


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables/figures from the paper.",
    )
    parser.add_argument("names", nargs="*", help="experiment names")
    parser.add_argument("--list", action="store_true", help="list names")
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale sweeps (slow) instead of quick scale",
    )
    parser.add_argument(
        "--sizes", nargs="+", type=int, metavar="NPES",
        help="explicit job sizes for fig5_scale (overrides the preset "
             "sweep; sizes >= %d PEs use the macro phase models)"
        % fig5_startup.MACRO_THRESHOLD,
    )
    args = parser.parse_args(argv)

    if args.sizes is not None:
        if args.names != ["fig5_scale"]:
            print("--sizes is only valid with the fig5_scale experiment",
                  file=sys.stderr)
            return 2
        bad = [n for n in args.sizes if n <= 0 or n > MAX_SCALE_SIZE]
        if bad:
            print(f"--sizes values must be in 1..{MAX_SCALE_SIZE} PEs, "
                  f"got: {', '.join(map(str, bad))}", file=sys.stderr)
            return 2
        print(fig5_startup.run_scale(sizes=args.sizes).render())
        return 0

    if args.list or not args.names:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0

    for name in args.names:
        fn = EXPERIMENTS.get(name)
        if fn is None:
            print(f"unknown experiment {name!r} (see --list)", file=sys.stderr)
            return 2
        print(fn(quick=not args.full).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
