"""Standalone simulator speed benchmark (see src/repro/speed.py).

Times `simulate()` over representative workload x scheme pairs and
appends a labelled entry to the ``BENCH_SIM_SPEED.json`` trajectory at
the repository root::

    PYTHONPATH=src python benchmarks/bench_speed.py --preset medium \
        --label optimized

Unlike the figure benches in this directory, this file is not a pytest
bench: it owns wall-clock, not statistics, and a one-shot script keeps
the timed region free of harness overhead.  The `repro bench-speed`
CLI subcommand is the same harness for installed use.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.speed import (  # noqa: E402  (path bootstrap above)
    DEFAULT_OUTPUT,
    UncontrolledSpeedClaim,
    preset_names,
    run_and_report,
    run_controlled_pairs,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=preset_names(), default="medium")
    parser.add_argument("--label", default="dev",
                        help="entry label (e.g. baseline / optimized)")
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / DEFAULT_OUTPUT),
        help="trajectory file to append to ('-' disables recording)",
    )
    parser.add_argument(
        "--allow-uncontrolled", action="store_true",
        help="record a *-controlled entry even without its back-to-back "
             "baseline-controlled partner (warns instead of refusing)",
    )
    parser.add_argument(
        "--backend", choices=["native", "scalar", "turbo"], default=None,
        help="simulation backend to time (with --pairs: the candidate "
             "backend, default turbo)",
    )
    parser.add_argument(
        "--pairs", type=int, default=0,
        help="run N back-to-back scalar-vs-candidate pairs and record "
             "the median pair (label must end in -controlled)",
    )
    args = parser.parse_args(argv)
    output = None if args.output == "-" else Path(args.output)
    try:
        if args.pairs:
            run_controlled_pairs(
                args.preset,
                args.pairs,
                args.label,
                output=output,
                candidate_backend=args.backend or "turbo",
                allow_uncontrolled=args.allow_uncontrolled,
            )
        else:
            run_and_report(
                args.preset,
                args.label,
                output=output,
                allow_uncontrolled=args.allow_uncontrolled,
                backend=args.backend,
            )
    except ValueError as error:  # incl. UncontrolledSpeedClaim
        print(f"refusing to record: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
