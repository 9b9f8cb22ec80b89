"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 20 --trace 0

Runs one workload of perfbench/harness.py from the root of a checkout,
checks the program's outputs, and prints one JSON object as the last
line of standard output: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import harness  # noqa: E402  (after the path set-up)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace),
    )
    print("# provenance " + json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
