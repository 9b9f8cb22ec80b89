"""Child-process entry points of the campaign benchmark.

    python3 perfbench/child.py setup <spec.json> <scale>
        one set-up sample in this fresh interpreter, printed as JSON
    python3 perfbench/child.py fill <spec.json> <scale> <n_jobs> <dir>
        run the campaign cold into <dir>/store (warm-replay preparation)
    python3 perfbench/child.py pace
        time the host-speed kernels until standard input closes, then
        print the samples as JSON (see hostspeed.py)
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import harness  # noqa: E402  (after the path set-up)
import hostspeed  # noqa: E402


def main(argv):
    command = argv[0]
    if command == "pace":
        hostspeed.pace()
        return
    spec_path, scale = Path(argv[1]), float(argv[2])
    if command == "setup":
        print(json.dumps(harness.measure_setup(spec_path, scale)))
    elif command == "fill":
        harness.fill(spec_path, scale, int(argv[3]), Path(argv[4]))
    else:
        raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
