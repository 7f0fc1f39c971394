"""modorder benchmark: one workload run, or all three, each in a fresh process.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30 --trace 1    # every workload

Run it from the root of a source checkout.  Each workload run happens in its
own child process, so peak memory is never carried over from an earlier
run.  The last stdout line of a run is its JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli", "suite-cyclic", "suite-products")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all three)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (BENCH.parent / "src" / "modorder").is_dir():
        print("error: no src/modorder beside the benchmark; run from a modorder checkout",
              file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else WORKLOADS:
        code = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
