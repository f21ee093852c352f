"""Print the set-up time of one workload, measured in this fresh interpreter:
importing diracmono and diracmono.cli (numpy with them) and building the
workload's inputs and operations.

    python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import diracmono  # noqa: F401
    import diracmono.cli  # noqa: F401
    from workloads import build_operations

    build_operations(args.workload, args.seed, os.path.join(HERE, "out"))
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
