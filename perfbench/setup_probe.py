"""Set up one workload in a fresh process and print the monotonic clock.

run.py starts this script and subtracts its own clock reading taken just
before the start, which gives the set-up time from process start through
the imports and ``make_case``: the work done before the first solver call.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports hdgwave, numpy and scipy)

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload][0](args.seed)
    print(time.monotonic())
