#!/usr/bin/env python3
"""Run the convergence studies and write one report directory per run.

Examples:
    python3 scripts/run_convergence.py --case acoustic61 --k 1 2 3
    python3 scripts/run_convergence.py --all --out out
    python3 scripts/run_convergence.py --case elastic62 --nu 0.49999 --levels 5

Each (case, k) pair gets out/<tag>_k<k>/ containing report.csv, report.json,
and a gnuplot-ready .dat file; a rate summary is printed at the end.
"""

import argparse
import os
import sys
import time

from hdgwave.verify import make_case, run_study

CASES = ("acoustic61", "elastic62", "coupled63")


def default_levels(case_name: str) -> int:
    # the coupled ladder has six levels (1,2,4,8,16,20 cells per unit);
    # the single-domain cases refine the 2-cell base grid four times
    return 6 if case_name == "coupled63" else 5


def run_one(case_name: str, k: int, levels: int | None, nu: float,
            out_root: str, verbose: bool) -> dict[str, float]:
    overrides = {"poisson": nu} if case_name == "elastic62" else {}
    case = make_case(case_name, **overrides)
    n_levels = levels if levels is not None else default_levels(case_name)
    tag = case_name if nu == 0.3 else f"{case_name}_nu{nu}"
    out_dir = os.path.join(out_root, f"{tag}_k{k}")
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.monotonic()
    report = run_study(case, k, n_levels, log=print if verbose else None)
    elapsed = time.monotonic() - t0
    report.write(out_dir, tag)

    finals = report.final_orders()
    rates = " ".join(f"{name}={rate:.2f}" for name, rate in sorted(finals.items()))
    print(f"[{tag} k={k}] {elapsed:6.1f}s  N_max={report.rows[-1].n_skeleton}  "
          f"final rates: {rates}")
    return finals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=CASES, help="single case to run")
    parser.add_argument("--all", action="store_true",
                        help="run every case (elastic also at nu=0.49999)")
    parser.add_argument("--k", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--levels", type=int, default=None,
                        help="mesh levels (default: 5, coupled 6)")
    parser.add_argument("--nu", type=float, default=0.3,
                        help="Poisson ratio for the solid-only case")
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--verbose", action="store_true",
                        help="print every level as it finishes")
    args = parser.parse_args(argv)

    if not args.case and not args.all:
        parser.error("pick --case NAME or --all")

    jobs: list[tuple[str, float]] = []
    if args.all:
        jobs = [("acoustic61", 0.3), ("elastic62", 0.3),
                ("elastic62", 0.49999), ("coupled63", 0.3)]
    else:
        jobs = [(args.case, args.nu)]

    for case_name, nu in jobs:
        for k in args.k:
            run_one(case_name, k, args.levels, nu, args.out, args.verbose)
    return 0


if __name__ == "__main__":
    sys.exit(main())
