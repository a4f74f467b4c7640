#!/usr/bin/env python3
"""Recompute perfbench/reference.json from the current sources.

    python3 perfbench/record_reference.py

Runs every workload once (jitter_assembly once per recorded mesh seed) and
stores, for each solve, the number of skeleton unknowns N, every error norm
and theta.  The benchmark checks its outputs against these values, so
rerun this only at a commit whose results are trusted.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402

run.set_blas_threads()

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, (prepare, _) in workloads.WORKLOADS.items():
        seeds = range(workloads.JITTER_SEEDS) if name == "jitter_assembly" else [0]
        outputs = {}
        for seed in seeds:
            outputs.update(prepare(seed)())
        reference[name] = outputs
        print(f"{name}: {len(outputs)} solves", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
