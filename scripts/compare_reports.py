#!/usr/bin/env python3
"""List what moved between two report trees of scripts/run_convergence.py.

Examples:
    python3 scripts/compare_reports.py out_old out_new
    python3 scripts/compare_reports.py --floats out_old out_new

OLD and NEW are the --out roots of two runs.  Every report.csv and .dat line
that differs is printed with its row and each moved column as old -> new.
For each report.json the largest relative move of its floats is printed with
where it sits; --floats prints every moved float as well.  A file that is in
one tree only is named.  The exit code is 0 when every report.csv and .dat
file is byte-identical and present in both trees, and 1 otherwise.
"""

import argparse
import json
import math
import os
import sys


def report_files(root: str) -> set[str]:
    """Paths below ``root`` of every report file, relative to it."""
    found = set()
    for folder, _, names in os.walk(root):
        for name in names:
            if name.endswith((".csv", ".dat", ".json")):
                found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def table(path: str) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of a report.csv or a gnuplot .dat file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if path.endswith(".csv"):
        return lines[0].split(","), [line.split(",") for line in lines[1:]]
    return lines[0].lstrip("# ").split(), [line.split() for line in lines[1:]]


def moved_lines(rel: str, old: str, new: str) -> list[str]:
    """One line per moved row of a table: its row and every moved column."""
    with open(old, "rb") as fa, open(new, "rb") as fb:
        if fa.read() == fb.read():
            return []
    cols, old_rows = table(old)
    new_cols, new_rows = table(new)
    if cols != new_cols or len(old_rows) != len(new_rows):
        return [f"{rel}: columns or row count differ"]
    out = []
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        moves = [f"{c} {x}->{y}" for c, x, y in zip(cols, a, b) if x != y]
        if moves:
            out.append(f"{rel} row {i}: " + ", ".join(moves))
    return out or [f"{rel}: differs in its bytes, not in its values"]


def floats(obj, where: str = ""):
    """(place, value) of every float in a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from floats(value, f"{where}.{key}" if where else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from floats(value, f"{where}[{i}]")
    elif isinstance(obj, float):
        yield where, obj


def relative_move(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def json_moves(old: str, new: str) -> list[tuple[float, str, float, float]]:
    """(relative move, place, old, new) of every moved float, largest first."""
    with open(old) as fh:
        a = dict(floats(json.load(fh)))
    with open(new) as fh:
        b = dict(floats(json.load(fh)))
    moves = [(relative_move(a[p], b[p]), p, a[p], b[p]) for p in a.keys() & b.keys()]
    moves += [(math.inf, p, a.get(p, math.nan), b.get(p, math.nan)) for p in a.keys() ^ b.keys()]
    return sorted((m for m in moves if m[0] > 0.0), reverse=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--floats", action="store_true",
                        help="print every moved report.json float")
    args = parser.parse_args(argv)

    old_files, new_files = report_files(args.old), report_files(args.new)
    identical = True
    for rel in sorted(old_files ^ new_files):
        print(f"{rel}: only in {args.old if rel in old_files else args.new}")
        identical = identical and rel.endswith(".json")
    for rel in sorted(old_files & new_files):
        old, new = os.path.join(args.old, rel), os.path.join(args.new, rel)
        if rel.endswith(".json"):
            moves = json_moves(old, new)
            if moves:
                rel_move, place, _, _ = moves[0]
                print(f"{rel}: {len(moves)} floats moved, largest {rel_move:.1e} at {place}")
            if args.floats:
                for rel_move, place, a, b in moves:
                    print(f"  {place}: {a!r} -> {b!r} ({rel_move:.1e})")
            continue
        for line in moved_lines(rel, old, new):
            print(line)
            identical = False
    print("csv and dat files byte-identical" if identical else "csv or dat files differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
