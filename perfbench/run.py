#!/usr/bin/env python3
"""Run one hdgwave benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coupled_top --seed 1 --seconds 50 --trace 0

``--trace 0`` repeats the workload with tracing off until ``--seconds``
would be exceeded (at least once) and reports the end-to-end metrics as
medians over the repetitions.  ``--trace 1`` runs the workload once with
tracing off and once with spans at every layer boundary (see spans.py),
and reports the per-layer metrics.  Every solve is checked against
reference.json; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the run context is
printed above it.  Spans and the exact counts go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "mesh.build_s": "s",
    "mesh.elements": "count",
    "mesh.faces": "count",
    "mesh.class_reuse_share": "share",
    "local_solver.all_locals_s": "s",
    "local_solver.us_per_element": "us",
    "local_solver.element_tables_builds": "count",
    "local_solver.table_hit_ratio": "share",
    "elastic_spaces.stress_basis_s": "s",
    "elastic_spaces.stress_basis_calls": "count",
    "skeleton.assemble_s": "s",
    "skeleton.n_dofs": "count",
    "skeleton.nnz": "count",
    "skeleton.factor_s": "s",
    "skeleton.lu_fill": "count",
    "skeleton.lu_mbytes": "MB-computed",
    "skeleton.solve_s": "s",
    "skeleton.residual_rel": "ratio",
    "skeleton.recover_s": "s",
    "projections.theta_s": "s",
    "projections.project_calls": "count",
    "projections.face_rule_calls": "count",
    "projections.face_rule_s": "s",
    "verify.errors_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "share",
    "failed_ops": "share",
}

# counts that must repeat exactly between two traced runs of the same code
EXACT_COUNTS = tuple(
    name for name in PER_LAYER_UNITS
    if name.startswith("mesh.") and not name.endswith("_s")
    or name in ("skeleton.n_dofs", "skeleton.nnz", "skeleton.lu_fill")
    or name.endswith(("_calls", "_builds"))
)

LU_BYTES_PER_ENTRY = 16  # complex128 value; index arrays are not counted


def set_blas_threads() -> None:
    """One BLAS thread, set before numpy is first imported.

    Idle OpenBLAS threads spin while they wait for each other, so with two
    threads on a 2-core machine any other busy process stalls every BLAS
    call: a second process made runs up to 5x slower.  One thread keeps the
    timings independent of what else the machine runs.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def source_digest() -> str:
    """SHA-256 over the package sources: identifies 'the same code'."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hdgwave")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_context(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start through imports and make_case, in fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=50, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def relative_residual(matrix, rhs, x) -> float:
    import numpy as np

    return float(np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs))


def translation_classes(mesh) -> int:
    """Distinct (domain, edge vectors) among the elements, as the Assembler keys them."""
    tri = mesh.vertices[mesh.tri_vertices]
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    return len({
        (str(dom), round(float(a), 12), round(float(b), 12),
         round(float(c), 12), round(float(d), 12))
        for dom, a, b, c, d in zip(mesh.tri_domain, e1[:, 0], e1[:, 1],
                                   e2[:, 0], e2[:, 1])
    })


@dataclass
class Solve:
    """One trace solve, reduced to what the checks and the metrics use."""

    elements: int
    faces: int
    n_dofs: int
    nnz: int
    residual: float
    classes: int | None  # translation classes, counted in traced runs only


class SolveProbe:
    """Holds each trace solve's mesh, matrix, right-hand side and solution.

    Installed with tracing off as well: it adds one list append per solve,
    and ``take`` computes the residual after the timed region.
    """

    def __init__(self):
        self.raw = []

    def install(self, patches, skeleton) -> None:
        raw = self.raw

        def make(solve_assembled):
            def probed(system, *args, **kwargs):
                x = solve_assembled(system, *args, **kwargs)
                raw.append((system.dofmap.mesh, system.matrix, system.rhs, x))
                return x
            return probed

        patches.replace(skeleton, "solve_assembled", make)

    def take(self, count_classes: bool) -> list[Solve]:
        solves = [
            Solve(mesh.n_elements, mesh.n_faces, matrix.shape[0], matrix.nnz,
                  relative_residual(matrix, rhs, x),
                  translation_classes(mesh) if count_classes else None)
            for mesh, matrix, rhs, x in self.raw
        ]
        self.raw.clear()
        return solves


@dataclass
class Rep:
    """One execution of a workload: times, failures, and what was solved."""

    wall: float
    cpu: float
    n_ops: int
    failed: int
    problems: list[str]
    solves: list[Solve]


def run_rep(prepare, n_ops, seed, probe, reference, workloads, tracer=None) -> Rep:
    run = prepare(seed)
    probe.raw.clear()
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    error = None
    try:
        if tracer is None:
            outputs = run()
        else:
            with tracer.root():
                outputs = run()
    except Exception:  # a failed solve is a measured outcome, not a crash
        outputs, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    solves = probe.take(count_classes=tracer is not None)
    if error is not None:
        return Rep(wall, cpu, n_ops, n_ops, [error], solves)
    problems = []
    failed = 0
    if len(outputs) != n_ops or len(solves) != n_ops:
        problems.append(f"expected {n_ops} solves, got {len(outputs)} outputs "
                        f"and {len(solves)} trace solves")
        failed = n_ops
    else:
        for (label, out), solve in zip(outputs, solves):
            faults = workloads.check_output(label, out, reference)
            if not solve.residual <= workloads.RESIDUAL_MAX:
                faults.append(f"{label}: relative residual {solve.residual:.3e} "
                              f"above {workloads.RESIDUAL_MAX:g}")
            if faults:
                failed += 1
                problems.extend(faults)
    return Rep(wall, cpu, n_ops, failed, problems, solves)


def per_layer_metrics(tracer, traced: Rep, untraced: Rep,
                      fills, assembled) -> dict[str, float]:
    calls, self_s, within, within_calls = spans.summarize(tracer.spans)
    solves = traced.solves
    elements = sum(solve.elements for solve in solves)
    loc = "local_solver.all_locals"
    all_locals_s = (self_s[loc] + within[(loc, "local_solver.tables")]
                    + within[(loc, "local_solver.build_element_tables")])
    table_calls = within_calls[(loc, "local_solver.tables")]
    fill = sum(fills)
    root_s = self_s[spans.ROOT]
    attempted = traced.n_ops + untraced.n_ops
    return {
        "mesh.build_s": self_s["mesh.refine"] + self_s["mesh.build_structured_coupled"],
        "mesh.elements": elements,
        "mesh.faces": sum(solve.faces for solve in solves),
        "mesh.class_reuse_share": (
            1.0 - sum(solve.classes for solve in solves) / max(1, elements)),
        "local_solver.all_locals_s": all_locals_s,
        "local_solver.us_per_element": 1e6 * all_locals_s / max(1, sum(assembled)),
        "local_solver.element_tables_builds": calls["local_solver.build_element_tables"],
        "local_solver.table_hit_ratio": (
            1.0 - within_calls[(loc, "local_solver.build_element_tables")]
            / max(1, table_calls)),
        "elastic_spaces.stress_basis_s": self_s["elastic_spaces.build_stress_basis"],
        "elastic_spaces.stress_basis_calls": calls["elastic_spaces.build_stress_basis"],
        "skeleton.assemble_s": self_s["skeleton.assemble_system"],
        "skeleton.n_dofs": sum(solve.n_dofs for solve in solves),
        "skeleton.nnz": sum(solve.nnz for solve in solves),
        "skeleton.factor_s": self_s["skeleton.splu"],
        "skeleton.lu_fill": fill,
        "skeleton.lu_mbytes": fill * LU_BYTES_PER_ENTRY / 1e6,
        "skeleton.solve_s": self_s["skeleton.solve_assembled"],
        "skeleton.residual_rel": max((solve.residual for solve in solves), default=0.0),
        "skeleton.recover_s": self_s["skeleton.recover_fields"],
        "projections.theta_s": (self_s["projections.compute_theta"]
                                + self_s["projections.project_acoustic"]
                                + self_s["projections.project_elastic"]),
        "projections.project_calls": (calls["projections.project_acoustic"]
                                      + calls["projections.project_elastic"]),
        "projections.face_rule_calls": calls["projections.face_rule"],
        "projections.face_rule_s": self_s["projections.face_rule"],
        "verify.errors_s": self_s["verify.compute_errors"],
        "trace.overhead_ratio": traced.wall / untraced.wall,
        "trace.unattributed_share": root_s / traced.wall,
        "failed_ops": (traced.failed + untraced.failed) / attempted,
    }


def counts_key(workload: str, seed: int, digest: str) -> str:
    """Runs that solve the same inputs with the same code share this key."""
    import workloads

    return f"{workload}-{workloads.input_key(workload, seed)}-{digest}"


def check_counts_repeat(key: str, counts: dict) -> list[str]:
    """Compare exact counts with the first traced run stored under ``key``."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    previous = known.get(key)
    if previous is None:
        known[key] = counts
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        return []
    return [f"exact count {name}={counts[name]!r} differs from the earlier "
            f"run's {previous.get(name)!r}"
            for name in counts if previous.get(name) != counts[name]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_untraced(args, prepare, n_ops, probe, reference, workloads):
    """Repeat while the next repetition should end within --seconds; at least once."""
    reps: list[Rep] = []
    loop_start = time.perf_counter()
    while True:
        reps.append(run_rep(prepare, n_ops, args.seed, probe, reference, workloads))
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(rep.wall for rep in reps) > args.seconds:
            break
    values = {
        "wall_s": statistics.median(rep.wall for rep in reps),
        "cpu_s": statistics.median(rep.cpu for rep in reps),
        "setup_s": statistics.median(measure_setup(args.workload, args.seed)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return reps, values, []


def run_traced(args, prepare, n_ops, probe, reference, workloads, context):
    """One untraced and one traced repetition; per-layer metrics from the spans."""
    untraced = run_rep(prepare, n_ops, args.seed, probe, reference, workloads)
    fills, assembled = [], []
    tracer = spans.Tracer(observers={
        "skeleton.splu": lambda a, kw, lu: fills.append(lu.L.nnz + lu.U.nnz),
        "local_solver.all_locals": lambda a, kw, out: assembled.append(len(out)),
    })
    tracer.install()
    try:
        traced = run_rep(prepare, n_ops, args.seed, probe, reference, workloads, tracer)
    finally:
        tracer.uninstall()
    tag = f"{args.workload}-seed{args.seed}"
    tracer.write(os.path.join(OUT, f"spans-{tag}.json"))
    if tracer.missing:
        print(f"missing boundaries (their metrics read 0): {', '.join(tracer.missing)}")
    values = per_layer_metrics(tracer, traced, untraced, fills, assembled)
    counts = {name: values[name] for name in EXACT_COUNTS}
    problems = check_counts_repeat(
        counts_key(args.workload, args.seed, context["source_sha256"]), counts)
    return [untraced, traced], values, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    set_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "hdgwave", "__init__.py")):
        print(f"hdgwave sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hdgwave.skeleton
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()[args.workload]
    prepare, n_ops = workloads.WORKLOADS[args.workload]
    context = run_context(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)

    patches = spans.Patches()
    probe = SolveProbe()
    probe.install(patches, hdgwave.skeleton)
    try:
        if args.trace:
            reps, values, problems = run_traced(args, prepare, n_ops, probe, reference,
                                                workloads, context)
            units = PER_LAYER_UNITS
        else:
            reps, values, problems = run_untraced(args, prepare, n_ops, probe,
                                                  reference, workloads)
            units = END_TO_END_UNITS
    finally:
        patches.restore()

    for rep in reps:
        problems += rep.problems
    for line in problems:
        print(f"CHECK FAILED: {line}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print("context: " + json.dumps(context, sort_keys=True))
    print("repetition walls_s: " + " ".join(f"{rep.wall:.3f}" for rep in reps))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems,
                      "attempted": sum(rep.n_ops for rep in reps),
                      "failed": sum(rep.failed for rep in reps),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
