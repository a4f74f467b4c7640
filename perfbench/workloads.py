"""The benchmark's workloads and the check of their outputs.

Every workload is split in two: ``prepare(seed)`` does what counts as
set-up (``make_case``), and the callable it returns does the timed work
through hdgwave's public API and returns one output record per solve:
``(label, {"N": skeleton unknowns, "errors": {...}, "theta": float})``.
Meshes are built inside the timed part, from fresh cases each time, so a
repeated run in one process redoes the same work.

The reasons for each workload are in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os

import hdgwave
import hdgwave.mesh
import hdgwave.verify

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

TOP_LEVEL = 4            # coupled ladder rung: 16 cells per unit, 8,192 elements
JITTER_CELLS = 8         # 2,048 elements on the coupled63 geometry
JITTER_AMPLITUDE = 0.15  # cell widths
JITTER_SEEDS = 16        # --seed selects one of this many recorded jittered meshes

REL_TOL = 1e-4           # error norms and theta against the reference
RESIDUAL_MAX = 1e-10     # ||A x - b|| / ||b|| of every trace solve


def solve_and_verify(case, mesh, k: int) -> dict:
    """One ``hdgwave solve``: condensed solve, error norms, and theta."""
    assembler = hdgwave.Assembler(mesh, k, case.params)
    solution, system = hdgwave.verify.solve_problem(
        mesh, k, case.params, case.data, assembler=assembler
    )
    errors = hdgwave.verify.compute_errors(assembler, solution, case.exact)
    theta = hdgwave.verify.compute_theta(assembler, solution, case.exact)
    return {"N": system.dofmap.n_dofs, "errors": errors, "theta": theta}


def prepare_coupled_top(seed: int):
    case = hdgwave.verify.make_case("coupled63")

    def run():
        mesh = case.mesh_at(TOP_LEVEL)
        return [(f"coupled63-k3-L{TOP_LEVEL}", solve_and_verify(case, mesh, 3))]

    return run


def jitter_seed(seed: int) -> int:
    return seed % JITTER_SEEDS


def input_key(workload: str, seed: int) -> str:
    """The part of ``seed`` that a workload's inputs depend on."""
    if workload == "jitter_assembly":
        return f"jitter{jitter_seed(seed)}"
    return "fixed"


def prepare_jitter_assembly(seed: int):
    case = hdgwave.verify.make_case("coupled63")
    mesh_seed = jitter_seed(seed)

    def run():
        mesh = hdgwave.mesh.build_structured_coupled(
            JITTER_CELLS, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0),
            jitter=JITTER_AMPLITUDE, seed=mesh_seed,
        )
        return [(f"jitter-seed{mesh_seed}", solve_and_verify(case, mesh, 3))]

    return run


# name -> (prepare, solves per run)
WORKLOADS = {
    "coupled_top": (prepare_coupled_top, 1),
    "jitter_assembly": (prepare_jitter_assembly, 1),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref) -> bool:
    return (value is not None and math.isfinite(value)
            and abs(value - ref) <= REL_TOL * abs(ref))


def check_output(label: str, out: dict, reference: dict) -> list[str]:
    """Reasons why one solve's output disagrees with its reference (empty: ok)."""
    ref = reference.get(label)
    if ref is None:
        return [f"{label}: no reference value"]
    problems = []
    if out["N"] != ref["N"]:
        problems.append(f"{label}: N={out['N']} but the reference has {ref['N']}")
    if set(out["errors"]) != set(ref["errors"]):
        problems.append(f"{label}: error fields {sorted(out['errors'])} "
                        f"but the reference has {sorted(ref['errors'])}")
    for field, ref_err in ref["errors"].items():
        if not _close(out["errors"].get(field), ref_err):
            problems.append(f"{label}: err_{field}={out['errors'].get(field)!r} "
                            f"differs from {ref_err!r} by more than {REL_TOL:g}")
    if not _close(out["theta"], ref["theta"]):
        problems.append(f"{label}: theta={out['theta']!r} differs from "
                        f"{ref['theta']!r} by more than {REL_TOL:g}")
    return problems
