"""Block-batched error norms and theta against plain per-element loops.

``compute_errors`` and ``compute_theta`` work on stacked blocks of
same-domain elements.  The references below walk the elements one at a
time with one-element tables and projections, so any mix-up of the
element, face, or component axes in the batched code shows up as a
mismatch.  Block sizes of one and seven split every domain into blocks
with a remainder; the default size is exercised on a mesh whose fluid
part spans one full block and a partial one.
"""

from collections import defaultdict

import numpy as np
import pytest

import hdgwave.local_solver as local_solver
from hdgwave.local_solver import Assembler
from hdgwave.mesh import build_structured_coupled, face_rule
from hdgwave.projections import (
    _project_volume_scalars,
    compute_theta,
    project_acoustic,
    project_elastic,
)
from hdgwave.skeleton import solve_problem
from hdgwave.verify import compute_errors, make_case
from stress_members import stress_members

REL = 1e-12


def jittered_coupled(n_per_unit):
    return build_structured_coupled(
        n_per_unit, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0),
        jitter=0.15, seed=5,
    )


def solved(case, mesh, k):
    asm = Assembler(mesh, k, case.params)
    sol, _ = solve_problem(mesh, k, case.params, case.data, assembler=asm)
    return asm, sol


def l2sq(w, diff):
    return float(np.sum(w.reshape((-1,) + (1,) * (diff.ndim - 1)) * np.abs(diff) ** 2))


def vector_values(sv, coef):
    n = sv.shape[0]
    return np.stack([sv.T @ coef[:n], sv.T @ coef[n:]], axis=1)


def reference_errors(asm, sol, exact):
    mesh, k = asm.mesh, asm.k
    acc = defaultdict(float)
    for elem in range(mesh.n_elements):
        tab = asm.tables(elem)  # a block of one
        w, pts, sv, h = tab.weights[0], tab.points[0], tab.scalar[0], tab.h[0]
        row = sol.row[elem]  # the element's row in its domain's arrays
        faces = mesh.element_faces[elem]
        fr = face_rule(mesh, faces, k)  # its three faces
        if tab.domain == "E":
            sig_h = np.einsum("j,jqrc->qrc", sol.parts["sigma"][row],
                              stress_members(sv, tab.enrichment[0]))
            acc["sigma"] += l2sq(w, sig_h - exact.sigma(pts))
            acc["u"] += l2sq(w, vector_values(sv, sol.parts["u"][row]) - exact.u(pts))
            g_h = sv.T @ sol.parts["gamma"][row]
            acc["gamma"] += 2.0 * l2sq(w, g_h - exact.gamma_p(pts))
            defect = fr.moments(fr.sample(exact.u)) - sol.uhat[faces]
            acc["uhat"] += h * float(np.sum(np.abs(defect) ** 2))
        else:
            acc["q"] += l2sq(w, vector_values(sv, sol.parts["q"][row]) - exact.q(pts))
            acc["v"] += l2sq(w, sv.T @ sol.parts["v"][row] - exact.v(pts))
            defect = fr.moments(fr.sample(exact.v)) - sol.vhat[faces]
            acc["vhat"] += h * float(np.sum(np.abs(defect) ** 2))
    return {name: np.sqrt(val) for name, val in acc.items()}


def reference_theta(asm, sol, exact):
    params, parts = asm.params, sol.parts
    total = 0.0
    for elem in range(asm.mesh.n_elements):
        tab = asm.tables(elem)
        w, sv = tab.weights[0], tab.scalar[0]
        row = sol.row[elem]
        if tab.domain == "E":
            pe = project_elastic(tab, params, exact.sigma, exact.u)
            sig_p = np.einsum("rcj,jq->qrc", pe.sigma, sv)
            sig_h = np.einsum("j,jqrc->qrc", parts["sigma"][row],
                              stress_members(sv, tab.enrichment[0]))
            total += l2sq(w, sig_p - sig_h)
            u_p = np.einsum("rj,jq->qr", pe.u, sv)
            total += l2sq(w, u_p - vector_values(sv, parts["u"][row]))
            g_p = _project_volume_scalars(tab, tab.sample_volume(exact.gamma_p))[0]
            total += 2.0 * l2sq(w, sv.T @ (g_p - parts["gamma"][row]))
        else:
            pa = project_acoustic(tab, params, exact.q, exact.v)
            total += l2sq(w, vector_values(sv, pa.vec - parts["q"][row]))
            total += l2sq(w, sv.T @ (pa.scalar - parts["v"][row]))
    return float(np.sqrt(total))


def assert_batched_matches_loops(asm, sol, exact):
    errors = compute_errors(asm, sol, exact)
    expected = reference_errors(asm, sol, exact)
    assert errors.keys() == expected.keys()
    for name, value in expected.items():
        assert errors[name] == pytest.approx(value, rel=REL, abs=0.0), name
    theta = compute_theta(asm, sol, exact)
    assert theta == pytest.approx(reference_theta(asm, sol, exact), rel=REL, abs=0.0)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_coupled_jittered_matches_element_loops(k, block, monkeypatch):
    monkeypatch.setattr(local_solver, "BLOCK_SIZE", block)
    case = make_case("coupled63")
    mesh = jittered_coupled(2)  # 32 solid and 96 fluid elements
    asm, sol = solved(case, mesh, k)
    assert_batched_matches_loops(asm, sol, case.exact)


def test_default_block_size_with_partial_block():
    case = make_case("coupled63")
    mesh = jittered_coupled(4)
    n_fluid = int(np.sum(mesh.tri_domain == "A"))
    assert n_fluid > local_solver.BLOCK_SIZE
    assert n_fluid % local_solver.BLOCK_SIZE != 0
    asm, sol = solved(case, mesh, 2)
    assert_batched_matches_loops(asm, sol, case.exact)


@pytest.mark.parametrize("name", ["acoustic61", "elastic62"])
@pytest.mark.parametrize("k", [1, 3])
def test_single_domain_matches_element_loops(name, k, monkeypatch):
    monkeypatch.setattr(local_solver, "BLOCK_SIZE", 7)
    case = make_case(name)
    asm, sol = solved(case, case.mesh_at(1), k)  # 32 elements
    assert_batched_matches_loops(asm, sol, case.exact)


def test_blocks_cover_every_element_once(monkeypatch):
    monkeypatch.setattr(local_solver, "BLOCK_SIZE", 7)
    mesh = jittered_coupled(2)
    asm = Assembler(mesh, 1, make_case("coupled63").params)
    blocks = asm.map_blocks(lambda blk: blk)
    seen = np.concatenate([blk.elems for blk in blocks])
    assert sorted(seen.tolist()) == list(range(mesh.n_elements))
    for blk in blocks:
        assert 1 <= len(blk.elems) <= 7
        assert set(mesh.tri_domain[blk.elems]) == {blk.domain}
        assert np.array_equal(blk.face_ids, mesh.element_faces[blk.elems])
