"""Projections used for boundary elimination and error weighting.

Face projections are plain L2 projections onto the orthonormal face basis,
so coefficients are just weighted moments.  The volume projections mimic
the structure of the discretization: the pair (vector field, scalar field)
is fixed by L2 moments against polynomials one degree down plus matching
of the penalized normal flux on every face.  That square system reproduces
degree-k polynomial pairs exactly and its defect against the discrete
solution is the quantity whose decay the convergence study tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local_solver import ElementTables, ModelParams
from .mesh import Mesh, face_rule


def project_face(mesh: Mesh, face_id: int, k: int, fn,
                 degree: int | None = None) -> np.ndarray:
    """Coefficients of the face-wise L2 projection of a scalar function, or
    component-major (x modes, then y modes) ones of a vector function."""
    fr = face_rule(mesh, face_id, k, degree)
    return fr.moments(fn(fr.points))


def project_volume_scalar(tables: ElementTables, fn) -> np.ndarray:
    """Element-wise L2 projection onto the scalar space, by Gram solve."""
    w, sv = tables.weights, tables.scalar
    vals = np.asarray(fn(tables.points), dtype=complex)
    gram = np.einsum("q,iq,jq->ij", w, sv, sv, optimize=True)
    mom = np.einsum("q,iq,q->i", w, sv, vals, optimize=True)
    return np.linalg.solve(gram, mom)


@dataclass(frozen=True)
class ProjectedPair:
    """Projection of one (vector, scalar) pair on one element.

    ``vec`` stacks the x and y coefficient blocks over the element scalar
    basis; ``residual`` is the relative defect of the square projection
    system (it should sit at rounding level whenever the system is
    solvable, which the flux-matching construction guarantees for
    positive tau).
    """

    vec: np.ndarray      # (2 * n_scalar,)
    scalar: np.ndarray   # (n_scalar,)
    residual: float


def _project_pair(tables: ElementTables, tau: float, vec_fn, scalar_fn) -> ProjectedPair:
    k = tables.k
    n_k = tables.n_scalar
    n_km1 = n_k - (k + 1)
    n = 3 * n_k

    w, sv = tables.weights, tables.scalar
    gram = np.einsum("q,iq,jq->ij", w, sv, sv, optimize=True)
    vec_vals = np.asarray(vec_fn(tables.points), dtype=complex)
    sc_vals = np.asarray(scalar_fn(tables.points), dtype=complex)

    a = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)

    # moments against every basis function of one degree lower; the graded
    # orthonormal basis keeps those in the leading block
    a[:n_km1, :n_k] = gram[:n_km1]
    b[:n_km1] = np.einsum("q,iq,q->i", w, sv[:n_km1], vec_vals[:, 0], optimize=True)
    a[n_km1 : 2 * n_km1, n_k : 2 * n_k] = gram[:n_km1]
    b[n_km1 : 2 * n_km1] = np.einsum(
        "q,iq,q->i", w, sv[:n_km1], vec_vals[:, 1], optimize=True
    )
    a[2 * n_km1 : 3 * n_km1, 2 * n_k :] = gram[:n_km1]
    b[2 * n_km1 : 3 * n_km1] = np.einsum(
        "q,iq,q->i", w, sv[:n_km1], sc_vals, optimize=True
    )

    base = 3 * n_km1
    for f, ft in enumerate(tables.faces):
        fm = ft.scalar_moments
        rows = slice(base + f * (k + 1), base + (f + 1) * (k + 1))
        a[rows, :n_k] = ft.normal[0] * fm.T
        a[rows, n_k : 2 * n_k] = ft.normal[1] * fm.T
        a[rows, 2 * n_k :] = -tau * fm.T
        fvec = np.asarray(vec_fn(ft.points), dtype=complex)
        fsc = np.asarray(scalar_fn(ft.points), dtype=complex)
        b[rows] = ft.moments(fvec @ ft.normal - tau * fsc)

    x = np.linalg.solve(a, b)
    residual = float(np.linalg.norm(a @ x - b) / max(1.0, np.linalg.norm(b)))
    return ProjectedPair(vec=x[: 2 * n_k], scalar=x[2 * n_k :], residual=residual)


def project_acoustic(tables: ElementTables, params: ModelParams, q_fn, v_fn,
                     tau: float | None = None) -> ProjectedPair:
    """Flux-matching projection of an exact (flux, scalar) acoustic pair."""
    return _project_pair(tables, params.tau_a if tau is None else tau, q_fn, v_fn)


@dataclass(frozen=True)
class ProjectedElastic:
    sigma: np.ndarray    # (2, 2, n_scalar): [row, col, coefficient]
    u: np.ndarray        # (2, n_scalar)
    residual: float


def project_elastic(tables: ElementTables, params: ModelParams, sigma_fn, u_fn,
                    tau: float | None = None) -> ProjectedElastic:
    """Row-wise flux-matching projection of an exact (stress, displacement) pair.

    Each stress row together with the matching displacement component forms
    one (vector, scalar) pair; the projected stress lands in the full
    tensor-valued polynomial space.
    """
    tau_v = params.tau_e if tau is None else tau
    n_k = tables.n_scalar
    sigma_c = np.zeros((2, 2, n_k), dtype=complex)
    u_c = np.zeros((2, n_k), dtype=complex)
    worst = 0.0
    for r in range(2):
        pair = _project_pair(
            tables,
            tau_v,
            lambda pts, r=r: np.asarray(sigma_fn(pts), dtype=complex)[:, r, :],
            lambda pts, r=r: np.asarray(u_fn(pts), dtype=complex)[:, r],
        )
        sigma_c[r, 0] = pair.vec[:n_k]
        sigma_c[r, 1] = pair.vec[n_k:]
        u_c[r] = pair.scalar
        worst = max(worst, pair.residual)
    return ProjectedElastic(sigma=sigma_c, u=u_c, residual=worst)


def compute_theta(assembler, solution, fields) -> float:
    """Distance between the discrete solution and the projected exact one.

    Sums, over all elements and all fields, the squared L2 defects between
    the flux-matching projections of the exact fields and the computed
    coefficients; the skew part enters through the Frobenius norm of its
    matrix form (a factor 2 on the generator).  ``fields`` provides the
    exact callables: sigma (n,2,2), u (n,2), gamma_p (n,), q (n,2), v (n,).
    """
    params = assembler.params
    mesh = assembler.mesh
    total = 0.0
    for elem in range(mesh.n_elements):
        tab = assembler.tables(elem)
        w, sv = tab.weights, tab.scalar
        n_k = tab.n_scalar
        parts = solution.parts
        if tab.domain == "E":
            pe = project_elastic(tab, params, fields.sigma, fields.u)
            pg = project_volume_scalar(tab, fields.gamma_p)
            sig_h = np.einsum("j,jqrc->qrc", parts["sigma"][elem], tab.stress_vals)
            sig_p = np.einsum("rcj,jq->qrc", pe.sigma, sv)
            total += float(np.einsum("q,qrc->", w, np.abs(sig_p - sig_h) ** 2).real)
            uc = parts["u"][elem]
            u_h = np.stack([sv.T @ uc[:n_k], sv.T @ uc[n_k:]], axis=1)
            u_p = np.einsum("rj,jq->qr", pe.u, sv)
            total += float(np.einsum("q,qr->", w, np.abs(u_p - u_h) ** 2).real)
            g_diff = sv.T @ (pg - parts["gamma"][elem])
            total += 2.0 * float(np.sum(w * np.abs(g_diff) ** 2))
        else:
            pa = project_acoustic(tab, params, fields.q, fields.v)
            qc = parts["q"][elem]
            q_h = np.stack([sv.T @ qc[:n_k], sv.T @ qc[n_k:]], axis=1)
            q_p = np.stack([sv.T @ pa.vec[:n_k], sv.T @ pa.vec[n_k:]], axis=1)
            total += float(np.einsum("q,qr->", w, np.abs(q_p - q_h) ** 2).real)
            v_diff = sv.T @ (pa.scalar - parts["v"][elem])
            total += float(np.sum(w * np.abs(v_diff) ** 2))
    return float(np.sqrt(total))
