"""Projections of the exact fields and the projection distance theta.

Volume scalar projections are plain L2 projections onto the orthonormal
scalar basis, so their coefficients are the moments over |det J|.  The
flux-matching projections mimic the structure of the discretization: the
pair (vector field, scalar field) is fixed by L2 moments against polynomials
one degree down, which give its coefficients below degree k, plus matching of
the penalized normal flux on every face, which fixes the 3 (k+1) top-degree
ones.  That reproduces degree-k polynomial pairs exactly and its defect
against the discrete solution is the quantity whose decay the convergence
study tracks.  Face projections are no separate path: a face rule's
``moments`` are the coefficients of the face-wise L2 projection.

The volume projections work on blocks of same-domain elements
(``BlockTables``): the exact fields are sampled once per block, where the
block's tables are built (``Assembler.map_blocks``, two blocks at a time on
two threads), and every element's face system is one slice of a single
batched solve.  The
one-element entry points ``project_acoustic`` and ``project_elastic`` take
the blocks of one that ``Assembler.tables`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local_solver import BlockTables, ModelParams


def _project_volume_scalars(blk: BlockTables, vals: np.ndarray) -> np.ndarray:
    """Element-wise L2 projections of volume values (nb, nq): moments / |det J|."""
    mom = (blk.scalar * blk.weights[:, None, :]) @ vals[:, :, None]
    return mom[:, :, 0] / blk.detj[:, None]


def _project_pairs(blk: BlockTables, tau: float, vec_fn, scalar_fn):
    """Flux-matching projections of m (vector, scalar) pairs on every element.

    ``vec_fn`` maps (n, 2) points to (n, m, 2) values and ``scalar_fn`` to
    (n, m); pair j is (vec[:, j], scalar[:, j]).  Both are sampled once on
    the block.  The pairs share one face system per element, for the 3 (k+1)
    top-degree coefficients, so all of them are right-hand sides of one
    batched solve.  Returns the vector coefficients (nb, m, 2, n_scalar),
    the scalar ones (nb, m, n_scalar) and the worst relative residual of the
    defining equations over the pairs of each element (nb,).
    """
    vec, face_vec = blk.sample_volume(vec_fn), blk.faces.sample(vec_fn)
    scalar, face_scalar = blk.sample_volume(scalar_fn), blk.faces.sample(scalar_fn)
    nb, n_k = blk.scalar.shape[:2]
    kp1 = blk.k + 1
    n_km1 = n_k - kp1
    m = scalar.shape[-1]

    # every operator here is real, so it acts on complex values (..., m)
    # viewed as real ones (..., 2 m).  The moments of the components (x, y,
    # scalar) against degree k-1, the leading block of the graded orthonormal
    # basis, fix their coefficients there as the moments over |det J|
    wsv = (blk.scalar[:, :n_km1] * blk.weights[:, None, :])[:, None]
    vals = np.stack([vec[..., 0], vec[..., 1], scalar], axis=1)  # (nb, 3, nq, m)
    low_b = (wsv @ vals.view(float)).view(complex)
    x = np.zeros((nb, 3, n_k, m), dtype=complex)
    x[:, :, :n_km1] = low_b / blk.detj[:, None, None, None]

    # flux matching on each face against the full face space
    fm_t = blk.scalar_moments.transpose(0, 1, 3, 2)  # (nb, 3, k+1, n_k)
    nrm = blk.normals[:, :, None, None, :]
    face_a = np.stack([(coef * fm_t).reshape(nb, -1, n_k)
                       for coef in (nrm[..., 0], nrm[..., 1], -float(tau))], axis=2)
    flux = (face_vec @ blk.normals[:, :, None, :, None])[..., 0] - tau * face_scalar
    # the moments of pair j are the j-th block of k+1 of each face
    face_b = blk.faces.moments(flux).reshape(nb, 3, m, kp1).transpose(0, 1, 3, 2)
    face_b = face_b.reshape(nb, 3 * kp1, m)
    flat_a = face_a.reshape(nb, 3 * kp1, 3 * n_k)
    rhs = face_b - (flat_a @ x.reshape(nb, -1, m).view(float)).view(complex)  # top still 0
    top = np.linalg.solve(face_a[..., n_km1:].reshape(nb, 3 * kp1, -1), rhs.view(float))
    x[:, :, n_km1:] = top.view(complex).reshape(nb, 3, kp1, m)

    # every defining equation, the moments by quadrature from the values at
    # the points, relative to the data; a zero right-hand side has the exact
    # solution zero
    low = wsv @ (blk.scalar.transpose(0, 2, 1)[:, None] @ x.view(float))
    face = flat_a @ x.reshape(nb, -1, m).view(float)
    b = np.concatenate([low_b.reshape(nb, -1, m), face_b], axis=1)
    r = np.concatenate([low.view(complex).reshape(nb, -1, m), face.view(complex)], axis=1)
    res, size = np.linalg.norm(r - b, axis=1), np.linalg.norm(b, axis=1)
    res = np.divide(res, size, out=np.where(res > 0, np.inf, 0.0), where=size > 0)
    coef = x.transpose(0, 3, 1, 2)  # (nb, m, 3, n_k)
    return coef[:, :, :2], coef[:, :, 2], res.max(axis=1)


def _one_pair(vec_fn, scalar_fn):
    """A (vector, scalar) pair of callables in the m = 1 layout of
    ``_project_pairs``."""
    return (lambda pts: np.asarray(vec_fn(pts))[:, None, :],
            lambda pts: np.asarray(scalar_fn(pts))[:, None])


@dataclass(frozen=True)
class ProjectedPair:
    """Projection of one (vector, scalar) pair on one element.

    ``vec`` stacks the x and y coefficient blocks over the element scalar
    basis; ``residual`` is the relative residual of the defining equations,
    the moments taken by quadrature.  It sits at rounding level when the
    scalar basis is orthonormal and the face system solvable, which the
    flux-matching construction guarantees for positive tau.
    """

    vec: np.ndarray      # (2 * n_scalar,)
    scalar: np.ndarray   # (n_scalar,)
    residual: float


def project_acoustic(tables: BlockTables, params: ModelParams, q_fn,
                     v_fn) -> ProjectedPair:
    """Flux-matching projection of an exact (flux, scalar) acoustic pair."""
    vec, sc, res = _project_pairs(tables, params.tau_a, *_one_pair(q_fn, v_fn))
    return ProjectedPair(vec=vec[0, 0].reshape(-1), scalar=sc[0, 0],
                         residual=float(res[0]))


@dataclass(frozen=True)
class ProjectedElastic:
    sigma: np.ndarray    # (2, 2, n_scalar): [row, col, coefficient]
    u: np.ndarray        # (2, n_scalar)
    residual: float


def project_elastic(tables: BlockTables, params: ModelParams, sigma_fn,
                    u_fn) -> ProjectedElastic:
    """Row-wise flux-matching projection of an exact (stress, displacement) pair.

    Each stress row together with the matching displacement component forms
    one (vector, scalar) pair; the projected stress lands in the full
    tensor-valued polynomial space.
    """
    sig, u, res = _project_pairs(tables, params.tau_e, sigma_fn, u_fn)
    return ProjectedElastic(sigma=sig[0], u=u[0], residual=float(res[0]))


def compute_theta(assembler, solution, fields) -> float:
    """Distance between the discrete solution and the projected exact one.

    Sums, over all elements and all fields, the squared L2 defects between
    the flux-matching projections of the exact fields and the computed
    coefficients; the skew part enters through the Frobenius norm of its
    matrix form (a factor 2 on the generator); all but the stress, whose
    enrichment is not orthonormal, from their coefficients.  ``fields`` is
    the ``ExactFields`` of the problem; it must cover every domain of the mesh.
    The blocks are walked on two threads (``Assembler.map_blocks``); each
    gives its terms, which are summed here one by one in block order, so the
    result has the bits of a serial walk.
    """
    fields.check_covers(assembler.mesh)
    params = assembler.params
    parts = solution.parts

    def block_terms(blk) -> list[float]:
        nb, n_k = blk.scalar.shape[:2]
        rows = solution.row[blk.elems]
        if blk.domain == "E":
            sig_p, u_p, _ = _project_pairs(blk, params.tau_e, fields.sigma, fields.u)
            g_p = _project_volume_scalars(blk, blk.sample_volume(fields.gamma_p))
            sig_h = blk.stress_at_points(parts["sigma"][rows])
            return [blk.l2sq(blk.at_points(sig_p) - sig_h),
                    blk.coef_l2sq(u_p - parts["u"][rows].reshape(nb, 2, n_k)),
                    2.0 * blk.coef_l2sq(g_p - parts["gamma"][rows])]
        q_p, v_p, _ = _project_pairs(blk, params.tau_a, *_one_pair(fields.q, fields.v))
        return [blk.coef_l2sq(q_p[:, 0] - parts["q"][rows].reshape(nb, 2, n_k)),
                blk.coef_l2sq(v_p[:, 0] - parts["v"][rows])]

    total = 0.0
    for terms in assembler.map_blocks(block_terms):
        for term in terms:
            total += term
    return float(np.sqrt(total))
