"""Element spaces for the stress unknown: the cubic bubble and the
divergence-free curl enrichment.

A 2D skew matrix field is M(p) = [[0, p], [-p, 0]] for a scalar polynomial
p; its row-wise matrix curl equals grad p.  The stress space on a triangle K
is the full matrix polynomial space of degree k plus the k+1 enrichment
members curl(b_K * grad p) with p ranging over the exact-degree-k monomials,
where b_K is the product of the three barycentric coordinates.  Because b_K
vanishes on the element boundary, every enrichment member is row-wise
divergence free and has zero matrix-normal trace on all three faces,
so the enrichment never touches the numerical flux.

The enrichment is built as explicit 2D polynomial coefficient arrays in
scaled local coordinates (x - v0)/h; the stored divergence comes from
coefficient-level differentiation, so its ~1e-15 magnitude is a computed
cancellation, not an assumption.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quadbasis import ReferenceBasis, map_to_physical, scalar_space_dim


def spin_space_dim(k: int) -> int:
    return scalar_space_dim(k)


def stress_space_dim(k: int) -> int:
    """dim(P_k matrix space) + number of enrichment members."""
    return 2 * (k + 1) * (k + 2) + (k + 1)


def barycentric_coefficients(triangle) -> np.ndarray:
    """Row i holds (c0, cx, cy) of the i-th barycentric coordinate."""
    tri = np.asarray(triangle, dtype=float)
    vandermonde = np.column_stack([np.ones(3), tri[:, 0], tri[:, 1]])
    return np.linalg.inv(vandermonde).T


def barycentric_coords(triangle, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coef = barycentric_coefficients(triangle)
    ones = np.column_stack([np.ones(len(pts)), pts])
    return ones @ coef.T


def bubble_matrix_2d(triangle, points):
    """Product of the three barycentric coordinates, 1/27 at the barycenter,
    zero on the boundary."""
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    lam = barycentric_coords(triangle, pts)
    values = np.prod(lam, axis=1)
    return float(values[0]) if squeeze else values


def _polyder_x(c: np.ndarray) -> np.ndarray:
    return npoly.polyder(c, axis=0) if c.shape[0] > 1 else np.zeros((1, c.shape[1]))


def _polyder_y(c: np.ndarray) -> np.ndarray:
    return npoly.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros((c.shape[0], 1))


def _polymul2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two 2D coefficient arrays (c[i, j] <-> x^i y^j).

    Rows padded to the product's width turn the 2D product into one 1D
    convolution of the flattened arrays, with no carry between rows.
    """
    rows, cols = a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1
    pa = np.zeros((a.shape[0], cols))
    pa[:, : a.shape[1]] = a
    pb = np.zeros((b.shape[0], cols))
    pb[:, : b.shape[1]] = b
    return np.convolve(pa.ravel(), pb.ravel())[: rows * cols].reshape(rows, cols)


class StressBasis:
    """Matrix P_k basis plus curl-bubble enrichment on one triangle.

    Index layout: the first 4*dim(P_k) members put scalar basis function i
    into matrix slot (r, c), slot-major in the order (0,0), (0,1), (1,0),
    (1,1); the final k+1 members are the unit-L2-normalized enrichment.
    """

    _SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self, k: int, triangle, ref: ReferenceBasis, check_rank: bool = True):
        if ref.k != k:
            raise ValueError("reference basis degree mismatch")
        self.k = k
        self.triangle = np.asarray(triangle, dtype=float)
        self.ref = ref
        self.v0 = self.triangle[0]
        edges = self.triangle[(1, 2, 0), :] - self.triangle
        self.h = float(np.max(np.linalg.norm(edges, axis=1)))
        jac = np.column_stack([self.triangle[1] - self.v0, self.triangle[2] - self.v0])
        self.inv_jacobian = np.linalg.inv(jac)
        self.n_scalar = ref.n_scalar
        self.dim_tensor = 4 * self.n_scalar
        self.dim_bubble = k + 1
        self.dim = self.dim_tensor + self.dim_bubble
        self._build_bubbles(check_rank)

    # -- construction -------------------------------------------------

    def _build_bubbles(self, check_rank: bool) -> None:
        h = self.h
        bary = barycentric_coefficients(self.triangle)
        # compose each barycentric with x = v0 + h*u: affine coefficients in u
        lam_u = []
        for c0, cx, cy in bary:
            arr = np.zeros((2, 2))
            arr[0, 0] = c0 + cx * self.v0[0] + cy * self.v0[1]
            arr[1, 0] = cx * h
            arr[0, 1] = cy * h
            lam_u.append(arr)
        bubble = _polymul2d(_polymul2d(lam_u[0], lam_u[1]), lam_u[2])

        phys = map_to_physical(self.ref, self.triangle)
        uq = (phys.points - self.v0) / h

        self._bubble_comp: list[tuple[np.ndarray, ...]] = []
        self._bubble_div: list[tuple[np.ndarray, np.ndarray]] = []
        for a in range(self.k + 1):
            b = self.k - a
            p = np.zeros((a + 1, b + 1))
            p[a, b] = 1.0
            # physical derivatives carry 1/h per order in the u frame
            px = _polyder_x(p) / h
            py = _polyder_y(p) / h
            w1 = _polymul2d(bubble, px)
            w2 = _polymul2d(bubble, py)
            comp = (
                -_polyder_y(w1) / h,  # (0,0)
                _polyder_x(w1) / h,   # (0,1)
                -_polyder_y(w2) / h,  # (1,0)
                _polyder_x(w2) / h,   # (1,1)
            )
            div = (
                _polyder_x(comp[0]) / h + _polyder_y(comp[1]) / h,
                _polyder_x(comp[2]) / h + _polyder_y(comp[3]) / h,
            )
            vals = np.stack(
                [npoly.polyval2d(uq[:, 0], uq[:, 1], c) for c in comp]
            )
            norm = float(np.sqrt(np.sum(phys.weights * np.sum(vals**2, axis=0))))
            if norm < 1e-14:
                raise RuntimeError("enrichment member numerically zero")
            self._bubble_comp.append(tuple(c / norm for c in comp))
            self._bubble_div.append(tuple(d / norm for d in div))

        if check_rank:
            vals = self.eval(phys.points)
            flat = vals.reshape(self.dim, -1)
            gram = (flat * np.repeat(phys.weights, 4)) @ flat.T
            scale = np.sqrt(np.diag(gram))
            gram = gram / np.outer(scale, scale)
            eigmin = float(np.linalg.eigvalsh(gram)[0])
            if eigmin < 1e-10:
                raise RuntimeError(
                    f"stress basis rank deficient (min Gram eigenvalue {eigmin:.3e})"
                )

    # -- evaluation ----------------------------------------------------

    def _scalar_values(self, points_phys: np.ndarray) -> np.ndarray:
        return self.ref.eval_values((points_phys - self.v0) @ self.inv_jacobian.T)

    def _scalar_grads(self, points_phys: np.ndarray) -> np.ndarray:
        g = self.ref.eval_grads((points_phys - self.v0) @ self.inv_jacobian.T)
        return np.einsum("dc,nmd->nmc", self.inv_jacobian, g)

    def _bubble_values(self, points_phys: np.ndarray) -> np.ndarray:
        u = (points_phys - self.v0) / self.h
        out = np.empty((self.dim_bubble, len(u), 2, 2))
        for j, comp in enumerate(self._bubble_comp):
            for slot, (r, c) in enumerate(self._SLOTS):
                out[j, :, r, c] = npoly.polyval2d(u[:, 0], u[:, 1], comp[slot])
        return out

    def eval(self, points_phys) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points_phys, dtype=float))
        sv = self._scalar_values(pts)
        out = np.zeros((self.dim, sv.shape[1], 2, 2))
        n = self.n_scalar
        for slot, (r, c) in enumerate(self._SLOTS):
            out[slot * n : (slot + 1) * n, :, r, c] = sv
        out[self.dim_tensor :] = self._bubble_values(pts)
        return out

    def eval_div(self, points_phys) -> np.ndarray:
        """Row-wise divergence (d/dx of column 0 plus d/dy of column 1)."""
        pts = np.atleast_2d(np.asarray(points_phys, dtype=float))
        sg = self._scalar_grads(pts)
        out = np.zeros((self.dim, sg.shape[1], 2))
        n = self.n_scalar
        for slot, (r, c) in enumerate(self._SLOTS):
            out[slot * n : (slot + 1) * n, :, r] = sg[:, :, c]
        u = (pts - self.v0) / self.h
        for j, div in enumerate(self._bubble_div):
            out[self.dim_tensor + j, :, 0] = npoly.polyval2d(u[:, 0], u[:, 1], div[0])
            out[self.dim_tensor + j, :, 1] = npoly.polyval2d(u[:, 0], u[:, 1], div[1])
        return out

    def eval_normal(self, points_phys, normal) -> np.ndarray:
        """Matrix-normal trace: values contracted with a unit normal."""
        vals = self.eval(points_phys)
        return np.einsum("nmrc,c->nmr", vals, np.asarray(normal, dtype=float))


def build_stress_basis(k: int, triangle, ref: ReferenceBasis,
                       check_rank: bool = True) -> StressBasis:
    return StressBasis(k, triangle, ref, check_rank=check_rank)
