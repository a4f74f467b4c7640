"""Quadrature rules and polynomial bases on the reference triangle.

The reference triangle is T = {(x, y) : x >= 0, y >= 0, x + y <= 1} (area
1/2); reference edges are parametrized over [0, 1].  Triangle rules are
Duffy-type tensor products of a Gauss-Legendre rule and a Gauss-Jacobi rule
whose weight absorbs the collapsed-coordinate Jacobian, so exactness for the
requested total degree holds by construction and all weights are positive.
Scalar element bases are graded monomials orthonormalized with a two-pass
modified Gram-Schmidt under the quadrature inner product; edge bases are
shifted Legendre polynomials, orthonormal on the unit interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

MAX_EXACT_DEGREE = 20
MAX_BASIS_DEGREE = 6


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights, exact through total degree ``exact_degree``."""

    points: np.ndarray   # (n, 2) triangle coords, or (n,) for edge rules
    weights: np.ndarray  # (n,)
    exact_degree: int


def _check_degree(exact_degree: int) -> None:
    if not 1 <= exact_degree <= MAX_EXACT_DEGREE:
        raise ValueError(
            f"quadrature exactness degree must be in [1, {MAX_EXACT_DEGREE}], got {exact_degree}"
        )


def make_quadrature(exact_degree: int) -> QuadratureRule:
    """Rule on the reference triangle exact for polynomials of total degree
    ``exact_degree``.

    Collapsed coordinates x = a(1-b), y = b turn the triangle integral into
    int_0^1 int_0^1 f(a(1-b), b) (1-b) da db; Gauss-Legendre in a and
    Gauss-Jacobi (weight 1-b) in b integrate that exactly with
    ceil((d+1)/2) points per direction.
    """
    _check_degree(exact_degree)
    n = (exact_degree + 2) // 2
    xa, wa = roots_legendre(n)
    a = 0.5 * (xa + 1.0)
    wa = 0.5 * wa
    xb, wb = roots_jacobi(n, 1.0, 0.0)
    b = 0.5 * (xb + 1.0)
    wb = 0.25 * wb  # accounts for both the affine map and the (1-b) weight
    aa, bb = np.meshgrid(a, b, indexing="ij")
    points = np.column_stack([(aa * (1.0 - bb)).ravel(), bb.ravel()])
    weights = np.outer(wa, wb).ravel()
    return QuadratureRule(points, weights, exact_degree)


def make_edge_quadrature(exact_degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] with ceil((d+1)/2) points."""
    _check_degree(exact_degree)
    n = (exact_degree + 2) // 2
    x, w = roots_legendre(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, exact_degree)


def monomial_exponents(k: int) -> np.ndarray:
    """Graded exponent list for P_k; every prefix spans the matching P_d."""
    return np.array([(d - b, b) for d in range(k + 1) for b in range(d + 1)], dtype=int)


def scalar_space_dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def monomial_values(exponents: np.ndarray, points: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    return np.stack([x**a * y**b for a, b in exponents])


def _monomial_grads(exponents: np.ndarray, points: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    out = np.zeros((len(exponents), len(points), 2))
    for i, (a, b) in enumerate(exponents):
        if a > 0:
            out[i, :, 0] = a * x ** (a - 1) * y**b
        if b > 0:
            out[i, :, 1] = b * x**a * y ** (b - 1)
    return out


def _orthonormalize(values: np.ndarray, weights: np.ndarray):
    """Two-pass modified Gram-Schmidt under the quadrature inner product.

    Returns the coefficient matrix (column j expresses basis function j in
    the input functions) and the orthonormalized value table.
    """
    n = values.shape[0]
    coeffs = np.eye(n)
    q = values.astype(float).copy()
    for j in range(n):
        for _ in range(2):  # reorthogonalization keeps the Gram at roundoff level
            for i in range(j):
                r = float(np.sum(weights * q[j] * q[i]))
                q[j] -= r * q[i]
                coeffs[:, j] -= r * coeffs[:, i]
        nrm = math.sqrt(float(np.sum(weights * q[j] * q[j])))
        if nrm < 1e-14:
            raise ValueError("monomial family numerically dependent under quadrature")
        q[j] /= nrm
        coeffs[:, j] /= nrm
    return coeffs, q


def edge_basis_values(k: int, t) -> np.ndarray:
    """Shifted Legendre basis of P_k, orthonormal in L2(0, 1), at points t."""
    t = np.asarray(t, dtype=float)
    out = np.empty((k + 1, t.size))
    for i in range(k + 1):
        c = np.zeros(i + 1)
        c[i] = 1.0
        out[i] = np.polynomial.legendre.legval(2.0 * t - 1.0, c) * math.sqrt(2 * i + 1)
    return out


@functools.lru_cache(maxsize=None)
def edge_rule(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [0, 1] exact through degree 2k+6, like the
    triangle rules of ``build_reference_basis``, and the edge basis of degree k there."""
    rule = make_edge_quadrature(2 * k + 6)
    return rule.points, rule.weights, edge_basis_values(k, rule.points)


@dataclass
class ReferenceBasis:
    """Orthonormal scalar basis of P_k on the reference triangle.

    ``coeffs`` column j holds basis function j in the graded monomial basis,
    so the basis can be evaluated at arbitrary points; ``values``/``grads``
    are pretabulated at the nodes of ``quad``.  Row 2 e + r of ``edge_values``
    is the basis at the nodes of ``edge_rule`` on reference edge e (from
    corner e to corner e+1 of (0, 0), (1, 0), (0, 1)), run along it (r = 0)
    or against it (r = 1); ``edge_moments`` are its moments against the
    edge basis.
    """

    k: int
    quad: QuadratureRule
    exponents: np.ndarray
    coeffs: np.ndarray
    values: np.ndarray
    grads: np.ndarray
    edge_values: np.ndarray   # (6, n_scalar, n_edge)
    edge_moments: np.ndarray  # (6, n_scalar, k+1)

    @property
    def n_scalar(self) -> int:
        return self.coeffs.shape[1]

    def eval_values(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.coeffs.T @ monomial_values(self.exponents, pts)

    def eval_grads(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mono = _monomial_grads(self.exponents, pts)
        return np.einsum("jn,jmd->nmd", self.coeffs, mono)


def build_reference_basis(k: int) -> ReferenceBasis:
    """Scalar basis of degree k with tables at the rule of exactness 2k+6.

    That degree covers every bilinear form assembled from products of the
    discrete spaces (including the degree k+1 enrichment); face rules use
    the same degree.
    """
    if not 1 <= k <= MAX_BASIS_DEGREE:
        raise ValueError(f"polynomial degree must be in [1, {MAX_BASIS_DEGREE}], got {k}")
    quad = make_quadrature(2 * k + 6)
    exponents = monomial_exponents(k)
    coeffs, values = _orthonormalize(monomial_values(exponents, quad.points), quad.weights)
    grads = np.einsum("jn,jmd->nmd", coeffs, _monomial_grads(exponents, quad.points))
    t, w, edge = edge_rule(k)
    start = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[:, None]
    stop = np.roll(start, -1, axis=0)
    xi = np.stack([start + t[:, None] * (stop - start), stop + t[:, None] * (start - stop)], axis=1)
    on_edges = (coeffs.T @ monomial_values(exponents, xi.reshape(-1, 2))).reshape(-1, 6, len(t))
    on_edges = on_edges.transpose(1, 0, 2)
    return ReferenceBasis(k=k, quad=quad, exponents=exponents, coeffs=coeffs, values=values,
                          grads=grads, edge_values=on_edges, edge_moments=on_edges @ (w * edge).T)


def map_to_physical(basis: ReferenceBasis, triangle) -> QuadratureRule:
    """The reference rule of ``basis`` mapped onto a physical triangle:
    nodes through the affine map, weights scaled by |det J|."""
    tri = np.asarray(triangle, dtype=float)
    jac = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    scale = float(np.max(np.linalg.norm(tri - tri.mean(axis=0), axis=1)))
    if abs(det) <= 1e-14 * max(scale * scale, 1e-300):
        raise ValueError("degenerate triangle: |det J| below tolerance")
    return QuadratureRule(tri[0] + basis.quad.points @ jac.T,
                          basis.quad.weights * abs(det), basis.quad.exact_degree)
