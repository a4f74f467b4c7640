"""Element spaces for the stress unknown: matrix polynomials plus the
divergence-free curl-bubble enrichment.

The stress space on a triangle K is the full matrix polynomial space of
degree k plus k+1 enrichment members with zero row divergence and zero
normal trace on all faces: the enrichment never touches the numerical flux.

With x = v0 + J xi, the members are the Piola images J^-T S_c J^T / det J
of the reference members S_c = curl_xi(b grad_xi p_c) (row-wise curls),
p_c = xi1^c xi2^(k-c), b = xi1 xi2 (1 - xi1 - xi2) the reference bubble,
and their row divergences are J^-T div_xi S_c / det J.  The map takes the
reference enrichment onto the triangle's, so no change of basis is needed.
The reference members are built once per degree from exact integer
coefficients, so their stored divergences are exactly zero.  A triangle's
members are scaled to unit L2 norm; ``StressTables`` does this for a batch
of triangles at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .quadbasis import (ReferenceBasis, build_reference_basis, monomial_exponents,
                        monomial_values, scalar_space_dim)


def stress_space_dim(k: int) -> int:
    """dim(P_k matrix space) + number of enrichment members."""
    return 2 * (k + 1) * (k + 2) + (k + 1)


@lru_cache(maxsize=None)
def reference_members(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The reference members S_c = curl_xi(b grad_xi xi1^c xi2^(k-c)),
    b = xi1 xi2 (1 - xi1 - xi2), and their row divergences, as coefficients
    over ``monomial_exponents(k + 1)``: (n_mono, k+1, 2, 2) and
    (n_mono, k+1, 2).  Every coefficient is an integer."""
    exps = monomial_exponents(k + 2)
    index = {(int(i), int(j)): m for m, (i, j) in enumerate(exps)}
    n = len(exps)
    der = np.zeros((2, n, n))  # d/dxi1 and d/dxi2 on coefficient vectors
    for m, (i, j) in enumerate(index):
        if i:
            der[0, index[(i - 1, j)], m] = i
        if j:
            der[1, index[(i, j - 1)], m] = j
    w = np.zeros((n, k + 1, 2))  # w[:, c, r] = b d/dxi_r xi1^c xi2^(k-c)
    for c in range(k + 1):
        for r, (factor, i, j) in enumerate(((c, c - 1, k - c), (k - c, c, k - c - 1))):
            for (bi, bj), v in (((1, 1), 1), ((2, 1), -1), ((1, 2), -1)):
                if factor:
                    w[index[(i + bi, j + bj)], c, r] += factor * v
    flat = w.reshape(n, -1)
    members = np.stack([-(der[1] @ flat), der[0] @ flat], axis=-1).reshape(n, k + 1, 2, 2)
    divs = np.einsum("amn,ncra->mcr", der, members)
    keep = scalar_space_dim(k + 1)
    return members[:keep], divs[:keep]


class StressTables:
    """The stress basis of a batch of triangles x = v0 + J xi, evaluated at
    reference points xi (nb, n, 2).

    Member layout as in ``StressBasis``.  ``coef`` (nb, k+1) scales each
    mapped reference member to unit L2 norm on its triangle.  With
    ``check_rank`` construction checks the rank of the basis on the
    reference triangle.  ``enrichment`` (nb, k+1, nq, 2, 2) holds the
    enrichment members at the reference quadrature points ``points``;
    ``eval`` gives every member anywhere.
    """

    def __init__(self, ref: ReferenceBasis, jac: np.ndarray, check_rank: bool = True):
        k, nb = ref.k, len(jac)
        self.ref, self.jac = ref, jac
        self.inv = np.linalg.inv(jac)
        self.det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        self.dim_tensor = 4 * ref.n_scalar
        self.dim = self.dim_tensor + k + 1
        self.points = np.broadcast_to(ref.quad.points, (nb,) + ref.quad.points.shape)
        weights = ref.quad.weights * np.abs(self.det)[:, None]

        terms = self._mapped(self.points, np.ones((nb, k + 1)))
        # einsum sums in another order when the triangle axis has length one;
        # a lone triangle goes in twice, so that its norms are bit for bit
        # those it gets in any batch, whatever the block size
        twice = slice(None) if nb > 1 else [0, 0]
        self.coef = 1.0 / np.sqrt(np.einsum("eq,eaqrs->ea", weights[twice], terms[twice]**2))[:nb]
        self.enrichment = terms * self.coef[:, :, None, None, None]

        if check_rank:
            _check_reference_rank(k)

    def _mapped(self, xi: np.ndarray, coef: np.ndarray, div: bool = False) -> np.ndarray:
        """The mapped reference members times ``coef`` (nb, k+1), as
        (nb, k+1, n, 2, 2), or their row divergences (nb, k+1, n, 2)."""
        members = reference_members(self.ref.k)[int(div)]
        inv_t = self.inv.transpose(0, 2, 1)[:, None, None] / self.det[:, None, None, None, None]
        if div:
            mapped = (inv_t @ members[..., None])[..., 0]
        else:
            mapped = inv_t @ members @ self.jac.transpose(0, 2, 1)[:, None, None]
        nb, n = xi.shape[:2]
        mapped *= coef.reshape((nb, 1, -1) + (1,) * (members.ndim - 2))
        mono = monomial_values(monomial_exponents(self.ref.k + 1), xi.reshape(-1, 2))
        vals = mono.reshape(-1, nb, n).transpose(1, 2, 0) @ mapped.reshape(nb, len(mono), -1)
        return np.moveaxis(vals.reshape((nb, n) + members.shape[1:]), 1, 2)

    def eval(self, xi: np.ndarray, div: bool = False) -> np.ndarray:
        """Basis values (nb, dim, n, 2, 2), or with ``div`` the row-wise
        divergences (nb, dim, n, 2): d/dx of column 0 plus d/dy of column 1."""
        nb, n = xi.shape[:2]
        if div:
            grads = self.ref.eval_grads(xi.reshape(-1, 2)).reshape(-1, nb, n, 2)
            grads = grads.transpose(1, 0, 2, 3) @ self.inv[:, None]
            columns = grads[..., 0], grads[..., 1]
        else:
            vals = self.ref.eval_values(xi.reshape(-1, 2)).reshape(-1, nb, n, 1)
            columns = np.moveaxis(vals * np.eye(2)[:, None, None, None], 2, 1)
        out = np.zeros((nb, self.dim, n, 2) + ((2,) if not div else ()))
        n_s = self.ref.n_scalar
        for slot in range(4):  # slot (r, c) holds column c of row r
            out[:, slot * n_s : (slot + 1) * n_s, :, slot // 2] = columns[slot % 2]
        out[:, self.dim_tensor :] = self._mapped(xi, self.coef, div)
        return out


@lru_cache(maxsize=None)
def _check_reference_rank(k: int) -> None:
    """Raise unless the degree-k basis has full rank on the reference triangle.

    sigma -> J^-T sigma J^T / det J maps the P_k matrices onto themselves
    and the reference enrichment onto a triangle's, so every triangle's
    space has the reference rank, and this check runs once per degree; how
    well a thin triangle's local system is conditioned is left to the
    condition estimate of that system.
    """
    ref = build_reference_basis(k)
    tab = StressTables(ref, np.eye(2)[None], check_rank=False)
    flat = tab.eval(tab.points)[0].reshape(tab.dim, -1)
    gram = (flat * np.repeat(ref.quad.weights, 4)) @ flat.T
    scale = np.sqrt(np.diag(gram))
    eigmin = np.linalg.eigvalsh(gram / np.outer(scale, scale))[0]
    if not eigmin >= 1e-10:
        raise RuntimeError(f"degree {k}: stress basis rank deficient "
                           f"(min Gram eigenvalue {eigmin:.3e})")


class StressBasis:
    """Matrix P_k basis plus curl-bubble enrichment on one triangle.

    Index layout: the first 4*dim(P_k) members put scalar basis function i
    into matrix slot (r, c), slot-major in the order (0,0), (0,1), (1,0),
    (1,1); the final k+1 members are the unit-L2-normalized enrichment.
    A ``StressTables`` of one triangle, evaluated at physical points.
    """

    def __init__(self, k: int, triangle, ref: ReferenceBasis, check_rank: bool = True):
        if ref.k != k:
            raise ValueError("reference basis degree mismatch")
        self.k = k
        self.triangle = np.asarray(triangle, dtype=float)
        self.v0 = self.triangle[0]
        jac = (self.triangle[1:] - self.v0).T[None]
        self.tables = StressTables(ref, jac, check_rank=check_rank)
        self.dim_tensor = self.tables.dim_tensor
        self.dim = self.tables.dim

    def _xi(self, points_phys) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points_phys, dtype=float))
        return ((pts - self.v0) @ self.tables.inv[0].T)[None]

    def eval(self, points_phys) -> np.ndarray:
        return self.tables.eval(self._xi(points_phys))[0]

    def eval_div(self, points_phys) -> np.ndarray:
        """Row-wise divergence (d/dx of column 0 plus d/dy of column 1)."""
        return self.tables.eval(self._xi(points_phys), div=True)[0]

    def eval_normal(self, points_phys, normal) -> np.ndarray:
        """Matrix-normal trace: values contracted with a unit normal."""
        vals = self.eval(points_phys)
        return np.einsum("nmrc,c->nmr", vals, np.asarray(normal, dtype=float))


def build_stress_basis(k: int, triangle, ref: ReferenceBasis,
                       check_rank: bool = True) -> StressBasis:
    return StressBasis(k, triangle, ref, check_rank=check_rank)
