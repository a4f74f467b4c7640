"""Element-local systems of the hybridized scheme and their condensation.

Each element couples its volume unknowns x (stress/displacement/spin on
solid elements, flux/pressure-like scalar on fluid ones) to the polynomial
traces t on its three faces: A x = B t + f, with numerical flux moments
C x + D t against the face test space.  Eliminating x leaves the Schur
complement C A^-1 B + D: exactly what the global conservation equations use.

Face trace layout: faces in local-edge order; per face the vector trace
stacks x-modes then y-modes of the orthonormal face basis (scalar traces
use the k+1 modes directly).  Volume ordering is (stress, displacement,
spin) and (flux, scalar).

Everything here is array code over blocks of same-domain elements, with the
element axis first (``BlockTables``, ``BlockLocals``).  The element matrices
depend on the element's shape alone: its Jacobian and the orientation of
its faces.  ``Assembler`` therefore builds and factors them once per
distinct shape of a domain, in batches, keeps only the maps the condensed
route reads, and elements index into them; sources, face rules and boundary
data are always those of the element itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

from .elastic_spaces import StressTables
from .mesh import FaceRule, Mesh, face_rule
from .quadbasis import build_reference_basis


def lame_parameters(young: float, poisson: float) -> tuple[float, float]:
    """First and second Lame parameters from Young's modulus and Poisson ratio."""
    if not -1.0 < poisson < 0.5:
        raise ValueError(f"Poisson ratio {poisson} outside (-1, 1/2)")
    if young <= 0.0:
        raise ValueError("Young's modulus must be positive")
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


_DEFAULT_LAM, _DEFAULT_MU = lame_parameters(1.0, 0.3)


@dataclass(frozen=True)
class ModelParams:
    """Material and scheme parameters shared by both subproblems.

    ``s`` is the complex frequency of the transformed problem.  Every value
    must be finite, and solvability of the discrete system needs
    Re(s*tau) > 0 for both stabilization parameters; both are checked here
    so invalid configurations fail before any assembly happens.
    """

    s: complex = 2.0 - 1.0j
    c: float = 1.0
    rho_e: float = 1.0
    rho_f: float = 1.0
    lam: float = _DEFAULT_LAM
    mu: float = _DEFAULT_MU
    tau_e: float = 1.0
    tau_a: float = 1.0

    def __post_init__(self):
        for name in ("s", "c", "rho_e", "rho_f", "lam", "mu", "tau_e", "tau_a"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu <= 0.0:
            raise ValueError("shear modulus must be positive")
        if self.lam < 0.0:
            raise ValueError("first Lame parameter must be nonnegative")
        for name in ("rho_e", "rho_f", "c"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.tau_e <= 0.0 or self.tau_a <= 0.0:
            raise ValueError("stabilization parameters must be positive")
        if (self.s * self.tau_a).real <= 0.0:
            raise ValueError(
                "well-posedness requires Re(s * tau_A) > 0; "
                f"got s={self.s}, tau_A={self.tau_a}"
            )
        if (self.s * self.tau_e).real <= 0.0:
            raise ValueError(
                "well-posedness requires Re(s * tau_E) > 0; "
                f"got s={self.s}, tau_E={self.tau_e}"
            )

    @classmethod
    def from_young_poisson(cls, young: float = 1.0, poisson: float = 0.3, **kwargs):
        lam, mu = lame_parameters(young, poisson)
        return cls(lam=lam, mu=mu, **kwargs)


def hooke_apply(m, lam: float, mu: float) -> np.ndarray:
    """Plane-strain stiffness: 2*mu*M + lam*tr(M)*I, over trailing 2x2 axes."""
    m = np.asarray(m)
    out = 2.0 * mu * m.copy()
    tr = m[..., 0, 0] + m[..., 1, 1]
    out[..., 0, 0] += lam * tr
    out[..., 1, 1] += lam * tr
    return out


def hooke_inverse_apply(m, lam: float, mu: float) -> np.ndarray:
    """Compliance: M/(2 mu) - lam tr(M) I / (2 mu (2 lam + 2 mu))."""
    m = np.asarray(m)
    out = m / (2.0 * mu)
    coef = lam / (2.0 * mu * (2.0 * lam + 2.0 * mu))
    tr = m[..., 0, 0] + m[..., 1, 1]
    out[..., 0, 0] -= coef * tr
    out[..., 1, 1] -= coef * tr
    return out


class SingularLocalSystem(RuntimeError):
    """Raised when an element's local system is not finite, or its scaled volume
    block D A D too ill-conditioned to solve: its estimated reciprocal 1-norm
    condition number is at most ``RCOND_FLOOR``."""


BLOCK_SIZE = 256  # elements per batch
SHAPE_CHUNK = 64  # element shapes whose local operators are built together
# a solve with D A D can lose about log10(1 / rcond) digits: at 1e-10 the
# polynomial stress of the tests' thinness ladder stays within 2e-9, and
# well-shaped meshes pass at k = 6 (cond 1e8 to 1e9)
RCOND_FLOOR = 1e-10
_SOURCE = {"E": "u", "A": "v"}  # the volume unknowns a domain's source tests


@dataclass
class BlockTables:
    """The tables of a block of same-domain elements, stacked element-first.

    Face arrays carry a local-face axis after the element axis.  ``faces``
    is the ``face_rule`` of ``face_ids``: points (nb, 3, nfq, 2), weights
    (nb, 3, nfq) and basis (nb, 3, k+1, nfq), so both neighbours of a face
    integrate it identically.  Face values are sampled with ``faces.sample``
    and integrated with ``faces.moments`` (component-major trace layout
    (nb, 3, m (k+1)) of m components).  The P_k stress members are
    ``scalar`` in each matrix slot, so only the ``enrichment`` is stored.
    """

    elems: np.ndarray           # (nb,)
    domain: str
    k: int
    h: np.ndarray               # (nb,) element diameters
    points: np.ndarray          # (nb, nq, 2)
    weights: np.ndarray         # (nb, nq)
    scalar: np.ndarray          # (nb, n_scalar, nq), the reference values
    enrichment: np.ndarray | None  # (nb, k+1, nq, 2, 2) enrichment members, solid blocks
    face_ids: np.ndarray        # (nb, 3)
    faces: FaceRule             # the rules of the faces, element-first
    normals: np.ndarray         # (nb, 3, 2) outward
    face_scalar: np.ndarray     # (nb, 3, n_scalar, nfq) scalar basis on the faces
    scalar_moments: np.ndarray  # (nb, 3, n_scalar, k+1)
    stress_n: np.ndarray | None  # (nb, 3, n_stress, nfq, 2) normal traces, solid blocks

    def at_points(self, coef: np.ndarray) -> np.ndarray:
        """Values at the volume points of scalar-basis coefficients
        (nb, ..., n_scalar), as (nb, nq, ...)."""
        nb, n_p, nq = self.scalar.shape
        vals = coef.reshape(nb, -1, n_p) @ self.scalar
        return vals.transpose(0, 2, 1).reshape((nb, nq) + coef.shape[1:-1])

    def at_face_points(self, coef: np.ndarray) -> np.ndarray:
        """Values at the face points of scalar-basis coefficients
        (nb, ..., n_scalar), as (nb, 3, nfq, ...)."""
        nb, _, n_p, nfq = self.face_scalar.shape
        vals = coef.reshape(nb, 1, -1, n_p) @ self.face_scalar
        return vals.transpose(0, 1, 3, 2).reshape((nb, 3, nfq) + coef.shape[1:-1])

    def traces_at_face_points(self, coef: np.ndarray) -> np.ndarray:
        """Values at the face points of face-basis coefficients
        (nb, 3, ..., k+1), as (nb, 3, nfq, ...)."""
        nb, _, kp1, nfq = self.faces.basis.shape
        vals = coef.reshape(nb, 3, -1, kp1) @ self.faces.basis
        return vals.transpose(0, 1, 3, 2).reshape((nb, 3, nfq) + coef.shape[2:-1])

    def stress_at_points(self, coef: np.ndarray) -> np.ndarray:
        """Values (nb, nq, 2, 2) of stress-basis coefficients (nb, n_stress):
        the P_k members are the scalar basis in each matrix slot, slot-major,
        and the last k+1 the ``enrichment``."""
        nb, n_e, nq = self.enrichment.shape[:3]
        n_pk = coef.shape[1] - n_e
        vals = self.at_points(coef[:, :n_pk].reshape(nb, 4, -1)).reshape(nb, nq, 2, 2)
        table = self.enrichment.reshape(nb, n_e, -1)
        enr = coef[:, None, n_pk:]
        return vals + (enr.real @ table + 1j * (enr.imag @ table)).reshape(nb, nq, 2, 2)

    def sample_volume(self, fn) -> np.ndarray:
        """Values (nb, nq, ...) of a pointwise function at the volume points."""
        vals = np.asarray(fn(self.points.reshape(-1, 2)), dtype=complex)
        return vals.reshape(self.points.shape[:2] + vals.shape[1:])

    def l2sq(self, vals: np.ndarray) -> float:
        """Sum over the block of the squared L2 norms of values (nb, nq, ...)."""
        sq = np.abs(vals.reshape(vals.shape[:2] + (-1,))) ** 2
        return float(np.einsum("eq,eqr->", self.weights, sq))


@dataclass
class ShapeOperators:
    """The condensed operators of one domain, one row per distinct element shape.

    With A, B, C, D a shape's blocks (``Assembler.shape_blocks``) and E the
    identity columns of the source unknowns (u or v): ``lift_map`` = A^-1 B,
    ``condensed_map`` = C A^-1 B + D, ``source_lift`` = A^-1 E and
    ``source_flux`` = C A^-1 E, the two lifts Fortran-ordered per shape as
    LAPACK solved them.  ``rcond`` is LAPACK's estimate of the reciprocal
    1-norm condition number of D A D; ``reps`` holds each shape's first element.
    """

    reps: np.ndarray
    lift_map: np.ndarray        # (n_shapes, n_vol, n_tr)
    condensed_map: np.ndarray   # (n_shapes, n_tr, n_tr)
    source_lift: np.ndarray     # (n_shapes, n_vol, n_src)
    source_flux: np.ndarray     # (n_shapes, n_tr, n_src)
    rcond: np.ndarray           # (n_shapes,)
    slices: dict[str, slice]

    @property
    def volume_dim(self) -> int:
        return self.lift_map.shape[1]

    @property
    def trace_dim(self) -> int:
        return self.lift_map.shape[2]


@dataclass
class BlockLocals:
    """Condensed local systems of a block of same-domain elements.

    Element ``elems[i]`` uses row ``shape[i]`` of every array in ``ops``:
    ``condensed_map @ traces + rhs_trace`` yields its numerical flux moments
    (outward orientation), and ``lift_map @ traces + rhs_volume`` its volume
    unknowns; both right-hand sides lift the source f in ``source_moments``.
    """

    domain: str                 # "E" or "A"
    elems: np.ndarray           # (nb,)
    shape: np.ndarray           # (nb,) row of each element in ``ops``
    ops: ShapeOperators
    source_moments: np.ndarray  # (nb, n_vol)
    rhs_volume: np.ndarray      # (nb, n_vol)
    rhs_trace: np.ndarray       # (nb, n_tr)


def _pair(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per element, sum over points and trailing axes of w a_i b_j.

    ``w`` is (nb, n), ``a`` (nb, m, n, ...) and ``b`` (nb, r, n, ...) with the
    same trailing axes; returns (nb, m, r) from one batched matmul, summing
    over the trailing axes (last first) and then the points.  Operand order,
    the side that carries the weight and the summation order all set the
    rounding, so each integral below keeps one fixed form, and results are
    reproducible bit for bit.
    """
    nb, m, n = a.shape[:3]
    tail = tuple(range(a.ndim - 1, 2, -1))
    # weighted straight into the layout of the product, without a second copy
    left = np.multiply(a.transpose((0, 1) + tail + (2,)),
                       w.reshape((nb, 1) + (1,) * len(tail) + (n,)), order="C")
    return left.reshape(nb, m, -1) @ b.transpose((0,) + tail + (2, 1)).reshape(nb, -1, b.shape[1])


def _t(m: np.ndarray) -> np.ndarray:
    return m.transpose(0, 2, 1)


def _elastic_blocks(tab: BlockTables, stress_vals, grads, stress_div, params: ModelParams):
    nb, n_p = tab.scalar.shape[:2]
    n_sig = stress_vals.shape[1]
    n_u = 2 * n_p
    n_vol = n_sig + n_u + n_p
    kp1 = tab.k + 1
    blk = 2 * kp1
    tau = params.tau_e
    w, sv, tv = tab.weights, tab.scalar, stress_vals
    i_s = slice(0, n_sig)
    i_u = slice(n_sig, n_sig + n_u)
    i_g = slice(n_sig + n_u, n_vol)
    ux = slice(n_sig, n_sig + n_p)
    uy = slice(n_sig + n_p, n_sig + n_u)

    # the largest temporaries first, before the blocks are allocated
    compliance = _t(_pair(w, hooke_inverse_apply(tv, params.lam, params.mu), tv))
    a = np.zeros((nb, n_vol, n_vol), dtype=complex).transpose(0, 2, 1)  # Fortran per shape
    b = np.zeros((nb, n_vol, 3 * blk), dtype=complex)
    c = np.zeros((nb, 3 * blk, n_vol), dtype=complex)
    d = np.zeros((nb, 3 * blk, 3 * blk), dtype=complex)

    a[:, i_s, i_s] = compliance
    a[:, i_s, ux] = _t(_pair(w, sv, stress_div[..., 0]))
    a[:, i_s, uy] = _t(_pair(w, sv, stress_div[..., 1]))
    # contraction of a stress test matrix with the spin basis M(p)
    m_sg = _t(_pair(w, sv, tv[..., 0, 1] - tv[..., 1, 0]))
    a[:, i_s, i_g] = m_sg
    a[:, i_g, i_s] = _t(m_sg)
    m_us = np.concatenate([_pair(w, grads, tv[..., 0, :]),
                           _pair(w, grads, tv[..., 1, :])], axis=1)
    m_ux = params.rho_e * params.s**2 * _pair(w, sv, sv)

    for f in range(3):
        fw, fb = tab.faces.weights[:, f], tab.faces.basis[:, f]
        svf, tn = tab.face_scalar[:, f], tab.stress_n[:, f]
        fm = tab.scalar_moments[:, f]  # (nb, n_p, k+1)
        x0, y0 = f * blk, f * blk + kp1

        bs = np.concatenate([_t(_pair(fw, fb, tn[..., 0])), _t(_pair(fw, fb, tn[..., 1]))],
                            axis=2)
        b[:, i_s, x0 : x0 + blk] = bs
        b[:, ux, x0:y0] = tau * fm
        b[:, uy, y0 : y0 + kp1] = tau * fm

        m_ux = m_ux + tau * _pair(fw, svf, svf)
        m_us[:, :n_p] -= _pair(fw, svf, tn[..., 0])
        m_us[:, n_p:] -= _pair(fw, svf, tn[..., 1])

        c[:, x0 : x0 + blk, i_s] = _t(bs)
        c[:, x0:y0, ux] = -tau * _t(fm)
        c[:, y0 : y0 + kp1, uy] = -tau * _t(fm)

        fmass_f = tau * _pair(fw, fb, fb)
        d[:, x0:y0, x0:y0] = fmass_f
        d[:, y0 : y0 + kp1, y0 : y0 + kp1] = fmass_f

    a[:, i_u, i_s] = m_us
    a[:, ux, ux] = m_ux
    a[:, uy, uy] = m_ux
    scale = np.repeat(1.0 / tab.h[:, None], n_vol, axis=1)
    scale[:, 4 * n_p : n_sig] = 1.0
    scale[:, i_u] = (params.rho_e * abs(params.s) ** 2 * tab.h**2 + tau * tab.h)[:, None] ** -0.5
    return (a, b, c, d), {"sigma": i_s, "u": i_u, "gamma": i_g}, scale


def _acoustic_blocks(tab: BlockTables, grads, params: ModelParams):
    nb, n_p = tab.scalar.shape[:2]
    n_vol = 3 * n_p
    kp1 = tab.k + 1
    tau = params.tau_a
    w, sv = tab.weights, tab.scalar
    qx, qy = slice(0, n_p), slice(n_p, 2 * n_p)
    i_q, i_v = slice(0, 2 * n_p), slice(2 * n_p, n_vol)

    a = np.zeros((nb, n_vol, n_vol), dtype=complex).transpose(0, 2, 1)  # Fortran per shape
    b = np.zeros((nb, n_vol, 3 * kp1), dtype=complex)
    c = np.zeros((nb, 3 * kp1, n_vol), dtype=complex)
    d = np.zeros((nb, 3 * kp1, 3 * kp1), dtype=complex)

    mass_s = _pair(w, sv, sv)
    # int p_j d/dx_c p_i, shared by the two mixed blocks
    gpx = _t(_pair(w, sv, grads[..., 0]))
    gpy = _t(_pair(w, sv, grads[..., 1]))
    a[:, qx, qx] = mass_s
    a[:, qy, qy] = mass_s
    a[:, qx, i_v] = gpx                 # (v, div r) rows: q tests
    a[:, qy, i_v] = gpy
    m_vq = np.concatenate([gpx, gpy], axis=2).astype(complex)  # (q, grad w) rows
    m_vv = (params.s / params.c) ** 2 * mass_s.astype(complex)

    for f in range(3):
        fw, fb, svf = tab.faces.weights[:, f], tab.faces.basis[:, f], tab.face_scalar[:, f]
        fm = tab.scalar_moments[:, f]  # (nb, n_p, k+1)
        n0 = tab.normals[:, f, 0, None, None]
        n1 = tab.normals[:, f, 1, None, None]
        rows = slice(f * kp1, (f + 1) * kp1)
        fmass_s = _pair(fw, svf, svf)

        b[:, qx, rows] = n0 * fm
        b[:, qy, rows] = n1 * fm
        b[:, i_v, rows] = tau * fm

        # -<q . n, w> and +tau <v, w> on the scalar test rows
        m_vq[:, :, :n_p] -= n0 * fmass_s
        m_vq[:, :, n_p:] -= n1 * fmass_s
        m_vv += tau * fmass_s

        c[:, rows, qx] = n0 * _t(fm)
        c[:, rows, qy] = n1 * _t(fm)
        c[:, rows, i_v] = -tau * _t(fm)
        d[:, rows, rows] = tau * _pair(fw, fb, fb)

    a[:, i_v, i_q] = m_vq
    a[:, i_v, i_v] = m_vv
    scale = np.repeat(1.0 / tab.h[:, None], n_vol, axis=1)
    scale[:, i_v] = (abs(params.s / params.c) ** 2 * tab.h**2 + tau * tab.h)[:, None] ** -0.5
    return (a, b, c, d), {"q": i_q, "v": i_v}, scale


def reconstruct_flux(tables: BlockTables, params: ModelParams,
                     volume: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Numerical flux coefficients per element and face, from the definition.

    ``volume`` (nb, n_vol) and ``traces`` (nb, n_tr), or (nb, 3, n_tr / 3),
    are the elements' unknowns.  Solid: moments of sigma_h n - tau
    (u_h - u_hat); fluid: moments of q_h . n - tau (v_h - v_hat), both in
    the element's outward orientation and the face's orthonormal basis, as
    (nb, 3, trace block).
    """
    nb, n_p = tables.scalar.shape[:2]
    if tables.domain == "E":
        n_sig = tables.stress_n.shape[2]
        sig_n = np.einsum("ej,efjpc->efpc", volume[:, :n_sig], tables.stress_n)
        u_val = tables.at_face_points(volume[:, n_sig : n_sig + 2 * n_p].reshape(nb, 2, n_p))
        uhat_val = tables.traces_at_face_points(traces.reshape(nb, 3, 2, -1))
        return tables.faces.moments(sig_n - params.tau_e * (u_val - uhat_val))
    q_val = tables.at_face_points(volume[:, : 2 * n_p].reshape(nb, 2, n_p))
    v_val = tables.at_face_points(volume[:, 2 * n_p :])
    vhat_val = tables.traces_at_face_points(traces.reshape(nb, 3, -1))
    q_n = np.einsum("efpc,efc->efp", q_val, tables.normals)
    return tables.faces.moments(q_n - params.tau_a * (v_val - vhat_val))


@dataclass
class _DomainShapes:
    """Per-shape tables and operators of one domain of a mesh."""

    shape: np.ndarray             # (n_elements,) shape of each element, -1 off the domain
    parts: dict[str, np.ndarray]  # shape-dependent ``BlockTables`` fields, per shape
    ops: ShapeOperators


class Assembler:
    """Builds block tables and local systems for one mesh, params, and degree.

    The elements of each domain are keyed by shape (Jacobian over diameter
    and the log of the diameter over the domain's largest, both rounded to
    1e-12, plus the orientation of each face), and whatever
    depends on shape alone is built once per key from its first element:
    matrices, basis tables, weights and normals.  Quadrature points are the
    shape's, moved onto each element; face rules and anything that samples
    user callables (sources, boundary data) are the element's own.
    """

    def __init__(self, mesh: Mesh, k: int, params: ModelParams):
        self.mesh = mesh
        self.k = k
        self.params = params
        self.ref = build_reference_basis(k)
        self._verts = mesh.vertices[mesh.tri_vertices]
        # +1 where a face's canonical direction follows the element's local
        # edge, i.e. where its stored normal points out of the element
        self._signs = np.where(
            mesh.face_vertices[mesh.element_faces, 0] == mesh.tri_vertices, 1, -1)
        self._domains: dict[str, _DomainShapes] = {}

    def _jacobians(self, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jacobians (columns: the edges from vertex 0) and diameters."""
        verts = self._verts[elems]
        jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=2)
        edges = verts[:, (1, 2, 0)] - verts
        return jac, np.sqrt(np.vecdot(edges, edges)).max(axis=1)

    def _shapes(self, domain: str) -> _DomainShapes:
        cached = self._domains.get(domain)
        if cached is not None:
            return cached
        elems = np.flatnonzero(self.mesh.tri_domain == domain)
        jac, h = self._jacobians(elems)
        # the size enters as its log relative to the largest element, so that
        # similar elements of different sizes differ at any scale or grading;
        # adding 0.0 turns -0.0 into 0.0, which np.unique tells apart
        key = np.concatenate([np.round(jac.reshape(-1, 4) / h[:, None], 12) + 0.0,
                              np.round(np.log(h / h.max()), 12)[:, None] + 0.0,
                              self._signs[elems]], axis=1)
        _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        shape = np.full(self.mesh.n_elements, -1)
        shape[elems] = inverse.reshape(-1)
        reps = elems[first]

        parts, ops = {}, {}  # name -> per-shape array
        for start in range(0, len(reps), SHAPE_CHUNK):
            chunk = reps[start : start + SHAPE_CHUNK]
            chunk_parts, chunk_ops, slices = self._shape_operators(chunk, domain)
            for out, new in ((parts, chunk_parts), (ops, chunk_ops)):
                for name, arr in new.items():
                    # empty_like keeps the chunk's memory layout (the maps
                    # are Fortran-ordered per shape, as LAPACK left them),
                    # and with it the rounding of later products with them
                    if name not in out:
                        out[name] = np.empty_like(arr, shape=(len(reps),) + arr.shape[1:])
                    out[name][start : start + len(chunk)] = arr
        result = _DomainShapes(shape, parts, ShapeOperators(reps, slices=slices, **ops))
        self._domains[domain] = result
        return result

    def _shape_operators(self, reps: np.ndarray, domain: str):
        """Shape-dependent tables and condensed operators of representative
        elements, one per shape, from one LU of D A D, D = diag(scale): 1/h on
        the P_k stress, spin and flux, 1 on the unit-L2 enrichment, and (m |s|^2
        h^2 + tau h)^(-1/2), m = rho_E or 1/c^2, on the displacement or scalar.
        Every block of D A D is then of size one, so its condition number, and
        the verdict on it, see the shape, s h and tau h, not the size.
        A^-1 [B | E] = D (D A D)^-1 [D B | D E], each shape's matrices
        Fortran-ordered so that LAPACK factors and solves them in place; every
        shape of the chunk is judged before any is solved."""
        parts, (a, b, c, d), slices, scale = self.shape_blocks(reps, domain)
        a *= scale[:, :, None]
        a *= scale[:, None]
        n_tr, eye = b.shape[2], np.eye(b.shape[1])[:, slices[_SOURCE[domain]]]
        sol = np.zeros((len(reps), n_tr + eye.shape[1], b.shape[1]), complex).transpose(0, 2, 1)
        np.multiply(b, scale[:, :, None], out=sol[..., :n_tr])  # [D B | D E], solved in place
        np.multiply(eye, scale[:, :, None], out=sol[..., n_tr:])
        finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(sol).all(axis=(1, 2))
        if not finite.all():
            raise SingularLocalSystem(f"element {reps[finite.argmin()]}: local system not finite")
        anorm = np.abs(a, order="C").sum(axis=1).max(axis=1)  # summed as over C order
        # info > 0: U has an exact zero pivot, so rcond is 0
        lus = [zgetrf(m, overwrite_a=True) for m in a]
        rcond = np.array([0.0 if info else zgecon(lu, norm_1)[0]
                          for (lu, _, info), norm_1 in zip(lus, anorm)])
        bad = np.flatnonzero(~(rcond > RCOND_FLOOR))
        if bad.size:
            raise SingularLocalSystem(f"element {reps[bad[0]]}: volume block ill-conditioned, "
                                      f"rcond {rcond[bad[0]]:.3e} <= {RCOND_FLOOR:.0e}")
        for i, (lu, piv, _) in enumerate(lus):
            sol[i] = zgetrs(lu, piv, sol[i], overwrite_b=True)[0]
        del a, lus
        sol *= scale[:, :, None]
        flux = c @ sol
        ops = dict(lift_map=sol[..., :n_tr], condensed_map=flux[..., :n_tr] + d,
                   source_lift=sol[..., n_tr:], source_flux=flux[..., n_tr:], rcond=rcond)
        return parts, ops, slices

    def shape_blocks(self, reps: np.ndarray, domain: str):
        """Shape-dependent tables, blocks (A, B, C, D) of A x = B t + f and flux
        moments C x + D t, volume slices and D's diagonal per representative."""
        ref = self.ref
        nb = len(reps)
        verts = self._verts[reps]
        jac, h = self._jacobians(reps)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.linalg.inv(jac)
        face_ids = self.mesh.element_faces[reps]
        faces = face_rule(self.mesh, face_ids, self.k)
        n_fq = faces.weights.shape[2]
        points = verts[:, 0, None] + ref.quad.points @ jac.transpose(0, 2, 1)

        # the scalar basis on each face, through the inverse affine map
        face_xi = np.stack([(faces.points[:, f] - verts[:, 0, None])
                            @ inv.transpose(0, 2, 1) for f in range(3)], axis=1)
        face_scalar = np.stack([
            ref.eval_values(face_xi[:, f].reshape(-1, 2)).reshape(-1, nb, n_fq).transpose(1, 0, 2)
            for f in range(3)], axis=1)
        moments = np.stack([
            _t(_pair(faces.weights[:, f], faces.basis[:, f], face_scalar[:, f]))
            for f in range(3)], axis=1)
        normals = self._signs[reps, :, None] * self.mesh.face_normal[face_ids]
        parts = dict(points=points, weights=ref.quad.weights * np.abs(det)[:, None], h=h,
                     normals=normals, face_scalar=face_scalar, scalar_moments=moments)
        # inv^T grad, bit for bit the einsum "edc,nmd->enmc" without its slow loop
        grads = (ref.grads[..., 0, None] * inv[:, None, None, 0]
                 + ref.grads[..., 1, None] * inv[:, None, None, 1])
        if domain == "E":
            stress = StressTables(ref, jac)
            on_faces = stress.eval(face_xi.reshape(nb, -1, 2)).reshape(nb, -1, 3, n_fq, 2, 2)
            parts.update(enrichment=stress.volume[:, stress.dim_tensor :],
                         stress_n=np.einsum("ejfprc,efc->efjpr", on_faces, normals))
            tab = self._stack(reps, domain, faces, parts)
            divs = stress.eval(stress.points, div=True)
            return (parts,) + _elastic_blocks(tab, stress.volume, grads, divs, self.params)
        tab = self._stack(reps, domain, faces, parts)
        return (parts,) + _acoustic_blocks(tab, grads, self.params)

    def _volume_points(self, shapes: _DomainShapes, elems: np.ndarray):
        """Quadrature points and weights: those of each element's shape, the
        points moved by the offset between the two vertices 0."""
        rows = shapes.shape[elems]
        shift = self._verts[elems, 0] - self._verts[shapes.ops.reps[rows], 0]
        return shapes.parts["points"][rows] + shift[:, None], shapes.parts["weights"][rows]

    def _stack(self, elems: np.ndarray, domain: str, faces: FaceRule,
               parts: dict) -> BlockTables:
        scalar = np.broadcast_to(self.ref.values, (len(elems),) + self.ref.values.shape)
        return BlockTables(elems=elems, domain=domain, k=self.k, scalar=scalar,
                           face_ids=self.mesh.element_faces[elems], faces=faces,
                           **{"enrichment": None, "stress_n": None, **parts})

    def _block(self, elems: np.ndarray, domain: str) -> BlockTables:
        shapes = self._shapes(domain)
        rows = shapes.shape[elems]
        parts = {name: arr[rows] for name, arr in shapes.parts.items()}
        parts["points"], _ = self._volume_points(shapes, elems)
        faces = face_rule(self.mesh, self.mesh.element_faces[elems], self.k)
        return self._stack(elems, domain, faces, parts)

    def tables(self, elem: int) -> BlockTables:
        """The tables of one element, as a block of one."""
        return self._block(np.array([elem]), str(self.mesh.tri_domain[elem]))

    def _partition(self):
        """Solid blocks first, then fluid ones, each of at most ``BLOCK_SIZE``
        elements in element order."""
        for domain in ("E", "A"):
            elems = np.flatnonzero(self.mesh.tri_domain == domain)
            for start in range(0, len(elems), BLOCK_SIZE):
                yield domain, elems[start : start + BLOCK_SIZE]

    def blocks(self):
        """Stacked tables of every element, block by block."""
        for domain, elems in self._partition():
            yield self._block(elems, domain)

    def all_locals(self, f_acoustic=None, f_elastic=None) -> list[BlockLocals]:
        """Local systems of every block; the sources map (n, 2) points to
        (n,) fluid or (n, 2) solid momentum source values."""
        out = []
        for domain, elems in self._partition():
            shapes = self._shapes(domain)
            ops, rows = shapes.ops, shapes.shape[elems]
            source = f_elastic if domain == "E" else f_acoustic
            src = ops.slices[_SOURCE[domain]]
            moments = np.zeros((len(elems), ops.volume_dim), dtype=complex)
            if source is not None:
                points, weights = self._volume_points(shapes, elems)
                vals = np.asarray(source(points.reshape(-1, 2)), dtype=complex)
                vals = vals.reshape(points.shape[:2] + vals.shape[1:])
                f = np.einsum("eq,eq...,iq->e...i", weights, vals, self.ref.values)
                moments[:, src] = f.reshape(len(elems), -1)
            rhs_volume = (ops.source_lift[rows] @ moments[:, src, None])[..., 0]
            rhs_trace = (ops.source_flux[rows] @ moments[:, src, None])[..., 0]
            out.append(BlockLocals(domain, elems, rows, ops, moments, rhs_volume, rhs_trace))
        return out
