"""Element-local systems of the hybridized scheme and their condensation.

Each element couples its volume unknowns (stress/displacement/spin on solid
elements, flux/pressure-like scalar on fluid ones) to the polynomial traces
on its three faces.  The volume block is inverted once per element with a
dense complex LU; the Schur complement maps face traces to the moments of
the numerical flux against the face test space, which is exactly what the
global conservation equations consume.

Face trace layout: faces in local-edge order; per face the vector trace
stacks x-modes then y-modes of the orthonormal face basis (scalar traces
use the k+1 modes directly).  Volume ordering is (stress, displacement,
spin) and (flux, scalar).

Structured meshes contain only a handful of translation classes of
triangles, so the ``Assembler`` caches tables and matrix blocks per class
(edge-vector signature); face rules, source moments and boundary data are
always those of the element itself.

Post-processing (error norms, projections) reads the tables of blocks of
same-domain elements stacked on a leading element axis (``BlockTables``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .elastic_spaces import StressBasis, build_stress_basis
from .mesh import FaceRule, Mesh, face_rule
from .quadbasis import ReferenceBasis, build_reference_basis, map_to_physical


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
    out = out.copy()
    out[..., 0, 0] -= coef * tr
    out[..., 1, 1] -= coef * tr
    return out


class SingularLocalSystem(RuntimeError):
    """Raised when an element volume block has a vanishing pivot."""


@dataclass
class FaceTables(FaceRule):
    """The rule of one face plus the element's data on it.

    ``points``, ``weights`` and ``basis`` are those of the face's
    ``face_rule``, so both neighbours integrate the face identically.
    """

    face_id: int
    normal: np.ndarray          # outward unit normal of this element
    scalar: np.ndarray          # (n_scalar, nfq) element scalar basis traces
    scalar_moments: np.ndarray  # (n_scalar, k+1): int basis_m * scalar_i
    stress_n: np.ndarray | None = None  # (n_stress, nfq, 2)


@dataclass
class ElementTables:
    elem: int
    domain: str
    k: int
    verts: np.ndarray
    h: float
    points: np.ndarray
    weights: np.ndarray
    scalar: np.ndarray
    grad: np.ndarray
    faces: list[FaceTables]
    stress_vals: np.ndarray | None = None
    stress_div: np.ndarray | None = None
    stress_basis: StressBasis | None = None

    @property
    def n_scalar(self) -> int:
        return self.scalar.shape[0]


def build_element_tables(mesh: Mesh, elem: int, ref: ReferenceBasis,
                         check_rank: bool = True) -> ElementTables:
    """Evaluate every basis table one element needs for assembly."""
    verts = mesh.triangle(elem)
    phys = map_to_physical(ref, verts)
    domain = str(mesh.tri_domain[elem])
    h = mesh.element_diameter(elem)
    k = ref.k

    stress = None
    if domain == "E":
        stress = build_stress_basis(k, verts, ref, check_rank=check_rank)

    faces: list[FaceTables] = []
    for fid in mesh.element_faces[elem]:
        face = mesh.faces[fid]
        rule = face_rule(mesh, fid, k, ref.quad.exact_degree)
        normal = next(sd.sign for sd in face.sides if sd.element == elem) * face.normal
        scalar_f = ref.eval_values((rule.points - verts[0]) @ phys.inv_jacobian.T)
        stress_n = stress.eval_normal(rule.points, normal) if stress is not None else None
        faces.append(
            FaceTables(
                points=rule.points,
                weights=rule.weights,
                basis=rule.basis,
                face_id=int(fid),
                normal=normal,
                scalar=scalar_f,
                scalar_moments=rule.moment_matrix(scalar_f),
                stress_n=stress_n,
            )
        )

    return ElementTables(
        elem=elem,
        domain=domain,
        k=k,
        verts=verts,
        h=h,
        points=phys.points,
        weights=phys.weights,
        scalar=phys.values,
        grad=phys.grads,
        faces=faces,
        stress_vals=stress.eval(phys.points) if stress is not None else None,
        stress_div=stress.eval_div(phys.points) if stress is not None else None,
        stress_basis=stress,
    )


BLOCK_SIZE = 256  # elements per post-processing block


@dataclass
class BlockTables:
    """The tables of a block of same-domain elements, stacked element-first.

    Face arrays carry a local-face axis after the element axis; the face
    basis is the element's ``face_rule`` basis, so face moments of a block
    match those of ``FaceRule.moments`` face by face.
    """

    elems: np.ndarray           # (nb,)
    domain: str
    k: int
    h: np.ndarray               # (nb,) element diameters
    points: np.ndarray          # (nb, nq, 2)
    weights: np.ndarray         # (nb, nq)
    scalar: np.ndarray          # (nb, n_scalar, nq)
    stress_vals: np.ndarray | None  # (nb, n_stress, nq, 2, 2), solid blocks
    face_ids: np.ndarray        # (nb, 3)
    face_points: np.ndarray     # (nb, 3, nfq, 2)
    face_weights: np.ndarray    # (nb, 3, nfq)
    face_basis: np.ndarray      # (nb, 3, k+1, nfq)
    normals: np.ndarray         # (nb, 3, 2) outward
    scalar_moments: np.ndarray  # (nb, 3, n_scalar, k+1)

    @property
    def n_scalar(self) -> int:
        return self.scalar.shape[1]

    def at_points(self, coef: np.ndarray) -> np.ndarray:
        """Values at the volume points of scalar-basis coefficients
        (nb, ..., n_scalar), as (nb, nq, ...)."""
        nb, n_p, nq = self.scalar.shape
        vals = coef.reshape(nb, -1, n_p) @ self.scalar
        return vals.transpose(0, 2, 1).reshape((nb, nq) + coef.shape[1:-1])

    def stress_at_points(self, coef: np.ndarray) -> np.ndarray:
        """Values (nb, nq, 2, 2) of stress-basis coefficients (nb, n_stress)."""
        nb, n_s, nq = self.stress_vals.shape[:3]
        table = self.stress_vals.reshape(nb, n_s, -1)
        coef = coef[:, None, :]
        vals = coef.real @ table + 1j * (coef.imag @ table)
        return vals.reshape(nb, nq, 2, 2)

    def sample_volume(self, fn) -> np.ndarray:
        """Values (nb, nq, ...) of a pointwise function at the volume points."""
        vals = np.asarray(fn(self.points.reshape(-1, 2)), dtype=complex)
        return vals.reshape(self.points.shape[:2] + vals.shape[1:])

    def sample(self, fn) -> tuple[np.ndarray, np.ndarray]:
        """Values of a pointwise function at the volume points (nb, nq, ...)
        and at the face points (nb, 3, nfq, ...), from one call."""
        vol = self.points.reshape(-1, 2)
        pts = np.concatenate([vol, self.face_points.reshape(-1, 2)])
        vals = np.asarray(fn(pts), dtype=complex)
        tail = vals.shape[1:]
        return (vals[: len(vol)].reshape(self.points.shape[:2] + tail),
                vals[len(vol) :].reshape(self.face_points.shape[:3] + tail))

    def l2sq(self, vals: np.ndarray) -> float:
        """Sum over the block of the squared L2 norms of values (nb, nq, ...)."""
        sq = np.abs(vals.reshape(vals.shape[:2] + (-1,))) ** 2
        return float(np.einsum("eq,eqr->", self.weights, sq))

    def face_moments(self, vals: np.ndarray) -> np.ndarray:
        """Moments against the face basis of values (nb, 3, nfq, ...).

        Returns (nb, 3, k+1, ...): one column of moments per trailing index.
        """
        flat = vals.reshape(vals.shape[:3] + (-1,))
        # the same products, summed in the same order, as ``FaceRule.moments``
        mom = np.einsum("efp,efmp,efpr->efmr", self.face_weights, self.face_basis, flat)
        return mom.reshape(mom.shape[:3] + vals.shape[3:])


def stack_tables(tables: Sequence[ElementTables]) -> BlockTables:
    """Stack the tables of same-domain elements into one ``BlockTables``."""
    first = tables[0]
    faces = [ft for tab in tables for ft in tab.faces]
    nb = len(tables)

    def face_stack(name: str) -> np.ndarray:
        arr = np.array([getattr(ft, name) for ft in faces])
        return arr.reshape((nb, 3) + arr.shape[1:])

    return BlockTables(
        elems=np.array([tab.elem for tab in tables]),
        domain=first.domain,
        k=first.k,
        h=np.array([tab.h for tab in tables]),
        points=np.array([tab.points for tab in tables]),
        weights=np.array([tab.weights for tab in tables]),
        scalar=np.array([tab.scalar for tab in tables]),
        stress_vals=(np.array([tab.stress_vals for tab in tables])
                     if first.domain == "E" else None),
        face_ids=np.array([ft.face_id for ft in faces]).reshape(nb, 3),
        face_points=face_stack("points"),
        face_weights=face_stack("weights"),
        face_basis=face_stack("basis"),
        normals=face_stack("normal"),
        scalar_moments=face_stack("scalar_moments"),
    )


@dataclass
class LocalSystem:
    """Condensed element system plus the raw blocks that produced it.

    ``condensed_map @ traces + rhs_trace`` yields the element's numerical
    flux moments against the face test space (in the element's outward
    orientation); ``lift_map @ traces + rhs_volume`` recovers the volume
    unknowns.  Matrix blocks may be shared between congruent elements.
    """

    elem: int
    kind: str
    k: int
    volume_dim: int
    trace_dim: int
    matrix: np.ndarray
    trace_coupling: np.ndarray
    flux_volume: np.ndarray
    flux_trace: np.ndarray
    condensed_map: np.ndarray
    lift_map: np.ndarray
    source_moments: np.ndarray
    rhs_volume: np.ndarray
    rhs_trace: np.ndarray
    slices: dict[str, slice]


@dataclass
class _Ops:
    kind: str
    volume_dim: int
    trace_dim: int
    matrix: np.ndarray
    trace_coupling: np.ndarray
    flux_volume: np.ndarray
    flux_trace: np.ndarray
    lu: tuple
    lift_map: np.ndarray
    condensed_map: np.ndarray
    slices: dict[str, slice]


def _tau_faces(tau, default: float) -> tuple[float, float, float]:
    if tau is None:
        return (default, default, default)
    if np.isscalar(tau):
        return (float(tau),) * 3
    vals = tuple(float(v) for v in tau)
    if len(vals) != 3:
        raise ValueError("per-face tau needs exactly three values")
    return vals


def _check_pivots(lu, elem: int) -> None:
    # relative to the largest pivot only: local blocks scale with powers of
    # the element size, so an absolute floor flags small, well-shaped elements
    diag = np.abs(np.diag(lu[0]))
    if diag.min() <= 1e-13 * diag.max():
        raise SingularLocalSystem(
            f"element {elem}: volume block pivot {diag.min():.3e} vanishes"
        )


def _elastic_ops(tables: ElementTables, params: ModelParams, tau) -> _Ops:
    taus = _tau_faces(tau, params.tau_e)
    w = tables.weights
    sv, sg = tables.scalar, tables.grad
    tv, td = tables.stress_vals, tables.stress_div
    n_p = sv.shape[0]
    n_sig = tv.shape[0]
    n_u = 2 * n_p
    n_vol = n_sig + n_u + n_p
    kp1 = tables.k + 1
    blk = 2 * kp1
    n_tr = 3 * blk

    cinv_t = hooke_inverse_apply(tv, params.lam, params.mu)
    m_ss = np.einsum("q,jqrc,iqrc->ij", w, cinv_t, tv, optimize=True)

    m_su = np.empty((n_sig, n_u))
    m_su[:, :n_p] = np.einsum("q,jq,iq->ij", w, sv, td[:, :, 0], optimize=True)
    m_su[:, n_p:] = np.einsum("q,jq,iq->ij", w, sv, td[:, :, 1], optimize=True)

    # contraction of a stress test matrix with the spin basis M(p)
    spin_w = tv[:, :, 0, 1] - tv[:, :, 1, 0]
    m_sg = np.einsum("q,jq,iq->ij", w, sv, spin_w, optimize=True)
    m_gs = m_sg.T.copy()

    m_us = np.empty((n_u, n_sig))
    m_us[:n_p, :] = np.einsum("q,jqc,iqc->ij", w, tv[:, :, 0, :], sg, optimize=True)
    m_us[n_p:, :] = np.einsum("q,jqc,iqc->ij", w, tv[:, :, 1, :], sg, optimize=True)

    mass_s = np.einsum("q,iq,jq->ij", w, sv, sv, optimize=True)
    m_uu = np.zeros((n_u, n_u), dtype=complex)
    s2rho = params.rho_e * params.s**2
    m_uu[:n_p, :n_p] = s2rho * mass_s
    m_uu[n_p:, n_p:] = s2rho * mass_s

    b = np.zeros((n_vol, n_tr), dtype=complex)
    c_mat = np.zeros((n_tr, n_vol), dtype=complex)
    d_mat = np.zeros((n_tr, n_tr), dtype=complex)

    for f, ft in enumerate(tables.faces):
        tau_f = taus[f]
        fw, fb, svf, tn = ft.weights, ft.basis, ft.scalar, ft.stress_n
        fm = ft.scalar_moments  # (n_p, k+1)
        rows = slice(f * blk, (f + 1) * blk)

        bs = np.concatenate([ft.moment_matrix(tn[:, :, c]) for c in (0, 1)], axis=1)
        b[:n_sig, rows] = bs
        b[n_sig : n_sig + n_p, rows.start : rows.start + kp1] = tau_f * fm
        b[n_sig + n_p : n_sig + n_u, rows.start + kp1 : rows.stop] = tau_f * fm

        fmass_s = np.einsum("p,ip,jp->ij", fw, svf, svf, optimize=True)
        m_uu[:n_p, :n_p] += tau_f * fmass_s
        m_uu[n_p:, n_p:] += tau_f * fmass_s

        m_us[:n_p, :] -= np.einsum("p,jp,ip->ij", fw, tn[:, :, 0], svf, optimize=True)
        m_us[n_p:, :] -= np.einsum("p,jp,ip->ij", fw, tn[:, :, 1], svf, optimize=True)

        c_mat[rows, :n_sig] = bs.T
        c_mat[rows.start : rows.start + kp1, n_sig : n_sig + n_p] = -tau_f * fm.T
        c_mat[rows.start + kp1 : rows.stop, n_sig + n_p : n_sig + n_u] = -tau_f * fm.T

        fmass_f = np.einsum("p,mp,np->mn", fw, fb, fb, optimize=True)
        d_mat[rows.start : rows.start + kp1, rows.start : rows.start + kp1] = tau_f * fmass_f
        d_mat[rows.start + kp1 : rows.stop, rows.start + kp1 : rows.stop] = tau_f * fmass_f

    a = np.zeros((n_vol, n_vol), dtype=complex)
    i_s = slice(0, n_sig)
    i_u = slice(n_sig, n_sig + n_u)
    i_g = slice(n_sig + n_u, n_vol)
    a[i_s, i_s] = m_ss
    a[i_s, i_u] = m_su
    a[i_s, i_g] = m_sg
    a[i_u, i_s] = m_us
    a[i_u, i_u] = m_uu
    a[i_g, i_s] = m_gs

    lu = lu_factor(a)
    _check_pivots(lu, tables.elem)
    lift = lu_solve(lu, b)
    condensed = c_mat @ lift + d_mat
    return _Ops(
        kind="elastic",
        volume_dim=n_vol,
        trace_dim=n_tr,
        matrix=a,
        trace_coupling=b,
        flux_volume=c_mat,
        flux_trace=d_mat,
        lu=lu,
        lift_map=lift,
        condensed_map=condensed,
        slices={"sigma": i_s, "u": i_u, "gamma": i_g},
    )


def _acoustic_ops(tables: ElementTables, params: ModelParams, tau) -> _Ops:
    taus = _tau_faces(tau, params.tau_a)
    w = tables.weights
    sv, sg = tables.scalar, tables.grad
    n_p = sv.shape[0]
    n_q = 2 * n_p
    n_vol = 3 * n_p
    kp1 = tables.k + 1
    n_tr = 3 * kp1

    mass_s = np.einsum("q,iq,jq->ij", w, sv, sv, optimize=True)
    # int p_j d/dx_c p_i, shared by the two mixed blocks
    gpx = np.einsum("q,jq,iq->ij", w, sv, sg[:, :, 0], optimize=True)
    gpy = np.einsum("q,jq,iq->ij", w, sv, sg[:, :, 1], optimize=True)

    m_qq = np.zeros((n_q, n_q))
    m_qq[:n_p, :n_p] = mass_s
    m_qq[n_p:, n_p:] = mass_s
    m_qv = np.concatenate([gpx, gpy], axis=0)          # (v, div r) rows: q tests
    m_vq = np.concatenate([gpx, gpy], axis=1).astype(complex)  # (q, grad w) rows: v tests
    m_vv = (params.s / params.c) ** 2 * mass_s.astype(complex)

    b = np.zeros((n_vol, n_tr), dtype=complex)
    c_mat = np.zeros((n_tr, n_vol), dtype=complex)
    d_mat = np.zeros((n_tr, n_tr), dtype=complex)

    for f, ft in enumerate(tables.faces):
        tau_f = taus[f]
        fw, fb, svf, n = ft.weights, ft.basis, ft.scalar, ft.normal
        fm = ft.scalar_moments  # (n_p, k+1)
        rows = slice(f * kp1, (f + 1) * kp1)

        fmass_s = np.einsum("p,ip,jp->ij", fw, svf, svf, optimize=True)
        fmass_f = np.einsum("p,mp,np->mn", fw, fb, fb, optimize=True)

        b[:n_p, rows] = n[0] * fm
        b[n_p:n_q, rows] = n[1] * fm
        b[n_q:, rows] = tau_f * fm

        # -<q . n, w> and +tau <v, w> on the scalar test rows
        m_vq[:, :n_p] -= n[0] * fmass_s
        m_vq[:, n_p:] -= n[1] * fmass_s
        m_vv += tau_f * fmass_s

        c_mat[rows, :n_p] = n[0] * fm.T
        c_mat[rows, n_p:n_q] = n[1] * fm.T
        c_mat[rows, n_q:] = -tau_f * fm.T
        d_mat[rows, rows] = tau_f * fmass_f

    a = np.zeros((n_vol, n_vol), dtype=complex)
    i_q = slice(0, n_q)
    i_v = slice(n_q, n_vol)
    a[i_q, i_q] = m_qq
    a[i_q, i_v] = m_qv
    a[i_v, i_q] = m_vq
    a[i_v, i_v] = m_vv

    lu = lu_factor(a)
    _check_pivots(lu, tables.elem)
    lift = lu_solve(lu, b)
    condensed = c_mat @ lift + d_mat
    return _Ops(
        kind="acoustic",
        volume_dim=n_vol,
        trace_dim=n_tr,
        matrix=a,
        trace_coupling=b,
        flux_volume=c_mat,
        flux_trace=d_mat,
        lu=lu,
        lift_map=lift,
        condensed_map=condensed,
        slices={"q": i_q, "v": i_v},
    )


def _source_moments(tables: ElementTables, ops: _Ops, source) -> np.ndarray:
    rhs = np.zeros(ops.volume_dim, dtype=complex)
    if source is None:
        return rhs
    w, sv = tables.weights, tables.scalar
    n_p = sv.shape[0]
    vals = np.asarray(source(tables.points), dtype=complex)
    if ops.kind == "elastic":
        sl = ops.slices["u"]
        rhs[sl.start : sl.start + n_p] = np.einsum("q,q,iq->i", w, vals[:, 0], sv)
        rhs[sl.start + n_p : sl.stop] = np.einsum("q,q,iq->i", w, vals[:, 1], sv)
    else:
        sl = ops.slices["v"]
        rhs[sl] = np.einsum("q,q,iq->i", w, vals, sv)
    return rhs


def _finish(tables: ElementTables, ops: _Ops, source) -> LocalSystem:
    f = _source_moments(tables, ops, source)
    rhs_volume = lu_solve(ops.lu, f) if f.any() else np.zeros_like(f)
    rhs_trace = ops.flux_volume @ rhs_volume
    return LocalSystem(
        elem=tables.elem,
        kind=ops.kind,
        k=tables.k,
        volume_dim=ops.volume_dim,
        trace_dim=ops.trace_dim,
        matrix=ops.matrix,
        trace_coupling=ops.trace_coupling,
        flux_volume=ops.flux_volume,
        flux_trace=ops.flux_trace,
        condensed_map=ops.condensed_map,
        lift_map=ops.lift_map,
        source_moments=f,
        rhs_volume=rhs_volume,
        rhs_trace=rhs_trace,
        slices=ops.slices,
    )


def assemble_elastic_local(tables: ElementTables, params: ModelParams,
                           source=None, tau=None) -> LocalSystem:
    """Local system of the solid scheme on one element.

    ``source`` maps (n, 2) points to (n, 2) momentum source values; ``tau``
    optionally overrides the stabilization per face.
    """
    if tables.domain != "E":
        raise ValueError(f"element {tables.elem} is not a solid element")
    return _finish(tables, _elastic_ops(tables, params, tau), source)


def assemble_acoustic_local(tables: ElementTables, params: ModelParams,
                            source=None, tau=None) -> LocalSystem:
    """Local system of the fluid scheme on one element."""
    if tables.domain != "A":
        raise ValueError(f"element {tables.elem} is not a fluid element")
    return _finish(tables, _acoustic_ops(tables, params, tau), source)


def reconstruct_flux(tables: ElementTables, params: ModelParams,
                     volume: np.ndarray, traces: np.ndarray,
                     tau=None) -> list[np.ndarray]:
    """Numerical flux coefficients per face, straight from the definition.

    Solid: moments of sigma_h n - tau (u_h - u_hat); fluid: moments of
    q_h . n - tau (v_h - v_hat), both in the element's outward orientation
    and the face's orthonormal basis.  ``tau=0`` is accepted here (it just
    drops the penalty part), although the solver itself refuses it.
    """
    k = tables.k
    kp1 = k + 1
    n_p = tables.n_scalar
    out = []
    if tables.domain == "E":
        taus = _tau_faces(tau, params.tau_e)
        n_sig = tables.stress_vals.shape[0]
        sig = volume[:n_sig]
        uc = volume[n_sig : n_sig + 2 * n_p]
        blk = 2 * kp1
        for f, ft in enumerate(tables.faces):
            sig_n = np.einsum("j,jpc->pc", sig, ft.stress_n)
            u_val = np.stack([ft.scalar.T @ uc[:n_p], ft.scalar.T @ uc[n_p:]], axis=1)
            th = traces[f * blk : (f + 1) * blk]
            uhat_val = np.stack([ft.basis.T @ th[:kp1], ft.basis.T @ th[kp1:]], axis=1)
            out.append(ft.moments(sig_n - taus[f] * (u_val - uhat_val)))
    else:
        taus = _tau_faces(tau, params.tau_a)
        qc = volume[: 2 * n_p]
        vc = volume[2 * n_p :]
        for f, ft in enumerate(tables.faces):
            q_val = np.stack([ft.scalar.T @ qc[:n_p], ft.scalar.T @ qc[n_p:]], axis=1)
            v_val = ft.scalar.T @ vc
            vhat_val = ft.basis.T @ traces[f * kp1 : (f + 1) * kp1]
            out.append(ft.moments(q_val @ ft.normal - taus[f] * (v_val - vhat_val)))
    return out


class Assembler:
    """Builds tables and local systems for one mesh, params, and degree.

    Matrix blocks are cached per translation class; anything that samples
    user callables (sources, boundary data) is evaluated per element.
    """

    def __init__(self, mesh: Mesh, k: int, params: ModelParams,
                 quad_degree: int | None = None):
        self.mesh = mesh
        self.k = k
        self.params = params
        self.ref = build_reference_basis(k, quad_degree)
        self._frames: dict[tuple, ElementTables] = {}
        self._tables: dict[int, ElementTables] = {}
        self._ops: dict[tuple, _Ops] = {}

    def _signature(self, elem: int) -> tuple:
        tri = self.mesh.triangle(elem)
        e1 = tri[1] - tri[0]
        e2 = tri[2] - tri[0]
        return (
            str(self.mesh.tri_domain[elem]),
            round(float(e1[0]), 12),
            round(float(e1[1]), 12),
            round(float(e2[0]), 12),
            round(float(e2[1]), 12),
        )

    def tables(self, elem: int) -> ElementTables:
        cached = self._tables.get(elem)
        if cached is not None:
            return cached
        sig = self._signature(elem)
        rep = self._frames.get(sig)
        if rep is None:
            tab = build_element_tables(self.mesh, elem, self.ref)
            self._frames[sig] = tab
        else:
            shift = self.mesh.triangle(elem)[0] - rep.verts[0]
            faces = []
            for le, ft in enumerate(rep.faces):
                # the face's own rule, not a shifted copy, so that both
                # neighbours integrate the face at identical points; weights
                # and basis depend on the length alone, so an equal length
                # keeps sharing the class's arrays
                fid = int(self.mesh.element_faces[elem, le])
                rule = face_rule(self.mesh, fid, self.k, self.ref.quad.exact_degree)
                if self.mesh.faces[fid].length == self.mesh.faces[ft.face_id].length:
                    rule.weights, rule.basis = ft.weights, ft.basis
                faces.append(replace(ft, face_id=fid, points=rule.points,
                                     weights=rule.weights, basis=rule.basis))
            tab = replace(rep, elem=elem, verts=rep.verts + shift,
                          points=rep.points + shift, faces=faces)
        self._tables[elem] = tab
        return tab

    def blocks(self):
        """Stacked tables of every element: solid blocks first, then fluid
        ones, each of at most ``BLOCK_SIZE`` elements in element order."""
        for domain in ("E", "A"):
            elems = np.flatnonzero(self.mesh.tri_domain == domain)
            for start in range(0, len(elems), BLOCK_SIZE):
                chunk = elems[start : start + BLOCK_SIZE]
                yield stack_tables([self.tables(int(e)) for e in chunk])

    def local_system(self, elem: int, source=None) -> LocalSystem:
        sig = self._signature(elem)
        ops = self._ops.get(sig)
        tab = self.tables(elem)
        if ops is None:
            builder = _elastic_ops if tab.domain == "E" else _acoustic_ops
            ops = builder(tab, self.params, None)
            self._ops[sig] = ops
        return _finish(tab, ops, source)

    def all_locals(self, f_acoustic=None, f_elastic=None) -> list[LocalSystem]:
        out = []
        for elem in range(self.mesh.n_elements):
            source = f_elastic if self.mesh.tri_domain[elem] == "E" else f_acoustic
            out.append(self.local_system(elem, source))
        return out
