"""Element-local systems of the hybridized scheme and their condensation.

Each element couples its volume unknowns x (stress/displacement/spin on
solid elements, flux/pressure-like scalar on fluid ones) to the polynomial
traces t on its three faces: A x = B t + f, with numerical flux moments
C x + D t against the face test space.  Eliminating x leaves the Schur
complement C A^-1 B + D: exactly what the global conservation equations use.

Three facts of the spaces fix blocks without integration: the scalar basis
is orthonormal, so an element's scalar mass matrix is |det J| I; the face
basis is orthonormal, so the face mass is I, D = tau I, and that of scalar
traces (in the face's P_k) the product of their face moments; and the flux
is the adjoint of the volume coupling, C = (S B)^T, S = -1 on the scalar (u
or v) rows and +1 elsewhere.

Face trace layout: faces in local-edge order; per face the vector trace
stacks x-modes then y-modes of the orthonormal face basis (scalar traces
use the k+1 modes directly).  Volume ordering is (stress, displacement,
spin) and (flux, scalar).

Both domains build on one (vector, scalar) pair (``_mixed_blocks``): the
fluid (q, v), and on solid elements stress row r with u_r; the enrichment,
free of divergence and normal trace, enters only the compliance and the
spin (its (sigma, grad w) moments vanish), so the full stress basis is never
evaluated.

Everything here is array code over blocks of same-domain elements, with the
element axis first (``BlockTables``, ``BlockLocals``).  The element matrices
depend on the element's shape alone: its Jacobian and the orientation of its
faces.  ``Assembler`` therefore builds and factors them once per distinct
shape of a domain, in batches, and elements index into the maps the
condensed route reads.  Each element's source is lifted as one more
right-hand side of its shape's solve.  Besides these maps only the solid
enrichment is kept per shape: every other table is built from an element's
own vertices and faces, the scalar basis on a face from the reference table
of its edge in the face's direction.

Every thread of the package starts in ``two_threads``.  Importing this
module bounds the process to one malloc arena and one OpenBLAS thread
(``one_arena_one_blas_thread``), so no result depends on the environment.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
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
    (nb, 3, m (k+1)) of m components).  ``face_scalar`` is the scalar basis
    at the face points, the reference table of the face's edge and
    direction, and ``scalar_moments`` its moments against the face basis,
    the reference ones times sqrt(|f|).  The P_k stress members are
    ``scalar`` in each matrix slot, so only the ``enrichment`` is stored;
    their normal traces are ``face_scalar`` times the ``normals``, and the
    enrichment's are zero.
    """

    elems: np.ndarray           # (nb,)
    domain: str
    k: int
    h: np.ndarray               # (nb,) element diameters
    points: np.ndarray          # (nb, nq, 2)
    detj: np.ndarray            # (nb,) |det J|
    weights: np.ndarray         # (nb, nq), the reference weights times ``detj``
    scalar: np.ndarray          # (nb, n_scalar, nq), the reference values
    enrichment: np.ndarray | None  # (nb, k+1, nq, 2, 2) enrichment members, solid blocks
    face_ids: np.ndarray        # (nb, 3)
    faces: FaceRule             # the rules of the faces, element-first
    normals: np.ndarray         # (nb, 3, 2) outward
    face_scalar: np.ndarray     # (nb, 3, n_scalar, nfq) scalar basis on the faces
    scalar_moments: np.ndarray  # (nb, 3, n_scalar, k+1)

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

    def coef_l2sq(self, coef: np.ndarray) -> float:
        """Sum over the block of the squared L2 norms of scalar-basis
        coefficients (nb, ..., n_scalar): |det J| times their squares."""
        return float(self.detj @ (np.abs(coef.reshape(len(coef), -1)) ** 2).sum(axis=1))


@dataclass
class ShapeOperators:
    """The condensed operators of one domain, one row per distinct element shape.

    With A, B, C, D a shape's blocks (``Assembler.shape_blocks``):
    ``lift_map`` = A^-1 B, Fortran-ordered per shape as LAPACK solved it, and
    ``condensed_map`` = C A^-1 B + D; ``rcond`` is LAPACK's estimate of the
    reciprocal 1-norm condition number of D A D.  No source map is kept: the
    solve of each shape lifts its elements' sources into ``BlockLocals``.
    """

    lift_map: np.ndarray              # (n_shapes, n_vol, n_tr)
    condensed_map: np.ndarray | None  # (n_shapes, n_tr, n_tr); None once assembled
    rcond: np.ndarray                 # (n_shapes,)
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
    unknowns.  With f the element's source moments ``source_moments`` on
    the source unknowns (u or v), ``rhs_volume`` = A^-1 f, a column of its
    shape's solve, and ``rhs_trace`` = C A^-1 f: views of the block's run of
    the domain's arrays.
    """

    domain: str                        # "E" or "A"
    elems: np.ndarray                  # (nb,)
    shape: np.ndarray                  # (nb,) row of each element in ``ops``
    ops: ShapeOperators
    source_moments: np.ndarray | None  # (nb, n_vol); None once assembled
    rhs_volume: np.ndarray             # (nb, n_vol)
    rhs_trace: np.ndarray | None       # (nb, n_tr); None once assembled


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


def _volume_slices(domain: str, n_p: int, kp1: int) -> dict[str, slice]:
    """Volume unknowns: stress (4 n_p + k+1), displacement, spin; or flux, scalar."""
    names = ("sigma", "u", "gamma") if domain == "E" else ("q", "v")
    ends = np.cumsum([4 * n_p + kp1, 2 * n_p, n_p] if domain == "E" else [2 * n_p, n_p]).tolist()
    return {name: slice(start, end) for name, start, end in zip(names, [0] + ends, ends)}


def _mixed_blocks(tab: BlockTables, grads, tau: float, m: complex):
    """Blocks A and B of one (vector q, scalar v) pair with a scalar face
    trace: volume (q_x, q_y, v), k+1 trace modes per face.  A holds (v, div r)
    on the q test rows and (q, grad w) - <q . n, w> + m (v, w) + tau <v, w>
    on the scalar ones; its q-q block is left zero."""
    nb, n_p = tab.scalar.shape[:2]
    n_vol = 3 * n_p
    kp1 = tab.k + 1
    w, sv = tab.weights, tab.scalar
    qx, qy = slice(0, n_p), slice(n_p, 2 * n_p)
    i_q, i_v = slice(0, 2 * n_p), slice(2 * n_p, n_vol)

    a = np.zeros((nb, n_vol, n_vol), dtype=complex).transpose(0, 2, 1)  # Fortran per shape
    b = np.zeros((nb, n_vol, 3 * kp1), dtype=complex)

    # int p_j d/dx_c p_i, shared by the two mixed blocks
    gpx = _t(_pair(w, sv, grads[..., 0]))
    gpy = _t(_pair(w, sv, grads[..., 1]))
    a[:, qx, i_v] = gpx                 # (v, div r) rows: q tests
    a[:, qy, i_v] = gpy
    m_vq = np.concatenate([gpx, gpy], axis=2).astype(complex)  # (q, grad w) rows
    m_vv = (m * tab.detj)[:, None, None] * np.eye(n_p)  # the scalar mass is |det J| I

    for f in range(3):
        fm = tab.scalar_moments[:, f]  # (nb, n_p, k+1)
        n0 = tab.normals[:, f, 0, None, None]
        n1 = tab.normals[:, f, 1, None, None]
        rows = slice(f * kp1, (f + 1) * kp1)
        fmass_s = fm @ _t(fm)

        b[:, qx, rows] = n0 * fm
        b[:, qy, rows] = n1 * fm
        b[:, i_v, rows] = tau * fm

        # -<q . n, w> and +tau <v, w> on the scalar test rows
        m_vq[:, :, :n_p] -= n0 * fmass_s
        m_vq[:, :, n_p:] -= n1 * fmass_s
        m_vv += tau * fmass_s

    a[:, i_v, i_q] = m_vq
    a[:, i_v, i_v] = m_vv
    return a, b


def _elastic_blocks(tab: BlockTables, grads, params: ModelParams):
    """Two ``_mixed_blocks`` pairs, stress row r with u_r on the r-modes of
    the trace, plus the compliance, the spin and the enrichment's terms."""
    nb, n_p = tab.scalar.shape[:2]
    kp1 = tab.k + 1
    n_pk, n_sig = 4 * n_p, 4 * n_p + kp1
    n_vol = n_sig + 3 * n_p
    blk = 2 * kp1
    w, sv, enr = tab.weights, tab.scalar, tab.enrichment
    i_e = slice(n_pk, n_sig)
    i_s, i_u, i_g = _volume_slices("E", n_p, kp1).values()

    pa, pb = _mixed_blocks(tab, grads, params.tau_e, params.rho_e * params.s**2)
    a = np.zeros((nb, n_vol, n_vol), dtype=complex).transpose(0, 2, 1)  # Fortran per shape
    b = np.zeros((nb, n_vol, 3 * blk), dtype=complex)
    for r in range(2):  # slots (r, 0), (r, 1) and u_r; the r-modes of each face
        vol = np.r_[2 * r * n_p : 2 * (r + 1) * n_p, n_sig + r * n_p : n_sig + (r + 1) * n_p]
        tr = (np.arange(3)[:, None] * blk + r * kp1 + np.arange(kp1)).ravel()
        a[:, vol[:, None], vol] = pa
        b[:, vol[:, None], tr] = pb

    # compliance: the P_k members are unit matrices times the scalar basis
    unit = hooke_inverse_apply(np.eye(4).reshape(4, 2, 2), params.lam, params.mu)
    a[:, :n_pk, :n_pk] = tab.detj[:, None, None] * np.kron(unit.reshape(4, 4), np.eye(n_p))
    comp = hooke_inverse_apply(enr, params.lam, params.mu)  # (nb, k+1, nq, 2, 2)
    pk_e = _pair(w, sv, np.moveaxis(comp, 2, -1).reshape(nb, 4 * kp1, -1))
    a[:, :n_pk, i_e] = pk_e.reshape(nb, n_p, kp1, 4).transpose(0, 3, 1, 2).reshape(nb, n_pk, kp1)
    a[:, i_e, :n_pk] = _t(a[:, :n_pk, i_e])
    a[:, i_e, i_e] = _t(_pair(w, comp, enr))
    # the spin column: a stress test matrix against M(p), so +mass in slot
    # (0, 1) and -mass in slot (1, 0), and its transpose
    a[:, n_p : 3 * n_p, i_g] = tab.detj[:, None, None] * np.kron([[1.0], [-1.0]], np.eye(n_p))
    a[:, i_e, i_g] = _t(_pair(w, sv, enr[..., 0, 1] - enr[..., 1, 0]))
    a[:, i_g, i_s] = _t(a[:, i_s, i_g])
    # (enrichment, grad w) stays zero: by parts it is <psi n, w> - (div psi, w),
    # and the enrichment has zero normal trace and zero divergence
    scale = np.repeat(1.0 / tab.h[:, None], n_vol, axis=1)
    scale[:, i_e] = 1.0
    size = params.rho_e * abs(params.s) ** 2 * tab.h**2 + params.tau_e * tab.h
    scale[:, i_u] = size[:, None] ** -0.5
    return a, b, scale


def _acoustic_blocks(tab: BlockTables, grads, params: ModelParams):
    """The (q, v) pair of ``_mixed_blocks`` plus the q-q mass."""
    n_p = tab.scalar.shape[1]
    tau = params.tau_a
    a, b = _mixed_blocks(tab, grads, tau, (params.s / params.c) ** 2)
    a[:, : 2 * n_p, : 2 * n_p] = tab.detj[:, None, None] * np.eye(2 * n_p)
    scale = np.repeat(1.0 / tab.h[:, None], 3 * n_p, axis=1)
    scale[:, 2 * n_p :] = (abs(params.s / params.c) ** 2 * tab.h**2 + tau * tab.h)[:, None] ** -0.5
    return a, b, scale


def reconstruct_flux(tables: BlockTables, params: ModelParams,
                     volume: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Numerical flux coefficients per element and face, from the definition.

    ``volume`` (nb, n_vol) and ``traces`` (nb, n_tr), or (nb, 3, n_tr / 3),
    are the elements' unknowns.  Solid: moments of sigma_h n - tau
    (u_h - u_hat), sigma_h n from the P_k coefficients alone; fluid: moments
    of q_h . n - tau (v_h - v_hat), both in the element's outward
    orientation and the face's orthonormal basis, as (nb, 3, trace block).
    """
    nb, n_p = tables.scalar.shape[:2]
    # m (vector, scalar) pairs, the scalars from column v0: (q, v), or stress
    # row r with u_r, whose enrichment has zero normal trace
    m, tau, v0 = 1, params.tau_a, 2 * n_p
    if tables.domain == "E":
        m, tau, v0 = 2, params.tau_e, 4 * n_p + tables.k + 1
    vec = tables.at_face_points(volume[:, : 2 * m * n_p].reshape(nb, m, 2, n_p))
    val = tables.at_face_points(volume[:, v0 : v0 + m * n_p].reshape(nb, m, n_p))
    hat = tables.traces_at_face_points(traces.reshape(nb, 3, m, -1))
    vec_n = np.einsum("efpmc,efc->efpm", vec, tables.normals)
    return tables.faces.moments(vec_n - tau * (val - hat))


@dataclass
class _DomainShapes:
    """The shapes of one domain of a mesh and the one table kept per shape."""

    shape: np.ndarray              # (n_elements,) shape of each element, -1 off the domain
    reps: np.ndarray               # (n_shapes,) the first element of each shape
    enrichment: np.ndarray | None  # (n_shapes, k+1, nq, 2, 2) on solid shapes, else None


def two_threads(fn, items: list) -> list:
    """``[fn(item) for item in items]`` on the calling thread and one worker,
    which take the next item in turn; fewer than two items start no thread.
    Once a call raises, no item starts, and the lowest failed item's
    exception is raised, as by the serial loop.  Every thread of the package
    starts here, and only one worker.  ``one_arena_one_blas_thread`` keeps
    OpenBLAS from adding threads of its own, and memory flat: with an arena
    of its own, a worker keeps what it frees there, and threaded local
    assembly raised the peak of jittered runs about 5%."""
    out, failed, taken = [None] * len(items), {}, itertools.count()

    def drain():
        while not failed and (i := next(taken)) < len(items):
            try:
                out[i] = fn(items[i])
            except BaseException as exc:  # raised once both threads have stopped
                failed[i] = exc

    if len(items) < 2:
        drain()
    else:
        with ThreadPoolExecutor(1) as pool:
            pool.submit(drain)
            drain()
    if failed:
        raise failed[min(failed)]
    return out


def one_arena_one_blas_thread() -> None:
    """Bound the whole process, at import and before any worker starts, to
    one glibc malloc arena (``mallopt(M_ARENA_MAX, 1)``) and one thread in
    numpy's and scipy's bundled OpenBLAS, skipping a part whose module,
    library or symbol is missing; the package's one use of ``ctypes``.
    Unbounded, its two threads use two arenas, so one is the only bound that
    changes anything.  OpenBLAS threads would share the cores with those of
    ``two_threads``, and their count, read from ``OPENBLAS_NUM_THREADS`` or
    the cores, would change the last bits of the results."""
    import ctypes
    import importlib

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pass
    else:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-8, 1)  # M_ARENA_MAX
    # the handle of an extension module finds the OpenBLAS that it links
    for module in ("numpy._core._multiarray_umath", "scipy.linalg._flapack"):
        try:
            blas = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads"):
            if (setter := getattr(blas, name, None)) is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


one_arena_one_blas_thread()


class Assembler:
    """Builds block tables and local systems for one mesh, params, and degree.

    The elements of each domain are keyed by shape (Jacobian over diameter
    and the log of the diameter over the domain's largest, both rounded to
    1e-12, plus the orientation of each face).  The local operators and the
    solid enrichment are built once per key, from its first element; every
    other table (``_element_tables``) is each element's own, built from its
    vertices and faces.  Only the shapes are kept; ``all_locals``, which
    knows the sources, builds the operators, each domain's chunks of shapes
    on ``two_threads``.  The post-processing walks the blocks through
    ``map_blocks``, which builds their tables and applies a function to them
    on ``two_threads``.
    """

    def __init__(self, mesh: Mesh, k: int, params: ModelParams):
        self.mesh = mesh
        self.k = k
        self.params = params
        self.ref = build_reference_basis(k)
        self._verts = mesh.vertices[mesh.tri_vertices]
        # per element: Jacobian (columns: the edges from vertex 0) and diameter
        self._jac = np.stack([self._verts[:, 1] - self._verts[:, 0],
                              self._verts[:, 2] - self._verts[:, 0]], axis=2)
        edges = self._verts[:, (1, 2, 0)] - self._verts
        self._h = np.sqrt(np.vecdot(edges, edges)).max(axis=1)
        # +1 where a face's canonical direction follows the element's local
        # edge, i.e. where its stored normal points out of the element
        self._signs = np.where(
            mesh.face_vertices[mesh.element_faces, 0] == mesh.tri_vertices, 1, -1)
        self._domains: dict[str, _DomainShapes] = {}

    def _shapes(self, domain: str) -> _DomainShapes:
        """The shapes of a domain's elements and the enrichment of each from
        its first element."""
        cached = self._domains.get(domain)
        if cached is not None:
            return cached
        elems = np.flatnonzero(self.mesh.tri_domain == domain)
        jac, h = self._jac[elems], self._h[elems]
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
        enrichment = StressTables(self.ref, jac[first]).enrichment if domain == "E" else None
        self._domains[domain] = _DomainShapes(shape, reps, enrichment)
        return self._domains[domain]

    def _volume_rule(self, elems: np.ndarray):
        """The volume quadrature of ``elems``: points (nb, nq, 2), |det J|
        (nb,) and weights (nb, nq)."""
        jac = self._jac[elems]
        detj = np.abs(jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0])
        return (self._verts[elems, 0, None] + self.ref.quad.points @ jac.transpose(0, 2, 1),
                detj, self.ref.quad.weights * detj[:, None])

    def _element_tables(self, elems: np.ndarray, domain: str) -> BlockTables:
        """The tables of ``elems`` from their own vertices and faces, with the
        enrichment of their shapes.  The scalar basis on local face f is the
        reference table of edge f, run along it where the face's canonical
        direction follows the element's edge and against it elsewhere."""
        ref, shapes = self.ref, self._shapes(domain)
        points, detj, weights = self._volume_rule(elems)
        face_ids, signs = self.mesh.element_faces[elems], self._signs[elems]
        table = 2 * np.arange(3) + (1 - signs) // 2  # row of ``ref.edge_values``
        root = np.sqrt(self.mesh.face_length[face_ids])[..., None, None]
        return BlockTables(
            elems=elems, domain=domain, k=self.k, h=self._h[elems],
            points=points, detj=detj, weights=weights,
            scalar=np.broadcast_to(ref.values, (len(elems),) + ref.values.shape),
            enrichment=shapes.enrichment[shapes.shape[elems]] if domain == "E" else None,
            face_ids=face_ids, faces=face_rule(self.mesh, face_ids, self.k),
            normals=signs[..., None] * self.mesh.face_normal[face_ids],
            face_scalar=np.take(ref.edge_values, table, axis=0),
            scalar_moments=np.take(ref.edge_moments, table, axis=0) * root)

    def _locals(self, domain: str, elems: np.ndarray, runs: list[slice],
                source) -> list[BlockLocals]:
        """The local systems of a domain's blocks (``runs`` of ``elems``), from
        one LU of D A D per shape, D = diag(scale): 1/h on the P_k stress, spin
        and flux, 1 on the unit-L2 enrichment, and (m |s|^2 h^2 + tau h)^(-1/2),
        m = rho_E or 1/c^2, on the displacement or scalar.  Every block of
        D A D is then of size one, so its condition number, and the verdict on
        it, see the shape, s h and tau h, not the size.  A^-1 [B | E F] =
        D (D A D)^-1 [D B | D E F], F the source moments of the shape's
        elements, is solved in place, Fortran-ordered, once every shape of the
        chunk is judged; the results go straight into the domain's arrays.
        The chunks run on ``two_threads``, each writing only its own shapes'
        and elements' rows, so a failure names the element the serial loop
        would name."""
        shapes, kp1 = self._shapes(domain), self.k + 1
        slices = _volume_slices(domain, self.ref.n_scalar, kp1)
        src, n = slices[_SOURCE[domain]], len(shapes.reps)
        n_vol, n_tr = max(sl.stop for sl in slices.values()), 3 * kp1 * (2 if domain == "E" else 1)
        moments = np.zeros((len(elems), n_vol), dtype=complex)
        for run in runs if source is not None else ():
            points, _, weights = self._volume_rule(elems[run])
            vals = np.asarray(source(points.reshape(-1, 2)), dtype=complex)
            vals = vals.reshape(points.shape[:2] + vals.shape[1:])
            f = np.einsum("eq,eq...,iq->e...i", weights, vals, self.ref.values)
            moments[run, src] = f.reshape(len(points), -1)
        # with a source, shape j lifts its count[j] elements by_shape[first[j] : first[j + 1]];
        # a chunk also ends where the count changes, so no solve is padded
        rows = shapes.shape[elems]
        count = np.bincount(rows, minlength=n) * (source is not None)
        by_shape, first = np.argsort(rows, kind="stable"), np.r_[0, np.cumsum(count)]
        edges = np.union1d(np.arange(0, n, SHAPE_CHUNK), np.flatnonzero(np.diff(count)) + 1)
        lift = np.empty((n, n_tr, n_vol), dtype=complex).transpose(0, 2, 1)  # Fortran per shape
        condensed, rcond = np.empty((n, n_tr, n_tr), dtype=complex), np.empty(n)
        rhs_volume, rhs_trace = np.zeros_like(moments), np.zeros((len(elems), n_tr), dtype=complex)

        def chunk_fn(bounds):
            start, stop = bounds
            chunk, lifted = slice(start, stop), count[start]
            reps = shapes.reps[chunk]
            (a, b, c, d), _, scale = self.shape_blocks(reps, domain)
            a *= scale[:, :, None]
            a *= scale[:, None]
            members = by_shape[first[start] : first[stop]].reshape(len(reps), lifted)
            sol = np.zeros((len(reps), n_tr + lifted, n_vol), complex).transpose(0, 2, 1)
            np.multiply(b, scale[:, :, None], out=sol[..., :n_tr])  # [D B | D E F]
            lifts = sol[..., n_tr:].transpose(0, 2, 1)  # (shape, its element, volume)
            lifts[..., src] = scale[:, None, src] * moments[members, src]
            finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(sol[..., :n_tr]).all(axis=(1, 2))
            if not finite.all():
                raise SingularLocalSystem(f"element {reps[~finite][0]}: local system not finite")
            anorm = np.abs(a, order="C").sum(axis=1).max(axis=1)  # summed as over C order
            # info > 0: U has an exact zero pivot, so rcond is 0
            lus = [zgetrf(m, overwrite_a=True) for m in a]
            rcond[chunk] = [0.0 if info else zgecon(lu, norm_1)[0]
                            for (lu, _, info), norm_1 in zip(lus, anorm)]
            bad = np.flatnonzero(~(rcond[chunk] > RCOND_FLOOR))
            if bad.size:
                raise SingularLocalSystem(f"element {reps[bad[0]]}: volume block ill-conditioned, "
                                          f"rcond {rcond[start + bad[0]]:.3e} <= {RCOND_FLOOR:.0e}")
            for i, (lu, piv, _) in enumerate(lus):
                zgetrs(lu, piv, sol[i], overwrite_b=True)
            del a, lus
            sol *= scale[:, :, None]
            flux = c @ sol
            lift[chunk] = sol[..., :n_tr]
            np.add(flux[..., :n_tr], d, out=condensed[chunk])
            rhs_volume[members] = lifts
            rhs_trace[members] = flux[..., n_tr:].transpose(0, 2, 1)

        two_threads(chunk_fn, list(zip(edges, [*edges[1:], n])))
        ops = ShapeOperators(lift, condensed, rcond, slices)
        return [BlockLocals(domain, elems[run], rows[run], ops, moments[run],
                            rhs_volume[run], rhs_trace[run]) for run in runs]

    def shape_blocks(self, elems: np.ndarray, domain: str):
        """Blocks (A, B, C, D) of A x = B t + f and flux moments C x + D t of the
        shapes of ``elems`` from the tables of their first elements, volume
        slices and the diagonal of the scaling (see ``_locals``); C and D are
        formed here."""
        shapes = self._shapes(domain)
        reps = shapes.reps[shapes.shape[elems]]
        inv = np.linalg.inv(self._jac[reps])
        # inv^T grad, bit for bit the einsum "edc,nmd->enmc" without its slow loop
        grads = (self.ref.grads[..., 0, None] * inv[:, None, None, 0]
                 + self.ref.grads[..., 1, None] * inv[:, None, None, 1])
        tab = self._element_tables(reps, domain)
        build = _elastic_blocks if domain == "E" else _acoustic_blocks
        a, b, scale = build(tab, grads, self.params)
        slices = _volume_slices(domain, self.ref.n_scalar, self.k + 1)
        sign = np.ones((b.shape[1], 1))  # S of C = (S B)^T
        sign[slices[_SOURCE[domain]]] = -1.0
        tau = self.params.tau_e if domain == "E" else self.params.tau_a
        d = np.tile(tau * np.eye(b.shape[2], dtype=complex), (len(elems), 1, 1))
        return (a, b, _t(b * sign), d), slices, scale

    def tables(self, elem: int) -> BlockTables:
        """The tables of one element, as a block of one."""
        return self._element_tables(np.array([elem]), str(self.mesh.tri_domain[elem]))

    def _partition(self):
        """Per domain, solid first: its elements in element order, and the
        runs of at most ``BLOCK_SIZE`` of them that make its blocks."""
        for domain in ("E", "A"):
            elems = np.flatnonzero(self.mesh.tri_domain == domain)
            starts = range(0, len(elems), BLOCK_SIZE)
            yield domain, elems, [slice(s, s + BLOCK_SIZE) for s in starts]

    def map_blocks(self, fn) -> list:
        """``fn`` of the tables of every block, in ``all_locals`` order, on
        ``two_threads``; each block's tables are built where ``fn`` runs."""
        jobs = [(elems[run], domain) for domain, elems, runs in self._partition() for run in runs]
        for domain in {domain for _, domain in jobs}:
            self._shapes(domain)  # built once, here, not by both threads
        return two_threads(lambda job: fn(self._element_tables(*job)), jobs)

    def all_locals(self, f_acoustic=None, f_elastic=None) -> list[BlockLocals]:
        """Local systems of every block, solid first, each domain's elements in
        element order by runs of ``BLOCK_SIZE``; the sources map
        (n, 2) points to (n,) fluid or (n, 2) solid momentum source values."""
        return [loc for domain, elems, runs in self._partition() if runs for loc in
                self._locals(domain, elems, runs, f_elastic if domain == "E" else f_acoustic)]
