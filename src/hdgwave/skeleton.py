"""Global face system: conservation rows, interface coupling, and recovery.

Unknowns live on mesh faces only: a vector trace on solid-side faces and a
scalar trace on fluid-side faces (interface faces carry both).  Dirichlet
faces are eliminated up front by projecting the boundary data onto the face
basis.  Each interior face equates the sum of the adjacent elements'
outward numerical-flux moments to zero; interface faces instead couple the
two fields through the normal-velocity and traction matching conditions.

Assembly, recovery and the residual checks work block by block on the
arrays of ``local_solver`` (``BlockLocals``, ``BlockTables``), looping over
blocks and local faces only.  Two assembly routes produce the same solution
from the same blocks: the condensed route scatters the Schur complements
of the elements' shapes, while the monolithic route rebuilds each shape's
blocks and keeps all volume unknowns alongside the trace unknowns.  The
second exists to cross-check the first.

Both routes write the matrix straight into its CSC arrays.  The pattern
comes first, from the mesh: dense blocks between the nodes (the k+1 trace
unknowns of one face and field component; monolithic, each element's
volume unknowns) that an element couples, and diagonal interface blocks.
Each block is then added in place.  An entry sums at most two terms (the
two elements of a face), whose order cannot move a bit, onto -0.0, which
adds to any x as x; so the matrix has the bits of summed COO triplets.

The trace system is LU-factored by SuperLU with a minimum-degree ordering
of A + A^T.  The matrix is structurally symmetric: a face's rows couple to
the traces of the faces of its neighbouring elements, which couple back to
it, and the two interface rows couple the scalar and the displacement
traces in both directions.  An ordering of A + A^T therefore sees the
pattern the factors will have, where SuperLU's default COLAMD orders A^T A
and overestimates the fill (25.8M against 10.3M entries on the coupled63
k=3 system of 61,696 unknowns).  The matrix is also complex-symmetric up to
a diagonal row scaling (the solid-trace rows times -1/rho_f off the
interface and +1/rho_f on it), so diagonal pivots suit it: they keep the
factors on the symmetric pattern the ordering planned.  The factorization
runs in SuperLU's symmetric mode and keeps the diagonal pivot unless it
falls below ``TAU`` times its column's largest entry; SuperLU's default
partial pivoting left the diagonal on nearly incompressible solids and
raised the fill by up to 66% (elastic62, k=3, nu = 0.49999 against 0.3).
The residual check of ``solve_assembled`` is the only guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .local_solver import (
    Assembler,
    BlockLocals,
    ModelParams,
    hooke_inverse_apply,
    reconstruct_flux,
)
from .mesh import (
    FaceKind,
    Mesh,
    elastic_side_normal,
    face_rule,
)


class SingularSkeletonSystem(RuntimeError):
    """Raised when the global face system cannot be solved reliably."""


# SuperLU's column ordering for the structurally symmetric trace system
ORDERING = "MMD_AT_PLUS_A"
# SuperLU's diagonal pivot threshold: the largest of the values tried at which
# every system tried, jittered nearly incompressible solids too, kept every
# pivot on the diagonal
TAU = 0.01


@dataclass
class SolveStats:
    """What one sparse solve did: the column ordering, the order ``n`` and the
    stored entries ``nnz`` of the matrix, the entries SuperLU stores for L and
    U (``lu_fill``), the pivots SuperLU took off the diagonal
    (``off_diagonal_pivots``, those with ``perm_r != perm_c``),
    ``residual_rel`` = ||A x - b|| / ||b|| (||A x - b|| if b = 0), and the
    elements' least local ``rcond`` (1 without any)."""

    ordering: str
    n: int
    nnz: int
    lu_fill: int
    off_diagonal_pivots: int
    residual_rel: float
    local_rcond: float


@dataclass
class ProblemData:
    """Sources and boundary/interface data; any callable may be omitted.

    Point arrays have shape (n, 2).  ``neumann`` receives the outward unit
    normal of the fluid domain, ``g1``/``g2`` receive the outward normal of
    the solid domain; both may depend on it.  Every face of a kind is
    sampled in one call, so the normals come as one row (n, 2) per point.
    """

    f: Callable | None = None            # fluid volume source -> (n,)
    f_elastic: Callable | None = None    # solid volume source -> (n, 2)
    dirichlet: Callable | None = None    # scalar trace on Dirichlet faces -> (n,)
    neumann: Callable | None = None      # (pts, n_out) -> (n,) prescribed flux
    u_dirichlet: Callable | None = None  # displacement trace -> (n, 2)
    v_inc: Callable | None = None        # incident scalar on the interface -> (n,)
    grad_v_inc: Callable | None = None   # its gradient -> (n, 2)
    g1: Callable | None = None           # (pts, n_e) -> (n,) velocity-row data
    g2: Callable | None = None           # (pts, n_e) -> (n, 2) traction-row data


_UHAT_UNKNOWN = frozenset({FaceKind.INTERIOR_E, FaceKind.GAMMA})
_VHAT_UNKNOWN = frozenset({FaceKind.INTERIOR_A, FaceKind.GAMMA, FaceKind.GAMMA_AN})


@dataclass
class DofMap:
    """Offsets of each face's trace unknowns in the skeleton vector (-1: none)."""

    mesh: Mesh
    k: int
    uhat_offset: np.ndarray
    vhat_offset: np.ndarray
    n_dofs: int


def build_dof_map(mesh: Mesh, k: int) -> DofMap:
    """Face by face, the scalar trace's k+1 unknowns, then the displacement
    trace's 2(k+1)."""
    has_v = mesh.is_kind(*_VHAT_UNKNOWN)
    has_u = mesh.is_kind(*_UHAT_UNKNOWN)
    width = has_v * (k + 1) + has_u * 2 * (k + 1)
    start = np.cumsum(width) - width
    return DofMap(mesh=mesh, k=k, uhat_offset=np.where(has_u, start + has_v * (k + 1), -1),
                  vhat_offset=np.where(has_v, start, -1), n_dofs=int(width.sum()))


@dataclass
class AssembledSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    dofmap: DofMap
    locals_: list[BlockLocals]
    fixed_uhat: np.ndarray      # (n_faces, 2(k+1))
    fixed_vhat: np.ndarray      # (n_faces, k+1)
    n_volume: int
    volume_offsets: np.ndarray | None
    solve_stats: SolveStats | None = None  # set by solve_assembled


def _element_faces(mesh: Mesh, dofmap: DofMap, first: int):
    """Of each element face (n_elements, 3): its trace's skeleton offset
    (-1: eliminated), its flux-row sign (0: no row; interface rows are the
    fluid side's, so the solid flux enters them negated), and (..., 2) its
    trace nodes from ``first`` on, one (fluid) or two (solid; -1: none)."""
    faces = mesh.element_faces
    solid = (mesh.tri_domain == "E")[:, None]
    offset = np.where(solid, dofmap.uhat_offset[faces], dofmap.vhat_offset[faces])
    # interface faces are the only ones that carry both traces
    sign = np.where(solid & (dofmap.vhat_offset[faces] >= 0), -1.0, 1.0)
    has = (offset >= 0)[..., None] & (solid[..., None] | np.array([True, False]))
    nodes = np.where(has, first + offset[..., None] // (dofmap.k + 1) + np.arange(2), -1)
    return offset, np.where(offset >= 0, sign, 0.0), nodes


class _NodePattern:
    """CSC arrays of a matrix of full or diagonal blocks between the nodes
    ``bounds[i]:bounds[i+1]``, node pairs given as broadcastable arrays (-1:
    none).  Column c of node C holds the rows of each row node R paired with
    it in order (one row if diagonal), so the entry in row bounds[R] + r of
    the pair p = (R, C) lies at indptr[c] + off[p] + r (r = 0 if diagonal)."""

    def __init__(self, bounds: np.ndarray, full: list, diagonal: list):
        self.start, width, self.n_nodes = bounds[:-1], np.diff(bounds), len(bounds) - 1
        # twice the key, plus one for a diagonal pair
        keys = np.sort(np.concatenate([2 * self._keys(*pair[:2])[1] + diag for diag, pairs
                                       in enumerate((full, diagonal)) for pair in pairs]))
        self.keys, self.diag = np.divmod(keys[np.diff(keys, prepend=-1) != 0], 2)
        col, row = np.divmod(self.keys, self.n_nodes)
        per_column = np.where(self.diag, 1, width[row])
        self.length = np.bincount(col, per_column, self.n_nodes).astype(int)
        before = np.cumsum(per_column) - per_column
        self.off = before - before[np.searchsorted(col, col)]
        self.indptr = np.concatenate([[0], np.cumsum(np.repeat(self.length, width))])
        self.data = np.full(self.indptr[-1], complex(-0.0, -0.0))
        self.indices = np.empty(self.indptr[-1], dtype=np.int32)

    def _keys(self, rn, cn):
        rn, cn = np.broadcast_arrays(rn, cn)
        ok = (rn >= 0) & (cn >= 0)
        return ok, cn[ok] * self.n_nodes + rn[ok]

    def add(self, rn, cn, vals: np.ndarray) -> None:
        """Add the blocks vals (..., rows, columns) of the pairs (rn, cn)."""
        ok, keys = self._keys(rn, cn)
        vals = np.broadcast_to(vals, ok.shape + vals.shape[-2:])[ok]
        p = np.searchsorted(self.keys, keys)
        cn, rn = np.divmod(keys, self.n_nodes)
        r, c = np.arange(vals.shape[1])[:, None], np.arange(vals.shape[2])
        at = self.indptr[self.start[cn]] + self.off[p]
        at = (at[:, None] + self.length[cn][:, None] * c)[:, None] + r
        np.add.at(self.data, at.ravel(), vals.ravel())  # a 1-d index takes numpy's fast loop
        self.indices[at] = (self.start[rn][:, None] + self.diag[p][:, None] * c)[:, None] + r


def assemble_system(assembler: Assembler, data: ProblemData,
                    monolithic: bool = False) -> AssembledSystem:
    mesh, k = assembler.mesh, assembler.k
    dofmap = build_dof_map(mesh, k)
    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    n_e = elastic_side_normal(mesh, gamma)
    moments = _data_moments(mesh, k, data, gamma, n_e)
    # the eliminated Dirichlet traces, zero on the faces whose trace is an unknown
    fixed_uhat, fixed_vhat = moments["u_dirichlet"], moments["dirichlet"]
    locals_ = assembler.all_locals(f_acoustic=data.f, f_elastic=data.f_elastic)

    vol_off = None
    n_vol = 0
    if monolithic:
        dims = np.zeros(mesh.n_elements, dtype=int)
        for loc in locals_:
            dims[loc.elems] = loc.ops.volume_dim
        vol_off = np.concatenate([[0], np.cumsum(dims)])
        n_vol = int(vol_off[-1])
    trace_base = n_vol
    n_total = n_vol + dofmap.n_dofs
    rhs = np.zeros(n_total, dtype=complex)

    # one node per element's volume unknowns (monolithic), then the trace nodes
    first = mesh.n_elements if monolithic else 0
    offsets, signs, nodes = _element_faces(mesh, dofmap, first)
    flat, vn = nodes.reshape(len(nodes), -1), np.arange(mesh.n_elements)[:, None]
    pairs = ([(nodes[..., None], nodes[..., None, :]), (vn, flat), (flat, vn), (vn, vn)]
             if monolithic else [(flat[:, :, None], flat[:, None, :])])
    bounds = np.concatenate([vol_off[:-1] if monolithic else [],
                             np.arange(trace_base, n_total + 1, k + 1)]).astype(int)
    couplings = _interface_blocks(assembler, dofmap, first, gamma, n_e)
    pattern = _NodePattern(bounds, pairs, couplings)

    for loc in locals_:
        nb = len(loc.elems)
        blk = loc.ops.trace_dim // 3
        split = (nb, 3, blk // (k + 1), k + 1)  # (..., face, component, mode)
        tn = nodes[loc.elems, :, : split[2]]
        faces, offset, sign = mesh.element_faces[loc.elems], offsets[loc.elems], signs[loc.elems]
        fixed = (fixed_uhat if loc.domain == "E" else fixed_vhat)[faces].reshape(nb, -1)
        idx = trace_base + offset[..., None] + np.arange(blk)  # (nb, 3, blk)
        known = offset >= 0
        if monolithic:
            (a, b, c, d), _, _ = assembler.shape_blocks(loc.elems, loc.domain)
            vn = loc.elems[:, None, None]  # the volume node
            # the direct trace block is face-diagonal
            d = np.einsum("efixfjz->efijxz", d.reshape(split + split[1:]))
            pattern.add(tn[..., None], tn[..., None, :], sign[..., None, None, None, None] * d)
            pattern.add(tn, vn, sign[..., None, None, None] * c.reshape(split + (-1,)))
            pattern.add(loc.elems, loc.elems, a)
            pattern.add(vn, tn, -b.reshape((nb, -1) + split[1:]).transpose(0, 2, 3, 1, 4))
            v_idx = vol_off[loc.elems, None] + np.arange(loc.ops.volume_dim)
            rhs[v_idx] += (b @ fixed[..., None])[..., 0] + loc.source_moments
        else:
            condensed = loc.ops.condensed_map[loc.shape].reshape(nb, 3, blk, 3, blk)
            pattern.add(tn[..., None, None], tn[:, None, None], sign[..., None, None, None, None, None]
                        * condensed.reshape(split + split[1:]).transpose(0, 1, 2, 4, 5, 3, 6))
            # per element and row face: the flux of each eliminated trace,
            # then that of the source, subtracted one at a time in element
            # order, so that the rounding does not depend on the blocking
            by_face = condensed.transpose(0, 1, 3, 2, 4)  # (nb, row face, column face, ...)
            terms = np.concatenate(
                [(by_face @ fixed.reshape(nb, 1, 3, blk, 1))[..., 0],
                 loc.rhs_trace.reshape(nb, 3, 1, blk)], axis=2) * sign[..., None, None]
            used = np.concatenate([~known, np.ones((nb, 1), dtype=bool)], axis=1)
            use = known[:, :, None] & used[:, None, :]
            np.subtract.at(rhs, np.broadcast_to(idx[:, :, None], terms.shape)[use], terms[use])

    for rn, cn, vals in couplings:
        pattern.add(rn, cn, vals)
    _face_terms(assembler, moments, dofmap, rhs, trace_base, gamma, n_e)

    matrix = sp.csc_matrix((pattern.data, pattern.indices, pattern.indptr),
                           shape=(n_total, n_total))
    return AssembledSystem(
        matrix=matrix,
        rhs=rhs,
        dofmap=dofmap,
        locals_=locals_,
        fixed_uhat=fixed_uhat,
        fixed_vhat=fixed_vhat,
        n_volume=n_vol,
        volume_offsets=vol_off,
    )


def _data_moments(mesh: Mesh, k: int, data: ProblemData, gamma: np.ndarray,
                  n_e: np.ndarray) -> dict[str, np.ndarray]:
    """Face-basis moments of the boundary and interface data: per datum of m
    components one array (n_faces, m(k+1)), zero off its face kind and if it
    is not given.  Each datum is sampled on all faces of its kind at once,
    with the outward normal its row names, the fluid's ("A") or the solid's
    ("E"; ``n_e`` on the interface faces ``gamma``); ``grad_v_inc`` enters
    by its normal part against the fluid's."""
    n_a = mesh.face_sign[:, :1] * mesh.face_normal
    n_a[gamma] = -n_e
    normal = {"A": n_a, "E": -n_a}
    rules, out = {}, {}
    for name, kind, m, side in (("dirichlet", FaceKind.GAMMA_AD, 1, None),
                                ("u_dirichlet", FaceKind.ELASTIC_BOUNDARY, 2, None),
                                ("neumann", FaceKind.GAMMA_AN, 1, "A"),
                                ("grad_v_inc", FaceKind.GAMMA, 1, "A"),
                                ("g1", FaceKind.GAMMA, 1, "E"),
                                ("v_inc", FaceKind.GAMMA, 1, None),
                                ("g2", FaceKind.GAMMA, 2, "E")):
        out[name] = np.zeros((mesh.n_faces, m * (k + 1)), dtype=complex)
        faces = gamma if kind is FaceKind.GAMMA else np.flatnonzero(mesh.is_kind(kind))
        if (fn := getattr(data, name)) is None or not len(faces):
            continue
        fr = rules[kind] = rules.get(kind) or face_rule(mesh, faces, k)
        normals = [normal[side][faces]] if side else []
        if name == "grad_v_inc":
            vals = (fr.sample(fn) @ normals[0][:, :, None])[..., 0]
        else:
            vals = fr.sample(fn, *normals)
        out[name][faces] = fr.moments(vals)
    return out


def _interface_blocks(assembler: Assembler, dofmap: DofMap, first: int, gamma: np.ndarray,
                      n_e: np.ndarray) -> list:
    """The diagonal interface blocks (row nodes, column nodes, values (n_gamma, 1, k+1)): velocity
    row to displacement trace, traction row to scalar trace, mode by mode through one normal
    component; a zero component pairs no nodes, as the ordering counts a stored zero as fill.
    ``gamma`` and ``n_e`` are as in ``_data_moments``."""
    kp1, params = assembler.k + 1, assembler.params
    v, u = (first + offset[gamma] // kp1 for offset in (dofmap.vhat_offset, dofmap.uhat_offset))
    return [(np.where(n_e[:, c] == 0, -1, rn), cn,
             np.broadcast_to(vals[:, None, None], (len(gamma), 1, kp1)))
            for c in (0, 1) for rn, cn, vals in ((v, u + c, -params.s * n_e[:, c]),
                                                 (u + c, v, params.rho_f * params.s * -n_e[:, c]))]


def _face_terms(assembler: Assembler, moments: dict[str, np.ndarray], dofmap: DofMap,
                rhs: np.ndarray, trace_base: int, gamma: np.ndarray, n_e: np.ndarray) -> None:
    """Neumann and interface data moments (those of ``_data_moments``), all
    faces of a kind at once; ``gamma`` and ``n_e`` as there."""
    mesh, kp1, params = assembler.mesh, assembler.k + 1, assembler.params
    neumann = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AN))
    rhs[trace_base + dofmap.vhat_offset[neumann, None] + np.arange(kp1)] += \
        moments["neumann"][neumann]
    v_idx = trace_base + dofmap.vhat_offset[gamma, None] + np.arange(kp1)
    rhs[v_idx] -= moments["grad_v_inc"][gamma]
    rhs[v_idx] += moments["g1"][gamma]
    # per displacement component: the incident field through n_A = -n_e, then g2
    g2 = moments["g2"][gamma].reshape(len(gamma), 2, kp1)
    for c in (0, 1):
        u_idx = trace_base + dofmap.uhat_offset[gamma, None] + c * kp1 + np.arange(kp1)
        rhs[u_idx] -= params.rho_f * params.s * -n_e[:, c, None] * moments["v_inc"][gamma]
        rhs[u_idx] += g2[:, c]


def solve_assembled(system: AssembledSystem) -> np.ndarray:
    """Solve the assembled system; records what the solve did in
    ``system.solve_stats``, also when the residual check then fails."""
    matrix = sp.csc_matrix(system.matrix)  # no copy of a CSC matrix
    try:
        lu = splu(matrix, permc_spec=ORDERING, diag_pivot_thresh=TAU,
                  options=dict(SymmetricMode=True))
        x = lu.solve(system.rhs)
    except RuntimeError as exc:
        raise SingularSkeletonSystem(f"sparse factorization failed: {exc}") from exc
    # relative to the right-hand side alone, so that the check does not
    # loosen on problems whose data are small; a zero rhs solves exactly
    residual = float(np.linalg.norm(matrix @ x - system.rhs))
    scale = float(np.linalg.norm(system.rhs))
    # SuperLU.nnz is free; L.nnz + U.nnz would copy both factors out
    system.solve_stats = SolveStats(
        ordering=ORDERING, n=matrix.shape[0], nnz=matrix.nnz, lu_fill=lu.nnz,
        off_diagonal_pivots=int((lu.perm_r != lu.perm_c).sum()),
        residual_rel=residual / scale if scale else residual,
        local_rcond=min((float(loc.ops.rcond[loc.shape].min())
                               for loc in system.locals_), default=1.0),
    )
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise SingularSkeletonSystem(
            f"face-system residual {residual:.3e} exceeds 1e-10 x {scale:.3e}"
        )
    return x


@dataclass
class FieldSolution:
    """Recovered coefficients of every field, as arrays over elements and faces.

    ``volume[domain]`` is (n_domain_elements, volume_dim), one row of volume
    unknowns per element of the domain ("E" or "A"; only domains that have
    elements), the rows in element order.  ``row`` (n_elements,) is the row
    of each element in its domain's array, so the unknowns of elements
    ``elems`` are ``volume[domain][row[elems]]``.  ``parts[name]`` is the
    column slice of one field, a view of its domain's array: sigma, u and
    gamma on solid elements, q and v on fluid ones.  ``uhat``
    (n_faces, 2(k+1)) and ``vhat`` (n_faces, k+1) are the solved or fixed
    trace coefficients of every face, zero where a face has no such trace;
    the traces of elements ``elems`` are ``uhat[mesh.element_faces[elems]]``.
    ``dof_values`` is the solved vector of skeleton unknowns.
    """

    volume: dict[str, np.ndarray]
    parts: dict[str, np.ndarray]
    row: np.ndarray
    uhat: np.ndarray
    vhat: np.ndarray
    dof_values: np.ndarray


def _face_values(skeleton: np.ndarray, offsets: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Trace coefficients of every face (n_faces, width): solved or fixed."""
    vals = fixed.copy()
    known = offsets >= 0
    vals[known] = skeleton[offsets[known, None] + np.arange(fixed.shape[1])]
    return vals


def recover_fields(assembler: Assembler, system: AssembledSystem,
                   x: np.ndarray) -> FieldSolution:
    mesh = assembler.mesh
    dofmap = system.dofmap
    skeleton = x[system.n_volume :]
    uhat = _face_values(skeleton, dofmap.uhat_offset, system.fixed_uhat)
    vhat = _face_values(skeleton, dofmap.vhat_offset, system.fixed_vhat)

    row = np.empty(mesh.n_elements, dtype=int)
    blocks: dict[str, list[np.ndarray]] = {}
    slices: dict[str, dict[str, slice]] = {}
    for loc in system.locals_:
        if system.volume_offsets is not None:
            vol = x[system.volume_offsets[loc.elems, None] + np.arange(loc.ops.volume_dim)]
        else:
            faces = mesh.element_faces[loc.elems]
            tr = (uhat if loc.domain == "E" else vhat)[faces].reshape(len(loc.elems), -1)
            vol = (loc.ops.lift_map[loc.shape] @ tr[..., None])[..., 0] + loc.rhs_volume
        done = blocks.setdefault(loc.domain, [])
        row[loc.elems] = sum(map(len, done)) + np.arange(len(loc.elems))
        done.append(vol)
        slices[loc.domain] = loc.ops.slices
    volume = {domain: np.concatenate(vols) for domain, vols in blocks.items()}
    parts = {name: volume[domain][:, sl]
             for domain, named in slices.items() for name, sl in named.items()}
    return FieldSolution(volume=volume, parts=parts, row=row, uhat=uhat, vhat=vhat,
                         dof_values=skeleton)


def solve_problem(mesh: Mesh, k: int, params: ModelParams, data: ProblemData,
                  monolithic: bool = False, assembler: Assembler | None = None,
                  dump_prefix: str | None = None):
    """Assemble, solve, and recover; returns (solution, assembled system).

    A given ``assembler`` must be the one of this mesh object, ``k`` and
    ``params``."""
    if assembler is None:
        assembler = Assembler(mesh, k, params)
    elif assembler.mesh is not mesh or assembler.k != k or assembler.params != params:
        raise ValueError("the assembler was built for another mesh, degree or parameters")
    system = assemble_system(assembler, data, monolithic=monolithic)
    if dump_prefix:
        dump_system(dump_prefix, system)
    x = solve_assembled(system)
    return recover_fields(assembler, system, x), system


def dump_system(prefix: str, system: AssembledSystem) -> None:
    """Write the matrix and right-hand side in Matrix Market format."""
    from scipy.io import mmwrite  # here, its one use: the import takes about 8 ms
    mmwrite(f"{prefix}_matrix.mtx", system.matrix)
    mmwrite(f"{prefix}_rhs.mtx", system.rhs.reshape(-1, 1))


def conservation_report(assembler: Assembler, data: ProblemData,
                        solution: FieldSolution) -> dict[str, float]:
    """Residuals of every face equation, rebuilt from pointwise fluxes.

    The fluxes are re-integrated from their definition (not taken from the
    assembled blocks), so this exercises an independent route through the
    discrete solution.  Returns the worst absolute residual per face class
    together with the largest flux moment for scale.
    """
    mesh, params, k = assembler.mesh, assembler.params, assembler.k
    kp1 = k + 1
    s, rho_f = params.s, params.rho_f

    # outward flux moments of every element face, per domain
    flux = {"E": np.zeros((mesh.n_elements, 3, 2 * kp1), dtype=complex),
            "A": np.zeros((mesh.n_elements, 3, kp1), dtype=complex)}
    for blk in assembler.blocks():
        vol = solution.volume[blk.domain][solution.row[blk.elems]]
        traces = (solution.uhat if blk.domain == "E" else solution.vhat)[blk.face_ids]
        flux[blk.domain][blk.elems] = reconstruct_flux(blk, params, vol, traces)
    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    n_e = elastic_side_normal(mesh, gamma)
    moments = _data_moments(mesh, k, data, gamma, n_e)

    def side_flux(domain: str, faces: np.ndarray, side) -> np.ndarray:
        return flux[domain][mesh.face_element[faces, side], mesh.face_local_edge[faces, side]]

    def worst(vals: np.ndarray) -> float:
        return float(np.abs(vals).max(initial=0.0))

    report = {"interior_jump": 0.0, "gamma_velocity": 0.0,
              "gamma_traction": 0.0, "neumann": 0.0,
              "flux_scale": max(worst(flux["E"]), worst(flux["A"]))}
    for domain, kind in (("A", FaceKind.INTERIOR_A), ("E", FaceKind.INTERIOR_E)):
        faces = np.flatnonzero(mesh.is_kind(kind))
        report["interior_jump"] = max(report["interior_jump"], worst(
            side_flux(domain, faces, 0) + side_flux(domain, faces, 1)))

    solid_first = mesh.tri_domain[mesh.face_element[gamma, 0]] == "E"
    fe = np.where(solid_first[:, None], side_flux("E", gamma, 0), side_flux("E", gamma, 1))
    fa = np.where(solid_first[:, None], side_flux("A", gamma, 1), side_flux("A", gamma, 0))
    n_a = -n_e
    uh = solution.uhat[gamma]
    r1 = (fa - s * (n_e[:, :1] * uh[:, :kp1] + n_e[:, 1:] * uh[:, kp1:])
          + moments["grad_v_inc"][gamma] - moments["g1"][gamma])
    report["gamma_velocity"] = worst(r1)
    v_tot = solution.vhat[gamma] + moments["v_inc"][gamma]
    r2 = -fe + rho_f * s * np.concatenate([n_a[:, :1] * v_tot, n_a[:, 1:] * v_tot], axis=1)
    report["gamma_traction"] = worst(r2 - moments["g2"][gamma])

    neumann = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AN))
    report["neumann"] = worst(side_flux("A", neumann, 0) - moments["neumann"][neumann])
    return report


def energy_quantities(assembler: Assembler, solution: FieldSolution) -> dict[str, float]:
    """Squared energy functionals whose positivity drives uniqueness.

    Solid part: Re(s) (compliance sigma, sigma) plus Re(s tau_E) times the
    squared face mismatch of the displacement and its trace; fluid part the
    same with the mass-weighted flux and scalar mismatch.
    """
    params = assembler.params
    re_s = params.s.real
    parts = solution.parts
    e_solid = 0.0
    e_fluid = 0.0
    for blk in assembler.blocks():
        nb, n_p = blk.scalar.shape[:2]
        rows = solution.row[blk.elems]
        tr = (solution.uhat if blk.domain == "E" else solution.vhat)[blk.face_ids]
        if blk.domain == "E":
            sig = blk.stress_at_points(parts["sigma"][rows])
            comp = hooke_inverse_apply(sig, params.lam, params.mu)
            e_solid += re_s * float(
                np.einsum("eq,eqrc->", blk.weights, (comp * sig.conj()).real)
            )
            u_f = blk.at_face_points(parts["u"][rows].reshape(nb, 2, n_p))
            mism = u_f - blk.traces_at_face_points(tr.reshape(nb, 3, 2, -1))
            e_solid += (params.s * params.tau_e).real * float(
                np.einsum("efp,efpc->", blk.faces.weights, np.abs(mism) ** 2)
            )
        else:
            q = blk.at_points(parts["q"][rows].reshape(nb, 2, n_p))
            e_fluid += re_s * params.rho_f * blk.l2sq(q)
            mism = (blk.at_face_points(parts["v"][rows])
                    - blk.traces_at_face_points(tr.reshape(nb, 3, -1)))
            e_fluid += (params.s * params.tau_a).real * params.rho_f * float(
                np.einsum("efp,efp->", blk.faces.weights, np.abs(mism) ** 2)
            )
    return {"elastic": e_solid, "acoustic": e_fluid}
