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

The trace system is LU-factored by SuperLU with a minimum-degree ordering
of A + A^T.  The matrix is structurally symmetric: a face's rows couple to
the traces of the faces of its neighbouring elements, which couple back to
it, and the two interface rows couple the scalar and the displacement
traces in both directions.  An ordering of A + A^T therefore sees the
pattern the factors will have, where SuperLU's default COLAMD orders A^T A
and overestimates the fill (26.8M against 11.5M entries on the coupled63
k=3 system of 61,696 unknowns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite
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


@dataclass
class SolveStats:
    """What one sparse solve did: the column ordering, the order ``n`` and the
    stored entries ``nnz`` of the matrix, the entries SuperLU stores for L and
    U (``lu_fill``), ``residual_rel`` = ||A x - b|| / ||b|| (||A x - b|| if
    b = 0), and the elements' least local ``rcond`` (1 without any)."""

    ordering: str
    n: int
    nnz: int
    lu_fill: int
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
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    locals_: list[BlockLocals]
    fixed_uhat: np.ndarray      # (n_faces, 2(k+1))
    fixed_vhat: np.ndarray      # (n_faces, k+1)
    n_volume: int
    volume_offsets: np.ndarray | None
    solve_stats: SolveStats | None = None  # set by solve_assembled


def _local_faces(mesh: Mesh, dofmap: DofMap, loc: BlockLocals):
    """Skeleton offset (-1: eliminated) and flux-row sign (0: no row) of each
    element face of a block.  Interface rows are those of the fluid side, so
    the solid flux enters them with the opposite sign."""
    faces = mesh.element_faces[loc.elems]
    if loc.domain == "E":
        offset = dofmap.uhat_offset[faces]
        # interface faces are the only ones that carry both traces
        sign = np.where(dofmap.vhat_offset[faces] >= 0, -1.0, 1.0)
    else:
        offset = dofmap.vhat_offset[faces]
        sign = np.ones(faces.shape)
    return faces, offset, np.where(offset >= 0, sign, 0.0)


def assemble_system(assembler: Assembler, data: ProblemData,
                    monolithic: bool = False) -> AssembledSystem:
    mesh, k = assembler.mesh, assembler.k
    dofmap = build_dof_map(mesh, k)
    moments = _data_moments(mesh, k, data)
    # the eliminated Dirichlet traces, zero on the faces whose trace is an unknown
    fixed_uhat = np.zeros((mesh.n_faces, 2 * (k + 1)), dtype=complex)
    fixed_vhat = np.zeros((mesh.n_faces, k + 1), dtype=complex)
    for name, kind, fixed in (("dirichlet", FaceKind.GAMMA_AD, fixed_vhat),
                              ("u_dirichlet", FaceKind.ELASTIC_BOUNDARY, fixed_uhat)):
        if name in moments:
            fixed[mesh.is_kind(kind)] = moments[name]
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

    rows_l: list[np.ndarray] = []
    cols_l: list[np.ndarray] = []
    vals_l: list[np.ndarray] = []
    rhs = np.zeros(n_total, dtype=complex)

    def add(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, keep) -> None:
        """Entries vals at (rows, cols) where keep holds, all broadcast together."""
        shape = np.broadcast_shapes(rows.shape, cols.shape, vals.shape, np.shape(keep))
        mask = np.broadcast_to(keep, shape)
        for out, arr in ((rows_l, rows), (cols_l, cols), (vals_l, vals)):
            out.append(np.broadcast_to(arr, shape)[mask])

    for loc in locals_:
        nb = len(loc.elems)
        blk = loc.ops.trace_dim // 3
        faces, offset, sign = _local_faces(mesh, dofmap, loc)
        fixed = (fixed_uhat if loc.domain == "E" else fixed_vhat)[faces].reshape(nb, -1)
        idx = trace_base + offset[..., None] + np.arange(blk)  # (nb, 3, blk)
        known = offset >= 0
        r_idx, r_sign = idx[..., None, None], sign[..., None, None, None]
        c_idx, c_known = idx[:, None, None], known[:, None, None, :, None]
        r_known = known[..., None, None, None]
        if monolithic:
            _, (a, b, c, d), _, _ = assembler.shape_blocks(loc.ops.reps[loc.shape], loc.domain)
            # the direct trace block is face-diagonal
            add(r_idx, c_idx, r_sign * d.reshape(nb, 3, blk, 3, blk),
                r_known & c_known & np.eye(3, dtype=bool)[None, :, None, :, None])
            v_idx = vol_off[loc.elems, None] + np.arange(loc.ops.volume_dim)
            add(idx[..., None], v_idx[:, None, None],
                sign[..., None, None] * c.reshape(nb, 3, blk, -1), known[..., None, None])
            add(v_idx[..., None], v_idx[:, None], a, True)
            add(v_idx[..., None, None], idx[:, None], -b.reshape(nb, -1, 3, blk),
                known[:, None, :, None])
            rhs[v_idx] += (b @ fixed[..., None])[..., 0] + loc.source_moments
        else:
            condensed = loc.ops.condensed_map[loc.shape].reshape(nb, 3, blk, 3, blk)
            add(r_idx, c_idx, r_sign * condensed, r_known & c_known)
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

    _face_terms(assembler, moments, dofmap, add, rhs, trace_base)

    matrix = sp.coo_matrix(
        (np.concatenate(vals_l), (np.concatenate(rows_l), np.concatenate(cols_l))),
        shape=(n_total, n_total),
    ).tocsr()
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


def _data_moments(mesh: Mesh, k: int, data: ProblemData) -> dict[str, np.ndarray]:
    """Face-basis moments of the given boundary and interface data, all faces
    of a kind at once, one row per face in face order: ``dirichlet`` on the
    fluid's Dirichlet faces, ``u_dirichlet`` on the solid's boundary faces,
    ``neumann`` on the Neumann faces, sampled with the fluid's outward
    normal, and on the interface faces ``grad_v_inc`` (its normal part
    against the fluid's outward normal), ``g1``, ``v_inc`` and ``g2``, the
    two ``g`` sampled with the solid's outward normal."""
    out = {}
    for name, kind in (("dirichlet", FaceKind.GAMMA_AD),
                       ("u_dirichlet", FaceKind.ELASTIC_BOUNDARY),
                       ("neumann", FaceKind.GAMMA_AN)):
        faces = np.flatnonzero(mesh.is_kind(kind))
        if (fn := getattr(data, name)) is not None and len(faces):
            fr = face_rule(mesh, faces, k)
            n_out = mesh.face_sign[faces, :1] * mesh.face_normal[faces]
            out[name] = fr.moments(fr.sample(fn, n_out) if name == "neumann" else fr.sample(fn))
    given = {name: fn for name in ("grad_v_inc", "g1", "v_inc", "g2")
             if (fn := getattr(data, name)) is not None}
    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    if given and len(gamma):
        fr = face_rule(mesh, gamma, k)
        n_e = elastic_side_normal(mesh, gamma)
        for name, fn in given.items():
            vals = fr.sample(fn, n_e) if name in ("g1", "g2") else fr.sample(fn)
            if name == "grad_v_inc":
                vals = (vals @ -n_e[:, :, None])[..., 0]
            out[name] = fr.moments(vals)
    return out


def _face_terms(assembler: Assembler, moments: dict[str, np.ndarray], dofmap: DofMap,
                add, rhs: np.ndarray, trace_base: int) -> None:
    """Neumann and interface data moments (those of ``_data_moments``) and
    the interface coupling blocks, all faces of a kind at once."""
    mesh, k, params = assembler.mesh, assembler.k, assembler.params
    kp1 = k + 1
    eye = np.eye(kp1)
    s, rho_f = params.s, params.rho_f

    if "neumann" in moments:
        neumann = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AN))
        rhs[trace_base + dofmap.vhat_offset[neumann, None] + np.arange(kp1)] += \
            moments["neumann"]

    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    if not len(gamma):
        return
    n_e = elastic_side_normal(mesh, gamma)
    n_a = -n_e
    v_idx = trace_base + dofmap.vhat_offset[gamma, None] + np.arange(kp1)
    ux_idx = trace_base + dofmap.uhat_offset[gamma, None] + np.arange(kp1)
    uy_idx = ux_idx + kp1
    # normal-velocity row couples to the displacement trace ...
    add(v_idx[..., None], ux_idx[:, None], -s * n_e[:, 0, None, None] * eye, True)
    add(v_idx[..., None], uy_idx[:, None], -s * n_e[:, 1, None, None] * eye, True)
    # ... and the traction row to the scalar trace
    add(ux_idx[..., None], v_idx[:, None], rho_f * s * n_a[:, 0, None, None] * eye, True)
    add(uy_idx[..., None], v_idx[:, None], rho_f * s * n_a[:, 1, None, None] * eye, True)
    if "grad_v_inc" in moments:
        rhs[v_idx] -= moments["grad_v_inc"]
    if "g1" in moments:
        rhs[v_idx] += moments["g1"]
    if "v_inc" in moments:
        rhs[ux_idx] -= rho_f * s * n_a[:, 0, None] * moments["v_inc"]
        rhs[uy_idx] -= rho_f * s * n_a[:, 1, None] * moments["v_inc"]
    if "g2" in moments:
        rhs[ux_idx] += moments["g2"][:, :kp1]
        rhs[uy_idx] += moments["g2"][:, kp1:]


def solve_assembled(system: AssembledSystem) -> np.ndarray:
    """Solve the assembled system; records what the solve did in
    ``system.solve_stats``, also when the residual check then fails."""
    matrix = system.matrix
    try:
        lu = splu(matrix.tocsc(), permc_spec=ORDERING)
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
    mmwrite(f"{prefix}_matrix.mtx", system.matrix.tocoo())
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
    moments = _data_moments(mesh, k, data)

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

    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    if len(gamma):
        solid_first = mesh.tri_domain[mesh.face_element[gamma, 0]] == "E"
        fe = np.where(solid_first[:, None], side_flux("E", gamma, 0), side_flux("E", gamma, 1))
        fa = np.where(solid_first[:, None], side_flux("A", gamma, 1), side_flux("A", gamma, 0))
        n_e = elastic_side_normal(mesh, gamma)
        n_a = -n_e
        uh = solution.uhat[gamma]
        # data that are not given enter as 0, which moves no residual's size
        r1 = (fa - s * (n_e[:, :1] * uh[:, :kp1] + n_e[:, 1:] * uh[:, kp1:])
              + moments.get("grad_v_inc", 0.0) - moments.get("g1", 0.0))
        report["gamma_velocity"] = worst(r1)
        v_tot = solution.vhat[gamma] + moments.get("v_inc", 0.0)
        r2 = -fe + rho_f * s * np.concatenate([n_a[:, :1] * v_tot, n_a[:, 1:] * v_tot], axis=1)
        report["gamma_traction"] = worst(r2 - moments.get("g2", 0.0))

    neumann = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AN))
    report["neumann"] = worst(side_flux("A", neumann, 0) - moments.get("neumann", 0.0))
    return report


def energy_quantities(assembler: Assembler, solution: FieldSolution) -> dict[str, float]:
    """Squared energy functionals whose positivity drives uniqueness.

    Solid part: Re(s) (compliance sigma, sigma) plus Re(s tau_E) times the
    squared face mismatch of the displacement and its trace; fluid part the
    same with the mass-weighted flux and scalar mismatch.
    """
    params = assembler.params
    re_s = params.s.real
    e_solid = 0.0
    e_fluid = 0.0
    for blk in assembler.blocks():
        nb, n_p = blk.scalar.shape[:2]
        vol = solution.volume[blk.domain][solution.row[blk.elems]]
        tr = (solution.uhat if blk.domain == "E" else solution.vhat)[blk.face_ids]
        if blk.domain == "E":
            n_sig = blk.stress_n.shape[2]
            sig = blk.stress_at_points(vol[:, :n_sig])
            comp = hooke_inverse_apply(sig, params.lam, params.mu)
            e_solid += re_s * float(
                np.einsum("eq,eqrc->", blk.weights, (comp * sig.conj()).real)
            )
            u_f = blk.at_face_points(vol[:, n_sig : n_sig + 2 * n_p].reshape(nb, 2, n_p))
            mism = u_f - blk.traces_at_face_points(tr.reshape(nb, 3, 2, -1))
            e_solid += (params.s * params.tau_e).real * float(
                np.einsum("efp,efpc->", blk.faces.weights, np.abs(mism) ** 2)
            )
        else:
            q = blk.at_points(vol[:, : 2 * n_p].reshape(nb, 2, n_p))
            e_fluid += re_s * params.rho_f * blk.l2sq(q)
            mism = (blk.at_face_points(vol[:, 2 * n_p :])
                    - blk.traces_at_face_points(tr.reshape(nb, 3, -1)))
            e_fluid += (params.s * params.tau_a).real * params.rho_f * float(
                np.einsum("efp,efp->", blk.faces.weights, np.abs(mism) ** 2)
            )
    return {"elastic": e_solid, "acoustic": e_fluid}
