"""Global face system: conservation rows, interface coupling, and recovery.

Unknowns live on mesh faces only: a vector trace on solid-side faces and a
scalar trace on fluid-side faces (interface faces carry both).  Dirichlet
faces are eliminated up front by projecting the boundary data onto the face
basis.  Each interior face equates the sum of the adjacent elements'
outward numerical-flux moments to zero; interface faces instead couple the
two fields through the normal-velocity and traction matching conditions.

Two assembly routes produce the same solution and share every block: the
condensed route scatters the per-element Schur complements, while the
monolithic route keeps all volume unknowns alongside the trace unknowns.
The second exists to cross-check the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite
from scipy.sparse.linalg import splu

from .local_solver import Assembler, LocalSystem, ModelParams, reconstruct_flux
from .mesh import FaceKind, Mesh, elastic_side_normal, face_rule


class SingularSkeletonSystem(RuntimeError):
    """Raised when the global face system cannot be solved reliably."""


@dataclass
class ProblemData:
    """Sources and boundary/interface data; any callable may be omitted.

    Point arrays have shape (n, 2).  ``neumann`` receives the outward unit
    normal of the fluid domain, ``g1``/``g2`` receive the outward normal of
    the solid domain; both may depend on it.
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
    uhat = np.full(mesh.n_faces, -1, dtype=int)
    vhat = np.full(mesh.n_faces, -1, dtype=int)
    next_free = 0
    for fid, face in enumerate(mesh.faces):
        if face.kind in _VHAT_UNKNOWN:
            vhat[fid] = next_free
            next_free += k + 1
        if face.kind in _UHAT_UNKNOWN:
            uhat[fid] = next_free
            next_free += 2 * (k + 1)
    return DofMap(mesh=mesh, k=k, uhat_offset=uhat, vhat_offset=vhat,
                  n_dofs=next_free)


def _fixed_traces(mesh: Mesh, k: int, data: ProblemData):
    """Face-basis coefficients of the eliminated Dirichlet traces."""
    fixed_uhat: dict[int, np.ndarray] = {}
    fixed_vhat: dict[int, np.ndarray] = {}
    for fid, face in enumerate(mesh.faces):
        if face.kind is FaceKind.GAMMA_AD:
            if data.dirichlet is None:
                fixed_vhat[fid] = np.zeros(k + 1, dtype=complex)
            else:
                fr = face_rule(mesh, fid, k)
                fixed_vhat[fid] = fr.moments(data.dirichlet(fr.points))
        elif face.kind is FaceKind.ELASTIC_BOUNDARY:
            if data.u_dirichlet is None:
                fixed_uhat[fid] = np.zeros(2 * (k + 1), dtype=complex)
            else:
                fr = face_rule(mesh, fid, k)
                fixed_uhat[fid] = fr.moments(data.u_dirichlet(fr.points))
    return fixed_uhat, fixed_vhat


@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    locals_: list[LocalSystem]
    fixed_uhat: dict[int, np.ndarray]
    fixed_vhat: dict[int, np.ndarray]
    n_volume: int
    volume_offsets: np.ndarray | None


def _element_columns(mesh: Mesh, dofmap: DofMap, loc: LocalSystem, elem: int,
                     fixed_uhat, fixed_vhat, trace_base: int):
    """Skeleton columns per local face, or None plus the fixed coefficients."""
    blk = loc.trace_dim // 3
    cols: list[np.ndarray | None] = []
    fixed_full = np.zeros(loc.trace_dim, dtype=complex)
    for le, fid in enumerate(mesh.element_faces[elem]):
        face = mesh.faces[fid]
        if loc.kind == "elastic":
            if face.kind is FaceKind.ELASTIC_BOUNDARY:
                fixed_full[le * blk : (le + 1) * blk] = fixed_uhat[fid]
                cols.append(None)
            else:
                cols.append(trace_base + dofmap.uhat_offset[fid] + np.arange(blk))
        else:
            if face.kind is FaceKind.GAMMA_AD:
                fixed_full[le * blk : (le + 1) * blk] = fixed_vhat[fid]
                cols.append(None)
            else:
                cols.append(trace_base + dofmap.vhat_offset[fid] + np.arange(blk))
    return cols, fixed_full


def _row_info(face_kind: FaceKind, kind: str, dofmap: DofMap, fid: int):
    """Global row offset and orientation sign for one element-side flux block."""
    if kind == "elastic":
        if face_kind is FaceKind.INTERIOR_E:
            return dofmap.uhat_offset[fid], 1.0
        if face_kind is FaceKind.GAMMA:
            return dofmap.uhat_offset[fid], -1.0
        return None, 0.0
    if face_kind is FaceKind.GAMMA_AD:
        return None, 0.0
    return dofmap.vhat_offset[fid], 1.0


def assemble_system(assembler: Assembler, data: ProblemData,
                    monolithic: bool = False) -> AssembledSystem:
    mesh, k = assembler.mesh, assembler.k
    dofmap = build_dof_map(mesh, k)
    fixed_uhat, fixed_vhat = _fixed_traces(mesh, k, data)
    locals_ = assembler.all_locals(f_acoustic=data.f, f_elastic=data.f_elastic)

    vol_off = None
    n_vol = 0
    if monolithic:
        dims = np.array([loc.volume_dim for loc in locals_], dtype=int)
        vol_off = np.concatenate([[0], np.cumsum(dims)])
        n_vol = int(vol_off[-1])
    trace_base = n_vol
    n_total = n_vol + dofmap.n_dofs

    rows_l: list[np.ndarray] = []
    cols_l: list[np.ndarray] = []
    vals_l: list[np.ndarray] = []
    rhs = np.zeros(n_total, dtype=complex)

    def add_block(r_idx: np.ndarray, c_idx: np.ndarray, block: np.ndarray) -> None:
        rows_l.append(np.repeat(r_idx, len(c_idx)))
        cols_l.append(np.tile(c_idx, len(r_idx)))
        vals_l.append(np.asarray(block, dtype=complex).ravel())

    for elem, loc in enumerate(locals_):
        blk = loc.trace_dim // 3
        cols, fixed_full = _element_columns(
            mesh, dofmap, loc, elem, fixed_uhat, fixed_vhat, trace_base
        )
        for le, fid in enumerate(mesh.element_faces[elem]):
            row0, sign = _row_info(mesh.faces[fid].kind, loc.kind, dofmap, fid)
            if row0 is None:
                continue
            r_idx = trace_base + row0 + np.arange(blk)
            r_sl = slice(le * blk, (le + 1) * blk)
            flux_cols = loc.flux_trace if monolithic else loc.condensed_map
            for lc in range(3):
                block = flux_cols[r_sl, lc * blk : (lc + 1) * blk]
                if monolithic and lc != le:
                    continue  # the direct trace block is face-diagonal
                if cols[lc] is None:
                    rhs[r_idx] -= sign * (block @ fixed_full[lc * blk : (lc + 1) * blk])
                else:
                    add_block(r_idx, cols[lc], sign * block)
            if monolithic:
                v_idx = vol_off[elem] + np.arange(loc.volume_dim)
                add_block(r_idx, v_idx, sign * loc.flux_volume[r_sl])
            else:
                rhs[r_idx] -= sign * loc.rhs_trace[r_sl]
        if monolithic:
            v_idx = vol_off[elem] + np.arange(loc.volume_dim)
            add_block(v_idx, v_idx, loc.matrix)
            for lc in range(3):
                bblock = loc.trace_coupling[:, lc * blk : (lc + 1) * blk]
                if cols[lc] is None:
                    rhs[v_idx] += bblock @ fixed_full[lc * blk : (lc + 1) * blk]
                else:
                    add_block(v_idx, cols[lc], -bblock)
            rhs[v_idx] += loc.source_moments

    _face_terms(assembler, data, dofmap, add_block, rhs, trace_base)

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


def _face_terms(assembler: Assembler, data: ProblemData, dofmap: DofMap,
                add_block, rhs: np.ndarray, trace_base: int) -> None:
    """Boundary-data moments and the interface coupling blocks (once per face)."""
    mesh, k, params = assembler.mesh, assembler.k, assembler.params
    kp1 = k + 1
    eye = np.eye(kp1)
    s, rho_f = params.s, params.rho_f

    for fid, face in enumerate(mesh.faces):
        if face.kind is FaceKind.GAMMA_AN:
            if data.neumann is None:
                continue
            r_idx = trace_base + dofmap.vhat_offset[fid] + np.arange(kp1)
            side = face.sides[0]
            n_out = side.sign * face.normal
            fr = face_rule(mesh, fid, k)
            rhs[r_idx] += fr.moments(data.neumann(fr.points, n_out))
        elif face.kind is FaceKind.GAMMA:
            n_e = elastic_side_normal(mesh, fid)
            n_a = -n_e
            v_idx = trace_base + dofmap.vhat_offset[fid] + np.arange(kp1)
            u0 = trace_base + dofmap.uhat_offset[fid]
            ux_idx = u0 + np.arange(kp1)
            uy_idx = u0 + kp1 + np.arange(kp1)
            # normal-velocity row couples to the displacement trace ...
            add_block(v_idx, ux_idx, -s * n_e[0] * eye)
            add_block(v_idx, uy_idx, -s * n_e[1] * eye)
            # ... and the traction row to the scalar trace
            add_block(ux_idx, v_idx, rho_f * s * n_a[0] * eye)
            add_block(uy_idx, v_idx, rho_f * s * n_a[1] * eye)
            if (data.grad_v_inc is None and data.g1 is None
                    and data.v_inc is None and data.g2 is None):
                continue
            fr = face_rule(mesh, fid, k)
            if data.grad_v_inc is not None:
                gv = np.asarray(data.grad_v_inc(fr.points), dtype=complex)
                rhs[v_idx] -= fr.moments(gv @ n_a)
            if data.g1 is not None:
                rhs[v_idx] += fr.moments(data.g1(fr.points, n_e))
            if data.v_inc is not None:
                vi = fr.moments(data.v_inc(fr.points))
                rhs[ux_idx] -= rho_f * s * n_a[0] * vi
                rhs[uy_idx] -= rho_f * s * n_a[1] * vi
            if data.g2 is not None:
                g2m = fr.moments(data.g2(fr.points, n_e))
                rhs[ux_idx] += g2m[:kp1]
                rhs[uy_idx] += g2m[kp1:]


def solve_assembled(system: AssembledSystem) -> np.ndarray:
    try:
        lu = splu(system.matrix.tocsc())
        x = lu.solve(system.rhs)
    except RuntimeError as exc:
        raise SingularSkeletonSystem(f"sparse factorization failed: {exc}") from exc
    residual = float(np.linalg.norm(system.matrix @ x - system.rhs))
    scale = max(1.0, float(np.linalg.norm(system.rhs)))
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise SingularSkeletonSystem(
            f"face-system residual {residual:.3e} exceeds 1e-10 x {scale:.3e}"
        )
    return x


@dataclass
class FieldSolution:
    """Recovered coefficients of every field, per element and per face."""

    mesh: Mesh
    k: int
    params: ModelParams
    volume: dict[int, np.ndarray]
    parts: dict[str, dict[int, np.ndarray]]
    traces: dict[int, np.ndarray]
    uhat: dict[int, np.ndarray]
    vhat: dict[int, np.ndarray]
    dof_values: np.ndarray
    n_skeleton: int


def recover_fields(assembler: Assembler, system: AssembledSystem,
                   x: np.ndarray) -> FieldSolution:
    mesh = assembler.mesh
    dofmap = system.dofmap
    trace_base = system.n_volume
    skeleton = x[trace_base:]

    parts: dict[str, dict[int, np.ndarray]] = {
        name: {} for name in ("sigma", "u", "gamma", "q", "v")
    }
    volume: dict[int, np.ndarray] = {}
    traces: dict[int, np.ndarray] = {}
    for elem, loc in enumerate(system.locals_):
        blk = loc.trace_dim // 3
        tr = np.zeros(loc.trace_dim, dtype=complex)
        for le, fid in enumerate(mesh.element_faces[elem]):
            sl = slice(le * blk, (le + 1) * blk)
            if loc.kind == "elastic":
                off = dofmap.uhat_offset[fid]
                tr[sl] = skeleton[off : off + blk] if off >= 0 else system.fixed_uhat[fid]
            else:
                off = dofmap.vhat_offset[fid]
                tr[sl] = skeleton[off : off + blk] if off >= 0 else system.fixed_vhat[fid]
        if system.volume_offsets is not None:
            vol = x[system.volume_offsets[elem] : system.volume_offsets[elem + 1]]
        else:
            vol = loc.lift_map @ tr + loc.rhs_volume
        volume[elem] = vol
        traces[elem] = tr
        for name, sl in loc.slices.items():
            parts[name][elem] = vol[sl]

    kp1 = assembler.k + 1
    uhat: dict[int, np.ndarray] = {}
    vhat: dict[int, np.ndarray] = {}
    for fid, face in enumerate(mesh.faces):
        uo, vo = dofmap.uhat_offset[fid], dofmap.vhat_offset[fid]
        if uo >= 0:
            uhat[fid] = skeleton[uo : uo + 2 * kp1]
        elif face.kind is FaceKind.ELASTIC_BOUNDARY:
            uhat[fid] = system.fixed_uhat[fid]
        if vo >= 0:
            vhat[fid] = skeleton[vo : vo + kp1]
        elif face.kind is FaceKind.GAMMA_AD:
            vhat[fid] = system.fixed_vhat[fid]

    return FieldSolution(
        mesh=mesh,
        k=assembler.k,
        params=assembler.params,
        volume=volume,
        parts=parts,
        traces=traces,
        uhat=uhat,
        vhat=vhat,
        dof_values=skeleton,
        n_skeleton=dofmap.n_dofs,
    )


def solve_problem(mesh: Mesh, k: int, params: ModelParams, data: ProblemData,
                  monolithic: bool = False, assembler: Assembler | None = None,
                  dump_prefix: str | None = None):
    """Assemble, solve, and recover; returns (solution, assembled system)."""
    assembler = assembler or Assembler(mesh, k, params)
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

    flux: dict[int, list[np.ndarray]] = {}
    for elem in range(mesh.n_elements):
        tab = assembler.tables(elem)
        flux[elem] = reconstruct_flux(
            tab, params, solution.volume[elem], solution.traces[elem]
        )

    report = {"interior_jump": 0.0, "gamma_velocity": 0.0,
              "gamma_traction": 0.0, "neumann": 0.0, "flux_scale": 0.0}
    for elem_f in flux.values():
        for m in elem_f:
            report["flux_scale"] = max(report["flux_scale"], float(np.abs(m).max()))

    for fid, face in enumerate(mesh.faces):
        if face.kind in (FaceKind.INTERIOR_A, FaceKind.INTERIOR_E):
            total = sum(flux[side.element][side.local_edge] for side in face.sides)
            report["interior_jump"] = max(report["interior_jump"],
                                          float(np.abs(total).max()))
        elif face.kind is FaceKind.GAMMA:
            e_side = next(sd for sd in face.sides
                          if mesh.tri_domain[sd.element] == "E")
            a_side = next(sd for sd in face.sides
                          if mesh.tri_domain[sd.element] == "A")
            fe = flux[e_side.element][e_side.local_edge]
            fa = flux[a_side.element][a_side.local_edge]
            n_e = elastic_side_normal(mesh, fid)
            n_a = -n_e
            uh = solution.uhat[fid]
            vh = solution.vhat[fid]
            fr = face_rule(mesh, fid, k)
            r1 = fa - s * (n_e[0] * uh[:kp1] + n_e[1] * uh[kp1:])
            if data.grad_v_inc is not None:
                gv = np.asarray(data.grad_v_inc(fr.points), dtype=complex)
                r1 += fr.moments(gv @ n_a)
            if data.g1 is not None:
                r1 -= fr.moments(data.g1(fr.points, n_e))
            report["gamma_velocity"] = max(report["gamma_velocity"],
                                           float(np.abs(r1).max()))
            v_tot = vh.astype(complex).copy()
            if data.v_inc is not None:
                v_tot += fr.moments(data.v_inc(fr.points))
            r2 = -np.concatenate([fe[:kp1], fe[kp1:]]) + rho_f * s * np.concatenate(
                [n_a[0] * v_tot, n_a[1] * v_tot]
            )
            if data.g2 is not None:
                r2 -= fr.moments(data.g2(fr.points, n_e))
            report["gamma_traction"] = max(report["gamma_traction"],
                                           float(np.abs(r2).max()))
        elif face.kind is FaceKind.GAMMA_AN:
            side = face.sides[0]
            r = flux[side.element][side.local_edge].astype(complex).copy()
            if data.neumann is not None:
                fr = face_rule(mesh, fid, k)
                n_out = side.sign * face.normal
                r -= fr.moments(data.neumann(fr.points, n_out))
            report["neumann"] = max(report["neumann"], float(np.abs(r).max()))
    return report


def energy_quantities(assembler: Assembler, solution: FieldSolution) -> dict[str, float]:
    """Squared energy functionals whose positivity drives uniqueness.

    Solid part: Re(s) (compliance sigma, sigma) plus Re(s tau_E) times the
    squared face mismatch of the displacement and its trace; fluid part the
    same with the mass-weighted flux and scalar mismatch.
    """
    from .local_solver import hooke_inverse_apply  # local import avoids cycles

    params = assembler.params
    mesh = assembler.mesh
    re_s = params.s.real
    e_solid = 0.0
    e_fluid = 0.0
    kp1 = assembler.k + 1
    for elem in range(mesh.n_elements):
        tab = assembler.tables(elem)
        w = tab.weights
        n_p = tab.n_scalar
        vol = solution.volume[elem]
        tr = solution.traces[elem]
        if tab.domain == "E":
            sig = np.einsum("j,jqrc->qrc", vol[: tab.stress_vals.shape[0]],
                            tab.stress_vals)
            comp = hooke_inverse_apply(sig, params.lam, params.mu)
            e_solid += re_s * float(
                np.einsum("q,qrc->", w, (comp * sig.conj()).real)
            )
            uc = vol[tab.stress_vals.shape[0] : tab.stress_vals.shape[0] + 2 * n_p]
            for f, ft in enumerate(tab.faces):
                th = tr[f * 2 * kp1 : (f + 1) * 2 * kp1]
                ux = ft.scalar.T @ uc[:n_p] - ft.basis.T @ th[:kp1]
                uy = ft.scalar.T @ uc[n_p:] - ft.basis.T @ th[kp1:]
                mism = float(np.sum(ft.weights * (np.abs(ux) ** 2 + np.abs(uy) ** 2)))
                e_solid += (params.s * params.tau_e).real * mism
        else:
            qc = vol[: 2 * n_p]
            qv = np.stack([tab.scalar.T @ qc[:n_p], tab.scalar.T @ qc[n_p:]], axis=1)
            e_fluid += re_s * params.rho_f * float(
                np.einsum("q,qr->", w, np.abs(qv) ** 2)
            )
            vc = vol[2 * n_p :]
            for f, ft in enumerate(tab.faces):
                vv = ft.scalar.T @ vc - ft.basis.T @ tr[f * kp1 : (f + 1) * kp1]
                e_fluid += (params.s * params.tau_a).real * params.rho_f * float(
                    np.sum(ft.weights * np.abs(vv) ** 2)
                )
    return {"elastic": e_solid, "acoustic": e_fluid}
