"""Global trace system: assembly, solve, recovery, and the face residuals."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io as sio
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

import hdgwave.local_solver as local_solver
import hdgwave.skeleton as skeleton
from hdgwave.local_solver import Assembler, ModelParams, hooke_inverse_apply
from hdgwave.mesh import (
    KINDS,
    FaceKind,
    build_structured_coupled,
    elastic_side_normal,
    face_rule,
    validate_mesh,
)
from hdgwave.skeleton import (
    ProblemData,
    SingularSkeletonSystem,
    assemble_system,
    build_dof_map,
    conservation_report,
    dump_system,
    energy_quantities,
    solve_assembled,
    solve_problem,
)
from hdgwave.verify import make_case, make_polynomial_case

COUPLED_BOXES = ((-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0))


# -- degree-of-freedom bookkeeping -------------------------------------------


def test_dof_count_acoustic_unit_square():
    # n=2 unit square: 16 faces, 8 boundary (eliminated), 8 interior scalar
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0))
    assert build_dof_map(mesh, 1).n_dofs == 8 * 2
    assert build_dof_map(mesh, 3).n_dofs == 8 * 4


def test_dof_count_elastic_unit_square():
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0), domain="E")
    assert build_dof_map(mesh, 1).n_dofs == 8 * 2 * 2


def test_dof_count_coupled_coarsest():
    # 56 faces: 16 outer Dirichlet, 8 interface, 8 solid interior, 24 fluid
    # interior; scalar unknowns on 24 + 8 faces, displacement on 8 + 8.
    mesh = build_structured_coupled(1, *COUPLED_BOXES)
    kinds = [KINDS[code] for code in mesh.face_kind]
    assert kinds.count(FaceKind.GAMMA_AD) == 16
    assert kinds.count(FaceKind.GAMMA) == 8
    assert kinds.count(FaceKind.INTERIOR_E) == 8
    assert kinds.count(FaceKind.INTERIOR_A) == 24
    dm = build_dof_map(mesh, 1)
    assert dm.n_dofs == (24 + 8) * 2 + (8 + 8) * 4
    # every face has the expected offset pattern
    for fid, kind in enumerate(kinds):
        has_v = dm.vhat_offset[fid] >= 0
        has_u = dm.uhat_offset[fid] >= 0
        if kind is FaceKind.GAMMA:
            assert has_v and has_u
        elif kind is FaceKind.INTERIOR_A:
            assert has_v and not has_u
        elif kind is FaceKind.INTERIOR_E:
            assert has_u and not has_v
        else:
            assert not has_v and not has_u


# -- condensed vs monolithic --------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_monolithic_matches_condensed_acoustic(k):
    case = make_case("acoustic61")
    mesh = case.mesh_at(0)
    assert mesh.n_elements == 8
    sol_c, _ = solve_problem(mesh, k, case.params, case.data)
    sol_m, _ = solve_problem(mesh, k, case.params, case.data, monolithic=True)
    scale = max(np.abs(sol_c.dof_values).max(), 1e-30)
    assert np.abs(sol_c.dof_values - sol_m.dof_values).max() < 1e-9 * scale
    assert sol_c.volume.keys() == sol_m.volume.keys() == {"A"}
    vol_c, vol_m = sol_c.volume["A"], sol_m.volume["A"]
    assert vol_c.shape == vol_m.shape == (mesh.n_elements, 3 * (k + 1) * (k + 2) // 2)
    # one scale per element (row), not one for the whole domain
    vs = np.maximum(np.abs(vol_c).max(axis=1), scale)
    assert np.all(np.abs(vol_c - vol_m).max(axis=1) < 1e-9 * vs)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_recovered_fields_do_not_depend_on_the_block_size(monkeypatch):
    # blocks of 1 and 7 split both domains (32 solid, 96 fluid elements)
    # with a remainder; the default size leaves one partial block each
    case = make_case("coupled63")
    mesh = build_structured_coupled(2, *COUPLED_BOXES, jitter=0.15, seed=5)
    sols = []
    for size in (1, 7, local_solver.BLOCK_SIZE):
        monkeypatch.setattr(local_solver, "BLOCK_SIZE", size)
        sols.append(solve_problem(mesh, 2, case.params, case.data)[0])
    fields = {"E": ("sigma", "u", "gamma"), "A": ("q", "v")}
    for sol in sols:
        assert sol.volume.keys() == fields.keys()
        for domain, names in fields.items():
            elems = np.flatnonzero(mesh.tri_domain == domain)
            assert np.array_equal(sol.row[elems], np.arange(len(elems)))
            for name in names:
                assert np.shares_memory(sol.parts[name], sol.volume[domain])
            # the parts tile their domain's columns in order
            tiled = np.concatenate([sol.parts[name] for name in names], axis=1)
            assert same_bits(tiled, sol.volume[domain])
        assert sol.parts.keys() == {"sigma", "u", "gamma", "q", "v"}
    ref = sols[-1]
    for sol in sols[:-1]:
        for domain in fields:
            assert same_bits(sol.volume[domain], ref.volume[domain])
        assert same_bits(sol.uhat, ref.uhat) and same_bits(sol.vhat, ref.vhat)


@pytest.mark.parametrize("k", [1, 2])
def test_monolithic_matches_condensed_coupled(k):
    case = make_case("coupled63")
    mesh = case.mesh_at(0)
    sol_c, _ = solve_problem(mesh, k, case.params, case.data)
    sol_m, _ = solve_problem(mesh, k, case.params, case.data, monolithic=True)
    scale = max(np.abs(sol_c.dof_values).max(), 1e-30)
    assert np.abs(sol_c.dof_values - sol_m.dof_values).max() < 1e-9 * scale


def test_monolithic_system_is_larger_but_recovers_same_fields():
    case = make_case("acoustic61")
    mesh = case.mesh_at(0)
    asm = Assembler(mesh, 1, case.params)
    system_c = assemble_system(asm, case.data)
    system_m = assemble_system(asm, case.data, monolithic=True)
    n_vol = sum(len(loc.elems) * loc.ops.volume_dim for loc in system_m.locals_)
    assert system_m.matrix.shape[0] == system_c.matrix.shape[0] + n_vol
    assert system_m.volume_offsets[-1] == n_vol and system_c.volume_offsets is None


# -- boundary handling --------------------------------------------------------


def test_dirichlet_traces_are_face_projections():
    case = make_case("acoustic61")
    mesh = case.mesh_at(0)
    sol, system = solve_problem(mesh, 2, case.params, case.data)
    seen = 0
    for fid in np.flatnonzero(mesh.is_kind(FaceKind.GAMMA_AD)):
        fr = face_rule(mesh, fid, 2)
        assert np.abs(sol.vhat[fid] - fr.moments(fr.sample(case.exact.v))).max() < 1e-13
        seen += 1
    assert seen == 8


def test_elastic_dirichlet_traces_are_face_projections():
    case = make_case("elastic62")
    mesh = case.mesh_at(0)
    sol, _ = solve_problem(mesh, 1, case.params, case.data)
    for fid in np.flatnonzero(mesh.is_kind(FaceKind.ELASTIC_BOUNDARY)):
        fr = face_rule(mesh, fid, 1)
        assert np.abs(sol.uhat[fid] - fr.moments(fr.sample(case.exact.u))).max() < 1e-13


def with_neumann_side(mesh):
    """``mesh`` with its x = xmax Dirichlet faces made Neumann."""
    mid_x = mesh.vertices[mesh.face_vertices, 0].mean(axis=1)
    mesh.face_kind[mesh.is_kind(FaceKind.GAMMA_AD) & (mid_x == mesh.vertices[:, 0].max())] = \
        KINDS.index(FaceKind.GAMMA_AN)
    validate_mesh(mesh)
    return mesh


def neumann_square():
    """Unit square, n = 2, whose x = xmax boundary faces are Neumann."""
    return with_neumann_side(build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0)))


@pytest.mark.parametrize("k", [1, 2])
def test_neumann_faces_reproduce_polynomials(k):
    # replace the x = xmax boundary by prescribed-flux faces, whose flux
    # q.n_out the case gives; a degree-k polynomial solution must still be
    # reproduced to round-off
    case = make_polynomial_case("acoustic", k)
    mesh = neumann_square()
    n_neu = int(np.count_nonzero(mesh.is_kind(FaceKind.GAMMA_AN)))
    assert n_neu == 2
    sol, _ = solve_problem(mesh, k, case.params, case.data)
    asm = Assembler(mesh, k, case.params)
    from hdgwave.verify import compute_errors

    errors = compute_errors(asm, sol, case.exact)
    assert errors["v"] < 1e-10 and errors["q"] < 1e-10


def test_neumann_without_data_means_zero_flux():
    mesh = neumann_square()
    params = ModelParams.from_young_poisson(1.0, 0.3, s=2.0 - 1.0j)
    sol, _ = solve_problem(mesh, 1, params, ProblemData(f=lambda p: np.ones(len(p))))
    asm = Assembler(mesh, 1, params)
    rep = conservation_report(asm, ProblemData(), sol)
    assert rep["neumann"] < 1e-10 * max(rep["flux_scale"], 1.0)


@pytest.mark.parametrize("k", [1, 3])
def test_data_moments_are_arrays_over_all_faces(k):
    # one array per datum over every face: the moments of the datum on the
    # faces of its kind, sampled with the outward normal it takes, and zero
    # on every other face and where the datum is not given
    def scalar(pts, *n):
        return pts[:, 0] ** 2 - 1j * pts[:, 1] + sum(3.0 * v[:, 0] - v[:, 1] for v in n)

    def vector(pts, *n):
        return np.stack([scalar(pts, *n), pts[:, 0] * pts[:, 1] + 0.5j], axis=1)

    data = ProblemData(dirichlet=scalar, u_dirichlet=vector, neumann=scalar,
                       grad_v_inc=vector, g1=scalar, v_inc=scalar, g2=vector)
    # Dirichlet, Neumann (x = 2) and interface faces; solid boundary faces
    for mesh in (with_neumann_side(build_structured_coupled(1, *COUPLED_BOXES)),
                 build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0), domain="E")):
        gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
        n_e = elastic_side_normal(mesh, gamma)
        given = skeleton._data_moments(mesh, k, data, gamma, n_e)
        absent = skeleton._data_moments(mesh, k, ProblemData(), gamma, n_e)
        for name, kind, m, normal in (
                ("dirichlet", FaceKind.GAMMA_AD, 1, None),
                ("u_dirichlet", FaceKind.ELASTIC_BOUNDARY, 2, None),
                ("neumann", FaceKind.GAMMA_AN, 1, np.array([1.0, 0.0])),  # outward at x = 2
                ("g1", FaceKind.GAMMA, 1, n_e),
                ("v_inc", FaceKind.GAMMA, 1, None),
                ("g2", FaceKind.GAMMA, 2, n_e)):
            on = mesh.is_kind(kind)
            assert given[name].shape == absent[name].shape == (mesh.n_faces, m * (k + 1))
            assert not absent[name].any() and not given[name][~on].any()
            fr = face_rule(mesh, np.flatnonzero(on), k)
            normals = [] if normal is None else [np.broadcast_to(normal, (on.sum(), 2))]
            assert np.array_equal(given[name][on], fr.moments(fr.sample(getattr(data, name),
                                                                        *normals)))
        # the normal part of the gradient against the fluid's outward normal
        fr = face_rule(mesh, gamma, k)
        want = fr.moments(np.sum(fr.sample(vector) * -n_e[:, None], axis=-1))
        assert np.abs(given["grad_v_inc"][gamma] - want).max(initial=0.0) <= 1e-14
        assert not given["grad_v_inc"][~mesh.is_kind(FaceKind.GAMMA)].any()
        assert not absent["grad_v_inc"].any()


# -- solved-state residuals ---------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_interior_fluxes_single_valued_after_solve(k):
    case = make_case("coupled63")
    mesh = case.mesh_at(1)
    asm = Assembler(mesh, k, case.params)
    sol, _ = solve_problem(mesh, k, case.params, case.data, assembler=asm)
    rep = conservation_report(asm, case.data, sol)
    tol = 1e-10 * max(rep["flux_scale"], 1.0)
    assert rep["interior_jump"] < tol
    assert rep["gamma_velocity"] < tol
    assert rep["gamma_traction"] < tol


def test_transmission_rows_hold_for_polynomial_coupled_case():
    case = make_polynomial_case("coupled", 2)
    mesh = case.mesh_at(0)
    asm = Assembler(mesh, 2, case.params)
    sol, _ = solve_problem(mesh, 2, case.params, case.data, assembler=asm)
    rep = conservation_report(asm, case.data, sol)
    tol = 1e-10 * max(rep["flux_scale"], 1.0)
    assert max(rep["interior_jump"], rep["gamma_velocity"],
               rep["gamma_traction"]) < tol


# -- uniqueness and well-posedness guards -------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_homogeneous_coupled_problem_has_only_zero_solution(k):
    mesh = build_structured_coupled(1, *COUPLED_BOXES)
    params = ModelParams.from_young_poisson(1.0, 0.3, s=2.0 - 1.0j)
    asm = Assembler(mesh, k, params)
    sol, _ = solve_problem(mesh, k, params, ProblemData(), assembler=asm)
    assert np.abs(sol.dof_values).max() < 1e-12
    assert max(np.abs(v).max() for v in sol.volume.values()) < 1e-12
    energies = energy_quantities(asm, sol)
    assert abs(energies["elastic"]) < 1e-20
    assert abs(energies["acoustic"]) < 1e-20


def test_energy_quantities_positive_for_nonzero_solution():
    case = make_case("coupled63")
    mesh = case.mesh_at(0)
    asm = Assembler(mesh, 1, case.params)
    sol, _ = solve_problem(mesh, 1, case.params, case.data, assembler=asm)
    energies = energy_quantities(asm, sol)
    assert energies["elastic"] > 0.0
    assert energies["acoustic"] > 0.0


def independent_energies(asm, sol) -> tuple[dict, dict]:
    """The functionals of ``energy_quantities`` and their face-mismatch
    parts, element by element: the fields through the reference basis at
    the reference coordinates of the volume and face-rule points, the
    traces through the face rule's basis."""
    mesh, params, ref, k = asm.mesh, asm.params, asm.ref, asm.k
    total, face = {"E": 0.0, "A": 0.0}, {"E": 0.0, "A": 0.0}
    for blk in asm.map_blocks(lambda blk: blk):
        for i, e in enumerate(blk.elems):
            v0, v1, v2 = mesh.vertices[mesh.tri_vertices[e]]
            jac = np.column_stack([v1 - v0, v2 - v0])
            row, faces = sol.row[e], mesh.element_faces[e]
            fr = face_rule(mesh, faces, k)  # points (3, nfq, 2)
            at_faces = ref.eval_values(np.linalg.solve(jac, (fr.points - v0).reshape(-1, 2).T).T)
            weights = ref.quad.weights * abs(np.linalg.det(jac))
            if blk.domain == "E":
                coef = sol.parts["sigma"][row]
                n_pk = 4 * ref.n_scalar  # the P_k members, slot-major, then the enrichment
                sig = (coef[:n_pk].reshape(4, -1) @ ref.values).T.reshape(-1, 2, 2)
                sig = sig + np.einsum("m,mqrc->qrc", coef[n_pk:], blk.enrichment[i])
                comp = hooke_inverse_apply(sig, params.lam, params.mu)
                volume = params.s.real * np.einsum("q,qrc,qrc->", weights, comp, sig.conj()).real
                u = sol.parts["u"][row].reshape(2, -1) @ at_faces  # (2, 3 nfq)
                uhat = np.einsum("fcm,fmp->cfp", sol.uhat[faces].reshape(3, 2, -1), fr.basis)
                mism = np.abs(u - uhat.reshape(2, -1)) ** 2 @ fr.weights.ravel()
                face["E"] += (params.s * params.tau_e).real * mism.sum()
            else:
                q = sol.parts["q"][row].reshape(2, -1) @ ref.values
                volume = params.s.real * params.rho_f * (np.abs(q) ** 2 @ weights).sum()
                v = sol.parts["v"][row] @ at_faces
                vhat = np.einsum("fm,fmp->fp", sol.vhat[faces], fr.basis).ravel()
                face["A"] += ((params.s * params.tau_a).real * params.rho_f
                              * np.abs(v - vhat) ** 2 @ fr.weights.ravel())
            total[blk.domain] += volume
    return {name: total[d] + face[d] for name, d in (("elastic", "E"), ("acoustic", "A"))}, face


def test_energy_quantities_match_an_independent_evaluation():
    case = make_case("coupled63")
    mesh, k = case.mesh_at(0), 2
    asm = Assembler(mesh, k, case.params)
    sol, _ = solve_problem(mesh, k, case.params, case.data, assembler=asm)
    want, face = independent_energies(asm, sol)
    got = energy_quantities(asm, sol)
    for name, domain in (("elastic", "E"), ("acoustic", "A")):
        # each face-mismatch part is far above the tolerance
        assert face[domain] > 1e-6 * want[name] > 0.0
        assert got[name] == pytest.approx(want[name], rel=1e-10), name


def test_ill_posed_parameters_rejected_before_assembly():
    with pytest.raises(ValueError, match="well-posedness"):
        ModelParams.from_young_poisson(1.0, 0.3, s=-2.0 + 1.0j)
    with pytest.raises(ValueError, match="well-posedness"):
        ModelParams.from_young_poisson(1.0, 0.3, s=1.0j)


def test_solve_problem_refuses_an_assembler_of_another_problem(monkeypatch):
    # the parent solved the assembler's own problem and ignored the rest
    case = make_case("acoustic61")
    mesh = case.mesh_at(1)
    other = ModelParams.from_young_poisson(1.0, 0.3, s=3.0 - 1.0j)
    monkeypatch.setattr(skeleton, "assemble_system",
                        lambda *a, **kw: pytest.fail("assembled"))
    for asm in (Assembler(case.mesh_at(0), 2, case.params),
                Assembler(build_structured_coupled(4, (0.0, 0.0, 1.0, 1.0)), 2, case.params),
                Assembler(mesh, 1, case.params), Assembler(mesh, 2, other)):
        with pytest.raises(ValueError, match="another mesh, degree or parameters"):
            solve_problem(mesh, 2, case.params, case.data, assembler=asm)
    monkeypatch.undo()
    sol, system = solve_problem(mesh, 2, case.params, case.data,
                                assembler=Assembler(mesh, 2, case.params))
    assert system.dofmap.mesh is mesh and system.dofmap.k == 2
    assert sol.vhat.shape == (mesh.n_faces, 3)


def test_solve_problem_goes_through_the_patchable_solve_assembled(monkeypatch):
    # the benchmark replaces skeleton.solve_assembled and reads the mesh, the
    # matrix and the right-hand side of every system it is handed
    import hdgwave.verify as verify

    seen = []
    original = skeleton.solve_assembled

    def probed(system):
        seen.append((system.dofmap.mesh, system.matrix, system.rhs))
        return original(system)

    monkeypatch.setattr(skeleton, "solve_assembled", probed)
    case = make_case("coupled63")
    mesh = case.mesh_at(1)
    asm = Assembler(mesh, 1, case.params)
    assert verify.solve_problem is skeleton.solve_problem
    for monolithic in (False, True):
        sol, system = verify.solve_problem(mesh, 1, case.params, case.data,
                                           monolithic=monolithic, assembler=asm)
        assert len(seen) == 1
        solved_mesh, matrix, rhs = seen.pop()
        assert solved_mesh is mesh
        assert matrix is system.matrix and rhs is system.rhs
        assert matrix.shape == (len(rhs), len(rhs)) and matrix.nnz > 0


def test_residual_bound_is_relative_to_the_rhs(monkeypatch):
    # a solution whose residual is 1e-8 of a small rhs must be refused; an
    # absolute floor of 1e-10 let it through whenever ||rhs|| < 1.  Each
    # solve errs by 1e-4 of its solution's norm in the last unknown, so the
    # refinement step leaves 1e-8 of it
    def sloppy(fronts, matrix):
        def solve(rhs):
            x = spsolve(matrix, rhs)
            x[-1] += 1e-4 * np.linalg.norm(x)
            return x
        return SimpleNamespace(entries=0, solve=solve)

    monkeypatch.setattr(skeleton, "factor_fronts", sloppy)
    case = make_case("acoustic61")
    mesh = build_structured_coupled(1, (0.0, 0.0, 2.0, 1.0))
    system = assemble_system(Assembler(mesh, 1, case.params), case.data)
    system.rhs *= 1e-3 / np.linalg.norm(system.rhs)
    with pytest.raises(SingularSkeletonSystem, match="residual"):
        solve_assembled(system)
    # a zero right-hand side solves exactly and passes
    system.rhs = np.zeros_like(system.rhs)
    assert np.array_equal(solve_assembled(system), np.zeros(len(system.rhs)))


def test_trace_system_is_ordered_on_a_plus_a_transpose():
    case = make_case("coupled63")
    mesh = build_structured_coupled(2, *COUPLED_BOXES, jitter=0.15, seed=1)
    system = assemble_system(Assembler(mesh, 2, case.params), case.data)
    matrix = system.matrix
    # the premise of the fronts: A and A^T store the same pattern, so a
    # front's columns hold the rows its transpose part needs
    pattern = matrix.copy()
    pattern.data[:] = 1.0
    assert (pattern != pattern.T).nnz == 0

    x = solve_assembled(system)
    stats = system.solve_stats
    assert (stats.n, stats.nnz) == (matrix.shape[0], matrix.nnz)
    assert stats.residual_rel < 1e-10
    # the fronts store no more than SuperLU's factors on a minimum-degree
    # ordering of A + A^T
    lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert stats.factor_entries <= lu.nnz
    reference = lu.solve(system.rhs)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("jitter", [None, 0.15])
def test_coupled_trace_matrix_stores_no_zero(jitter):
    # the interface coupling blocks are diagonal, and axis-parallel faces
    # zero one normal component: those pair no nodes
    case = make_case("coupled63")
    shape = {} if jitter is None else {"jitter": jitter, "seed": 1}
    mesh = build_structured_coupled(2, *COUPLED_BOXES, **shape)
    matrix = assemble_system(Assembler(mesh, 2, case.params), case.data).matrix
    assert matrix.nnz > 0
    assert np.count_nonzero(matrix.data == 0) == 0


def test_factorization_reads_the_assembled_matrix_without_a_copy(monkeypatch):
    seen, factor = [], skeleton.factor_fronts

    def spy(fronts, matrix):
        seen.append(matrix)
        return factor(fronts, matrix)

    monkeypatch.setattr(skeleton, "factor_fronts", spy)
    case = make_case("acoustic61")
    system = assemble_system(Assembler(case.mesh_at(1), 1, case.params), case.data)
    solve_assembled(system)
    (factored,) = seen
    assert system.matrix.format == factored.format == "csc"
    assert np.shares_memory(factored.data, system.matrix.data)
    assert np.shares_memory(factored.indices, system.matrix.indices)


def test_near_incompressible_solid_keeps_the_fill_of_the_ordering():
    # the fronts depend on the mesh alone, so a nearly incompressible solid
    # stores what a compressible one does, and one refinement step keeps
    # its residual at round-off
    stats = {}
    for nu in (0.3, 0.49999):
        case = make_case("elastic62", poisson=nu)
        system = assemble_system(Assembler(case.mesh_at(3), 3, case.params), case.data)
        solve_assembled(system)
        stats[nu] = system.solve_stats
    assert stats[0.49999].factor_entries == stats[0.3].factor_entries
    assert stats[0.49999].residual_rel <= 1e-12


@pytest.mark.parametrize("k", [1, 3])
def test_forward_error_reads_what_the_residual_does_not(k):
    # near s = 0 the nearly incompressible coupled system loses digits that
    # its residual (round-off at both s) does not show; the refinement
    # step's correction, against the solution, does
    forward = {}
    for s in (1e-6 + 1e-3j, 2.0 - 1.0j):
        case = make_polynomial_case("coupled", k, poisson=0.49999, s=s)
        _, system = solve_problem(case.mesh_at(1), k, case.params, case.data)
        assert system.solve_stats.residual_rel < 1e-13
        forward[s] = system.solve_stats.forward_error
    assert forward[1e-6 + 1e-3j] >= 1e-7
    assert forward[2.0 - 1.0j] <= 1e-11


# -- serialization of the assembled system ------------------------------------


def test_dump_system_writes_matrix_market(tmp_path):
    case = make_case("acoustic61")
    mesh = case.mesh_at(0)
    asm = Assembler(mesh, 1, case.params)
    system = assemble_system(asm, case.data)
    prefix = str(tmp_path / "sys")
    dump_system(prefix, system)
    mat = sio.mmread(f"{prefix}_matrix.mtx").tocsr()
    rhs = np.asarray(sio.mmread(f"{prefix}_rhs.mtx")).ravel()
    assert mat.shape == system.matrix.shape
    assert abs(mat - system.matrix).max() < 1e-15
    assert np.abs(rhs - system.rhs).max() < 1e-15


def test_solve_problem_dump_prefix(tmp_path):
    case = make_case("acoustic61")
    mesh = case.mesh_at(0)
    prefix = str(tmp_path / "run")
    solve_problem(mesh, 1, case.params, case.data, dump_prefix=prefix)
    assert (tmp_path / "run_matrix.mtx").exists()
    assert (tmp_path / "run_rhs.mtx").exists()


# -- interface coupling sanity -------------------------------------------------


def test_interface_rows_couple_both_trace_families():
    mesh = build_structured_coupled(1, *COUPLED_BOXES)
    for rho_f in (1.0, 2.5):
        params = ModelParams.from_young_poisson(1.0, 0.3, s=2.0 - 1.0j, rho_f=rho_f)
        asm = Assembler(mesh, 1, params)
        system = assemble_system(asm, ProblemData())
        dm = system.dofmap
        mat = system.matrix
        for fid in np.flatnonzero(mesh.is_kind(FaceKind.GAMMA)):
            v0, u0 = dm.vhat_offset[fid], dm.uhat_offset[fid]
            block_vu = mat[v0 : v0 + 2, u0 : u0 + 4].toarray()
            block_uv = mat[u0 : u0 + 4, v0 : v0 + 2].toarray()
            assert np.abs(block_vu).max() > 1e-12
            assert np.abs(block_uv).max() > 1e-12
            # the two couplings act through the same geometric normal: the
            # velocity row uses -s n_E, the traction row rho_f s n_A = -rho_f
            # s n_E weighted by 1/rho_f as the solid's flux rows are: -s n_E
            ratio = []
            for r in range(2):
                for c in range(2):
                    a, b = block_vu[r, 2 * c], block_uv[2 * c, r]
                    if abs(a) > 1e-12:
                        ratio.append(b / a)
            assert np.abs(np.array(ratio) - 1.0).max() < 1e-12


def test_zero_incident_wave_keeps_interface_rows_homogeneous():
    mesh = build_structured_coupled(1, *COUPLED_BOXES)
    params = ModelParams.from_young_poisson(1.0, 0.3, s=2.0 - 1.0j)
    asm = Assembler(mesh, 1, params)
    system = assemble_system(asm, ProblemData())
    assert np.abs(system.rhs).max() == 0.0


@pytest.mark.parametrize("rho_f, s", [(2.5, 2.0 - 1.0j), (2.5, 0.3 + 4.0j)])
@pytest.mark.parametrize("jitter", [None, 0.15])
def test_row_scaled_coupled_matrix_is_complex_symmetric(rho_f, s, jitter):
    # assembly weights the solid's flux rows by -1/rho_f (the interface
    # traction rows with them; monolithic, each volume field's rows by its
    # own sign), which makes the stored matrix equal its (unconjugated)
    # transpose, on both routes; a slip in a row factor or in an interface
    # coupling block breaks this
    shape = {} if jitter is None else {"jitter": jitter, "seed": 2}
    mesh = build_structured_coupled(2, *COUPLED_BOXES, **shape)
    params = ModelParams(s=s, rho_f=rho_f)
    for monolithic in (False, True):
        matrix = assemble_system(Assembler(mesh, 2, params), ProblemData(), monolithic).matrix
        assert abs(matrix - matrix.T).max() <= 1e-13 * abs(matrix).max()


# -- the in-place CSC assembly against triplets --------------------------------


# the monolithic volume rows' signs, per field, in units of 1/rho_f on the solid
VOLUME_ROW_SIGN = {"sigma": 1.0, "u": -1.0, "gamma": 1.0, "q": -1.0, "v": 1.0}


def reference_row_scale(dofmap, rho_f, locals_, vol_off):
    """The diagonal R that makes the conservation rows complex-symmetric: 1
    on the fluid-trace rows, -1/rho_f on the solid-trace rows off the
    interface and +1/rho_f on it (where the solid flux enters negated);
    monolithic (``vol_off``), each element's volume rows by field, over rho_f
    on the solid."""
    kp1, n_vol = dofmap.k + 1, 0 if vol_off is None else int(vol_off[-1])
    scale = np.ones(n_vol + dofmap.n_dofs)
    solid = np.flatnonzero(dofmap.uhat_offset >= 0)
    on_gamma = dofmap.mesh.is_kind(FaceKind.GAMMA)[solid]
    scale[n_vol + dofmap.uhat_offset[solid, None] + np.arange(2 * kp1)] = \
        np.where(on_gamma, 1.0, -1.0)[:, None] / rho_f
    for loc in locals_ if vol_off is not None else ():
        for name, sl in loc.ops.slices.items():
            scale[vol_off[loc.elems, None] + np.arange(sl.start, sl.stop)] = \
                VOLUME_ROW_SIGN[name] / (rho_f if loc.domain == "E" else 1.0)
    return scale


def coo_assembly(assembler, data, monolithic):
    """The trace system summed from COO triplets, entry by entry: every
    element block and interface coupling entry as a (row, column, value)
    triplet, summed by scipy's COO to CSC conversion.  The conservation
    rows (the solid ones negated on the interface) are weighted by
    ``reference_row_scale``, folded into each real row factor before any
    complex product."""
    mesh, k = assembler.mesh, assembler.k
    dofmap = build_dof_map(mesh, k)
    gamma = np.flatnonzero(mesh.is_kind(FaceKind.GAMMA))
    n_e = elastic_side_normal(mesh, gamma)
    moments = skeleton._data_moments(mesh, k, data, gamma, n_e)
    fixed_uhat, fixed_vhat = moments["u_dirichlet"], moments["dirichlet"]
    locals_ = assembler.all_locals(f_acoustic=data.f, f_elastic=data.f_elastic)
    vol_off, n_vol = None, 0
    if monolithic:
        dims = np.zeros(mesh.n_elements, dtype=int)
        for loc in locals_:
            dims[loc.elems] = loc.ops.volume_dim
        vol_off = np.concatenate([[0], np.cumsum(dims)])
        n_vol = int(vol_off[-1])
    n_total = n_vol + dofmap.n_dofs
    s, rho_f = assembler.params.s, assembler.params.rho_f
    scale = reference_row_scale(dofmap, rho_f, locals_, vol_off)
    triplets = []
    rhs = np.zeros(n_total, dtype=complex)

    def add(rows, cols, vals, keep):
        shape = np.broadcast_shapes(rows.shape, cols.shape, vals.shape, np.shape(keep))
        mask = np.broadcast_to(keep, shape)
        triplets.append([np.broadcast_to(arr, shape)[mask] for arr in (rows, cols, vals)])

    for loc in locals_:
        nb = len(loc.elems)
        blk = loc.ops.trace_dim // 3
        faces = mesh.element_faces[loc.elems]
        if loc.domain == "E":
            offset = dofmap.uhat_offset[faces]
            sign = np.where(dofmap.vhat_offset[faces] >= 0, -1.0, 1.0)
        else:
            offset = dofmap.vhat_offset[faces]
            sign = np.ones(faces.shape)
        fixed = (fixed_uhat if loc.domain == "E" else fixed_vhat)[faces].reshape(nb, -1)
        idx = n_vol + offset[..., None] + np.arange(blk)
        known = offset >= 0
        sign = np.where(known, sign * scale[np.where(known, idx[..., 0], 0)], 0.0)
        r_idx, r_sign = idx[..., None, None], sign[..., None, None, None]
        c_idx, c_known = idx[:, None, None], known[:, None, None, :, None]
        r_known = known[..., None, None, None]
        if monolithic:
            (a, b, c, d), _, _ = assembler.shape_blocks(loc.elems, loc.domain)
            add(r_idx, c_idx, r_sign * d.reshape(nb, 3, blk, 3, blk),
                r_known & c_known & np.eye(3, dtype=bool)[None, :, None, :, None])
            v_idx = vol_off[loc.elems, None] + np.arange(loc.ops.volume_dim)
            a, b = scale[v_idx][..., None] * a, scale[v_idx][..., None] * b
            add(idx[..., None], v_idx[:, None, None],
                sign[..., None, None] * c.reshape(nb, 3, blk, -1), known[..., None, None])
            add(v_idx[..., None], v_idx[:, None], a, True)
            add(v_idx[..., None, None], idx[:, None], -b.reshape(nb, -1, 3, blk),
                known[:, None, :, None])
            rhs[v_idx] += (b @ fixed[..., None])[..., 0] + scale[v_idx] * loc.source_moments
        else:
            condensed = loc.ops.condensed_map[loc.shape].reshape(nb, 3, blk, 3, blk)
            add(r_idx, c_idx, r_sign * condensed, r_known & c_known)
            by_face = condensed.transpose(0, 1, 3, 2, 4)
            terms = np.concatenate(
                [(by_face @ fixed.reshape(nb, 1, 3, blk, 1))[..., 0],
                 loc.rhs_trace.reshape(nb, 3, 1, blk)], axis=2) * sign[..., None, None]
            used = np.concatenate([~known, np.ones((nb, 1), dtype=bool)], axis=1)
            use = known[:, :, None] & used[:, None, :]
            np.subtract.at(rhs, np.broadcast_to(idx[:, :, None], terms.shape)[use], terms[use])

    if len(gamma):
        n_a = -n_e
        v_idx = n_vol + dofmap.vhat_offset[gamma, None] + np.arange(k + 1)
        ux_idx = n_vol + dofmap.uhat_offset[gamma, None] + np.arange(k + 1)
        for c, u_idx in enumerate((ux_idx, ux_idx + k + 1)):
            nonzero = n_e[:, c, None] != 0
            add(v_idx, u_idx, -s * n_e[:, c, None], nonzero)
            add(u_idx, v_idx, scale[u_idx] * rho_f * s * n_a[:, c, None], nonzero)
    skeleton._face_terms(assembler, moments, dofmap, rhs, n_vol, gamma, n_e)
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_total, n_total)).tocsc(), rhs


ORACLE_MESHES = {
    "acoustic61": lambda shape: build_structured_coupled(4, (0.0, 0.0, 1.0, 1.0), **shape),
    "elastic62": lambda shape: build_structured_coupled(4, (0.0, 0.0, 1.0, 1.0), domain="E",
                                                        **shape),
    "coupled63": lambda shape: build_structured_coupled(2, *COUPLED_BOXES, **shape),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("jitter", [None, 0.15])
@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_in_place_assembly_has_the_bits_of_summed_triplets(monkeypatch, name, jitter, k):
    # each entry sums at most two terms, whose order cannot move a bit, so
    # the scatter into the CSC arrays must reproduce the triplet sum exactly
    case = make_case(name, **({"poisson": 0.49999} if name == "elastic62" else {}))
    mesh = ORACLE_MESHES[name]({} if jitter is None else {"jitter": jitter, "seed": 3})
    for size in (7, local_solver.BLOCK_SIZE):
        monkeypatch.setattr(local_solver, "BLOCK_SIZE", size)
        for monolithic in (False, True):
            asm = Assembler(mesh, k, case.params)
            system = assemble_system(asm, case.data, monolithic=monolithic)
            matrix, rhs = coo_assembly(asm, case.data, monolithic)
            got = system.matrix
            assert got.format == "csc" and got.has_canonical_format
            for ours, theirs in ((got.indptr, matrix.indptr), (got.indices, matrix.indices),
                                 (got.data, matrix.data), (system.rhs, rhs)):
                assert same_bits(ours, theirs)


def test_assembly_holds_little_beyond_the_matrix():
    # the transient of assembly (its peak less what stays alive) was 3.4 times
    # the CSC arrays with triplet lists, and is 1.4 times with the in-place
    # scatter, most of it one block's positions and values
    case = make_case("coupled63")
    asm = Assembler(case.mesh_at(3), 3, case.params)
    tracemalloc.start()
    try:
        system = assemble_system(asm, case.data)
        alive, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = system.matrix
    csc_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak - alive <= 2.0 * csc_bytes
    # the node table shares the matrix's CSC arrays, not copies of them
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(system.nodes, name), getattr(matrix, name))
