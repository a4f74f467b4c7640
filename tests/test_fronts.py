"""The multifrontal solver: nested dissection, fronts, threads and accuracy."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import hdgwave.skeleton as skeleton
from hdgwave.local_solver import Assembler
from hdgwave.mesh import build_structured_coupled
from hdgwave.skeleton import (
    ProblemData,
    SingularSkeletonSystem,
    assemble_system,
    solve_assembled,
)
from hdgwave.verify import make_case

COUPLED_BOXES = ((-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0))
UNIT = (0.0, 0.0, 1.0, 1.0)


def node_elements(system) -> list[list[int]]:
    """The elements of each node, read from the mesh face by face: a trace
    node's face elements, a volume node's element."""
    dm, kp1 = system.dofmap, system.dofmap.k + 1
    mesh = dm.mesh
    first = 0 if system.volume_offsets is None else mesh.n_elements
    elements = [[e] for e in range(first)] + [None] * (dm.n_dofs // kp1)
    for f in range(mesh.n_faces):
        for offset, count in ((dm.vhat_offset[f], 1), (dm.uhat_offset[f], 2)):
            for c in range(count if offset >= 0 else 0):
                elements[first + offset // kp1 + c] = [e for e in mesh.face_element[f] if e >= 0]
    return elements


def node_blocks(matrix: sp.csc_matrix, bounds: np.ndarray):
    """The node blocks of a matrix read from its CSC arrays, at the first
    column of each column node: column and row node, the block's offset in
    its columns, and whether it is diagonal (one row per column)."""
    n_nodes, width, indptr = len(bounds) - 1, np.diff(bounds), matrix.indptr
    c0 = bounds[:-1]
    entry = skeleton._ranges(indptr[c0], indptr[c0 + 1])
    cn = np.repeat(np.arange(n_nodes), indptr[c0 + 1] - indptr[c0])
    rn = np.repeat(np.arange(n_nodes), width)[matrix.indices[entry]]
    new = np.flatnonzero(np.diff(cn * n_nodes + rn, prepend=-1) != 0)
    diag = np.diff(np.append(new, len(entry))) < width[rn[new]]
    return cn[new], rn[new], entry[new] - indptr[c0[cn[new]]], diag


def check_fronts(system) -> None:
    """The stored node table is the one the matrix holds.  Each unknown is
    owned by exactly one front, a node by the lowest common ancestor of its
    elements' leaves, and each front's boundary set is exactly the
    ancestor-owned unknowns on faces of its subtree's elements; checked
    against a walk up the tree, node by node."""
    table, matrix = system.nodes, sp.csc_matrix(system.matrix)
    bounds = table.bounds
    for stored, read in zip((*np.divmod(table.keys, len(bounds) - 1), table.off, table.diag),
                            node_blocks(matrix, bounds)):
        assert np.array_equal(stored, read)
    fronts = skeleton._Fronts(system)
    mesh, n = system.dofmap.mesh, matrix.shape[0]
    parent, _, _, leaf = skeleton._bisect(mesh.vertices[mesh.tri_vertices].mean(axis=1))
    assert np.bincount(leaf).max() <= 4

    def up(front):  # the front and its ancestors, root last
        chain = [front]
        while parent[chain[-1]] >= 0:
            chain.append(parent[chain[-1]])
        return chain

    elements = node_elements(system)
    owner = []
    for elems in elements:
        common = set(up(leaf[elems[0]]))
        for e in elems[1:]:
            common &= set(up(leaf[e]))
        owner.append(max(common, key=lambda f: len(up(f))))
    assert np.array_equal(fronts.owner, owner)

    node_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    subtree = [set() for _ in parent]  # the elements under each front
    for e, lf in enumerate(leaf):
        for f in up(lf):
            subtree[f].add(e)
    owned = []
    for b in fronts.batches:
        for k, front in enumerate(b.fronts):
            own = b.start + k * b.n1 + np.arange(b.n1)
            owned.append(own)
            assert all(owner[node] == front for node in node_of[fronts.perm[own]])
            unknowns = fronts.perm[b.bidx[k]]
            assert len(set(unknowns)) == len(unknowns)
            strict = set(up(front)[1:])
            expect = {node for node, elems in enumerate(elements)
                      if owner[node] in strict and subtree[front] & set(elems)}
            assert set(node_of[unknowns]) == expect
            assert len(unknowns) == sum(np.diff(bounds)[list(expect)])
    assert np.array_equal(np.sort(np.concatenate(owned)), np.arange(n))


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["A", "E", "coupled"]), rung=st.integers(0, 2),
       jitter=st.sampled_from([0.0, 0.15]), seed=st.integers(0, 5),
       k=st.integers(1, 2), monolithic=st.booleans())
def test_nested_dissection_invariants(kind, rung, jitter, seed, k, monolithic):
    cells = (1, 2, 3)[rung]
    shape = {"jitter": jitter, "seed": seed}
    if kind == "coupled":
        mesh = build_structured_coupled(cells, *COUPLED_BOXES, **shape)
        case = make_case("coupled63")
    else:
        mesh = build_structured_coupled(2 * cells, UNIT, domain=kind, **shape)
        case = make_case("acoustic61" if kind == "A" else "elastic62")
    check_fronts(assemble_system(Assembler(mesh, k, case.params), ProblemData(), monolithic))


@pytest.mark.parametrize("monolithic", [False, True])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_ladder_meshes_keep_the_invariants(level, monolithic):
    case = make_case("coupled63")
    check_fronts(assemble_system(Assembler(case.mesh_at(level), 1, case.params), case.data,
                                 monolithic))


@pytest.mark.parametrize("monolithic", [False, True])
@pytest.mark.parametrize("name, overrides", [("acoustic61", {}), ("elastic62", {"poisson": 0.3}),
                                             ("elastic62", {"poisson": 0.49999}),
                                             ("coupled63", {})])
def test_solution_matches_a_direct_sparse_solve(name, overrides, monolithic):
    # the reference is SuperLU's solution after one refinement step: on the
    # nearly incompressible monolithic system its partial pivoting alone is
    # off by 4e-12.  That trace system's condition number is 6e5 here (the
    # monolithic one's 5e6); one rung up it is 2e6, and SuperLU and a dense
    # LU already differ by 8e-12
    case = make_case(name, **overrides)
    system = assemble_system(Assembler(case.mesh_at(1), 2, case.params), case.data, monolithic)
    x = solve_assembled(system)
    matrix = sp.csc_matrix(system.matrix)
    reference = spsolve(matrix, system.rhs)
    reference += spsolve(matrix, system.rhs - matrix @ reference)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


def test_repeated_solves_give_the_same_bits(monkeypatch):
    # the calling thread and one worker factor the root's subtrees; the root
    # adds their updates left, then right, so no interleaving of the threads
    # (switched every microsecond here) can reorder a sum
    case = make_case("coupled63")
    system = assemble_system(Assembler(case.mesh_at(4), 1, case.params), case.data)
    started, start = [], threading.Thread.start

    def count(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", count)
    before = threading.active_count()
    first = solve_assembled(system)
    assert len(started) == 1 and not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(4):
            assert solve_assembled(system).tobytes() == first.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_the_sweeps_run_on_the_calling_thread(monkeypatch):
    case = make_case("coupled63")
    system = assemble_system(Assembler(case.mesh_at(4), 1, case.params), case.data)
    matrix = sp.csc_matrix(system.matrix)
    factors = skeleton.factor_fronts(skeleton._Fronts(system), matrix)
    monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("a thread"))
    first = factors.solve(system.rhs)
    assert factors.solve(system.rhs).tobytes() == first.tobytes()


def test_a_mesh_of_four_elements_is_one_front_without_threads(monkeypatch):
    mesh = build_structured_coupled(1, (0.0, 0.0, 2.0, 1.0))
    case = make_case("acoustic61")
    system = assemble_system(Assembler(mesh, 3, case.params), case.data)
    fronts = skeleton._Fronts(system)
    assert mesh.n_elements == 4 and len(fronts.batches) == 1
    monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("a thread"))
    solve_assembled(system)


def test_singular_front_names_a_face():
    case = make_case("coupled63")
    system = assemble_system(Assembler(case.mesh_at(1), 1, case.params), case.data)
    # the rows and columns of one interior face's unknowns zeroed: its
    # front's F11 has a zero row and column
    dm = system.dofmap
    face = int(np.flatnonzero(dm.vhat_offset >= 0)[3])
    dead = np.zeros(dm.n_dofs, dtype=bool)
    dead[dm.vhat_offset[face] : dm.vhat_offset[face] + 2] = True
    matrix = system.matrix
    column = np.repeat(np.arange(dm.n_dofs), np.diff(matrix.indptr))
    matrix.data[dead[matrix.indices] | dead[column]] = 0.0
    with pytest.raises(SingularSkeletonSystem, match=r"singular front at face \d+"):
        solve_assembled(system)


def test_both_subtrees_singular_name_the_left_ones_front():
    case = make_case("coupled63")
    system = assemble_system(Assembler(case.mesh_at(1), 1, case.params), case.data)
    fronts = skeleton._Fronts(system)
    # the left subtree's last batch (its own root) and the right one's first
    # (its deepest fronts): the right subtree's failure comes first in time
    left = [b for b in fronts.batches if b.group == 0][-1].fronts[0]
    right = [b for b in fronts.batches if b.group == 1][0].fronts[0]
    bounds = system.nodes.bounds
    dead = np.zeros(system.dofmap.n_dofs, dtype=bool)
    for front in (left, right):
        node = np.flatnonzero(fronts.owner == front)[0]
        dead[bounds[node] : bounds[node + 1]] = True
    matrix = system.matrix
    column = np.repeat(np.arange(system.dofmap.n_dofs), np.diff(matrix.indptr))
    matrix.data[dead[matrix.indices] | dead[column]] = 0.0
    assert fronts.site(left) != fronts.site(right)
    for _ in range(3):
        with pytest.raises(SingularSkeletonSystem) as info:
            solve_assembled(system)
        assert str(info.value) == f"singular front at {fronts.site(left)}"
