"""The post-processing walk, ``Assembler.map_blocks``.

Error norms, theta, the conservation report and the energies walk the
blocks on two threads.  They must give the bits of a serial walk over the
same runs of elements, pass an exception of the exact fields to the caller
as raised, and start no thread on a mesh of one block.
"""

import dataclasses
import time

import numpy as np
import pytest

import hdgwave.local_solver as local_solver
from hdgwave.local_solver import Assembler
from hdgwave.mesh import build_structured_coupled
from hdgwave.projections import compute_theta
from hdgwave.skeleton import conservation_report, energy_quantities, solve_problem
from hdgwave.verify import ExactFields, compute_errors, make_case


class Poisoned(Exception):
    pass


def solved_coupled(monkeypatch):
    """A jittered coupled mesh of 32 solid and 96 fluid elements, in blocks
    of at most 7 (5 solid and 14 fluid blocks), solved at k=2."""
    monkeypatch.setattr(local_solver, "BLOCK_SIZE", 7)
    case = make_case("coupled63")
    mesh = build_structured_coupled(2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0),
                                    jitter=0.15, seed=5)
    asm = Assembler(mesh, 2, case.params)
    sol, _ = solve_problem(mesh, 2, case.params, case.data, assembler=asm)
    return case, asm, sol


def runs(mesh):
    """(elements, domain) of each block: solid first, each domain's elements
    in element order, by runs of ``BLOCK_SIZE``."""
    size = local_solver.BLOCK_SIZE
    return [(elems[start : start + size], domain) for domain in ("E", "A")
            for elems in [np.flatnonzero(mesh.tri_domain == domain)]
            for start in range(0, len(elems), size)]


def four_walks(asm, case, sol, exact):
    return [compute_errors(asm, sol, exact), compute_theta(asm, sol, exact),
            conservation_report(asm, case.data, sol), energy_quantities(asm, sol)]


def inside(mesh, elem, pts) -> bool:
    """Whether any of ``pts`` lies inside element ``elem``, as its volume
    points do."""
    tri = mesh.vertices[mesh.tri_vertices[elem]]
    lam = np.linalg.solve(np.stack([tri[1] - tri[0], tri[2] - tri[0]], axis=1),
                          (pts - tri[0]).T).T
    return bool(((lam > 1e-9).all(axis=1) & (lam.sum(axis=1) < 1.0 - 1e-9)).any())


def sleeps_inside(mesh, elem, fn):
    """``fn``, which sleeps when it samples element ``elem``, so that the
    blocks after that element's finish before it."""

    def call(pts):
        if inside(mesh, elem, pts):
            time.sleep(0.05)
        return fn(pts)

    return call


def test_the_walk_has_the_bits_of_a_serial_fold(monkeypatch):
    case, asm, sol = solved_coupled(monkeypatch)
    blocks = runs(asm.mesh)
    walked = asm.map_blocks(lambda blk: (blk.elems, blk.domain))
    assert len(walked) == len(blocks) == 19
    for (elems, domain), (want, want_domain) in zip(walked, blocks):
        assert domain == want_domain and np.array_equal(elems, want)

    first = int(blocks[0][0][0])
    slowed = ExactFields(**{f.name: sleeps_inside(asm.mesh, first, getattr(case.exact, f.name))
                            for f in dataclasses.fields(ExactFields)})
    threaded = four_walks(asm, case, sol, slowed)
    # the same functions, each folding the blocks' terms as they come, over
    # a serial walk of the runs
    monkeypatch.setattr(asm, "map_blocks", lambda fn: [
        fn(asm._element_tables(elems, domain)) for elems, domain in blocks])
    assert threaded == four_walks(asm, case, sol, case.exact)


def test_an_exact_field_error_reaches_the_caller_as_raised(monkeypatch):
    case, asm, sol = solved_coupled(monkeypatch)
    victim = int(np.flatnonzero(asm.mesh.tri_domain == "A")[50])  # in the eighth fluid block

    def v(pts):
        if inside(asm.mesh, victim, pts):
            raise Poisoned(f"sampled inside element {victim}")
        return case.exact.v(pts)

    exact = dataclasses.replace(case.exact, v=v)
    for walk in (compute_errors, compute_theta):
        with pytest.raises(Poisoned) as info:
            walk(asm, sol, exact)
        assert type(info.value) is Poisoned
        assert str(info.value) == f"sampled inside element {victim}"


def test_a_mesh_of_one_block_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    case = make_case("acoustic61")
    mesh = case.mesh_at(1)  # 32 fluid elements
    asm = Assembler(mesh, 2, case.params)
    # the solve has more than one front, so it starts a worker of its own
    sol, _ = solve_problem(mesh, 2, case.params, case.data, assembler=asm)
    monkeypatch.setattr(local_solver, "ThreadPoolExecutor", no_pool)
    assert len(asm.map_blocks(lambda blk: blk)) == 1
    errors, theta, report, energies = four_walks(asm, case, sol, case.exact)
    assert errors["v"] > 0.0 and theta > 0.0
    assert report["flux_scale"] > 0.0 and energies["acoustic"] > 0.0

    # two blocks start the pool
    case = make_case("coupled63")
    asm = Assembler(case.mesh_at(0), 1, case.params)
    with pytest.raises(AssertionError, match="a thread pool was started"):
        asm.map_blocks(lambda blk: blk)
