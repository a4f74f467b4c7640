"""Stress space on a triangle: matrix polynomials plus the curl-bubble
enrichment.

The enrichment members are checked against an independent symbolic route:
row r of member j must be parallel to the rotated gradient of
b_K * d/dx_r of the generating monomial xi1^j xi2^(k-j), with b_K the cubic
bubble and xi the reference coordinates of the inverse affine map.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

import hdgwave
import hdgwave.elastic_spaces as elastic_spaces
from hdgwave.elastic_spaces import build_stress_basis, stress_space_dim
from hdgwave.quadbasis import build_reference_basis, map_to_physical, scalar_space_dim
from stress_members import barycentric_coords

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SKEW_TRI = np.array([[0.1, -0.2], [1.3, 0.1], [0.4, 1.1]])


def random_triangles(count, seed=42):
    rng = np.random.default_rng(seed)
    tris = []
    while len(tris) < count:
        tri = rng.uniform(-1.0, 1.0, size=(3, 2))
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        area2 = e1[0] * e2[1] - e1[1] * e2[0]
        if area2 < 0.0:
            tri = tri[[0, 2, 1]]
            area2 = -area2
        # keep the shape regularity bounded so tolerances stay meaningful
        if area2 > 0.2 * np.max(np.linalg.norm(tri - np.roll(tri, 1, 0), axis=1)) ** 2:
            tris.append(tri)
    return tris


def test_space_dimensions():
    assert [stress_space_dim(k) for k in (1, 2, 3, 4)] == [14, 27, 44, 65]
    assert [scalar_space_dim(k) for k in (1, 2, 3, 4)] == [3, 6, 10, 15]  # spin


def test_barycentric_coordinates_partition_of_unity():
    pts = np.array([[0.3, 0.2], [0.7, 0.6], [-0.1, 0.4]])
    lam = barycentric_coords(SKEW_TRI, pts)
    assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-13
    # vertex i has barycentric e_i
    lam_v = barycentric_coords(SKEW_TRI, SKEW_TRI)
    assert np.abs(lam_v - np.eye(3)).max() < 1e-13


def bubble(tri, pts):
    return np.prod(barycentric_coords(tri, pts), axis=1)


def test_bubble_frozen_point_values():
    # product of barycentrics: (1/3)^3 at the barycenter of any triangle
    assert bubble(SKEW_TRI, SKEW_TRI.mean(axis=0))[0] == pytest.approx(1.0 / 27.0)
    # on the reference triangle at (1/4, 1/4): (1/2)(1/4)(1/4) = 1/32
    assert bubble(REF_TRI, np.array([0.25, 0.25]))[0] == pytest.approx(1.0 / 32.0)
    # zero on the boundary
    edge_mid = 0.5 * (SKEW_TRI[0] + SKEW_TRI[1])
    assert abs(bubble(SKEW_TRI, edge_mid)[0]) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_enrichment_matches_symbolic_curl(k):
    tri = SKEW_TRI
    ref = build_reference_basis(k)
    basis = build_stress_basis(k, tri, ref)

    x, y = sp.symbols("x y", real=True)
    # symbolic barycentric coordinates and the bubble
    mat = sp.Matrix([[1, tri[0, 0], tri[0, 1]],
                     [1, tri[1, 0], tri[1, 1]],
                     [1, tri[2, 0], tri[2, 1]]])
    lam = mat.inv().T * sp.Matrix([1, x, y])
    bubble = sp.expand(lam[0] * lam[1] * lam[2])

    # the reference coordinates xi = J^-1 (x - v0)
    xi = sp.Matrix(np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])).inv() * sp.Matrix(
        [x - tri[0, 0], y - tri[0, 1]])
    rng = np.random.default_rng(11)
    lam_pts = rng.dirichlet([2.0, 2.0, 2.0], size=12)
    pts = lam_pts @ tri
    vals = basis.eval(pts)[basis.dim_tensor:]

    for j in range(k + 1):
        p = xi[0] ** j * xi[1] ** (k - j)
        oracle = np.zeros((len(pts), 2, 2))
        for r, dvar in enumerate((x, y)):
            w_r = bubble * sp.diff(p, dvar)
            row = (-sp.diff(w_r, y), sp.diff(w_r, x))
            for c in range(2):
                fn = sp.lambdify((x, y), sp.expand(row[c]), "numpy")
                oracle[:, r, c] = fn(pts[:, 0], pts[:, 1])
        got = vals[j]
        # the implementation L2-normalizes each member: fields must be
        # parallel with one global scalar factor
        scale = float(np.sum(oracle * got) / np.sum(got * got))
        assert np.abs(oracle - scale * got).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enrichment_divergence_free_and_traceless_on_random_triangles(k):
    ref = build_reference_basis(k)
    for tri in random_triangles(6, seed=100 + k):
        basis = build_stress_basis(k, tri, ref)
        phys = map_to_physical(ref, tri)
        div = basis.eval_div(phys.points)[basis.dim_tensor:]
        scale = np.abs(basis.eval(phys.points)[basis.dim_tensor:]).max()
        assert np.abs(div).max() <= 1e-12 * max(scale, 1.0)
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            t = np.linspace(0.02, 0.98, 9)[:, None]
            edge_pts = a + t * (b - a)
            d = (b - a) / np.linalg.norm(b - a)
            normal = np.array([d[1], -d[0]])
            tr = basis.eval_normal(edge_pts, normal)[basis.dim_tensor:]
            assert np.abs(tr).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stress_space_has_full_rank_on_random_triangles(k):
    ref = build_reference_basis(k)
    for tri in random_triangles(4, seed=200 + k):
        basis = build_stress_basis(k, tri, ref, check_rank=False)
        phys = map_to_physical(ref, tri)
        vals = basis.eval(phys.points)
        flat = vals.reshape(basis.dim, -1)
        gram = (flat * np.repeat(phys.weights, 4)) @ flat.T
        scale = np.sqrt(np.diag(gram))
        gram = gram / np.outer(scale, scale)
        rank = int(np.sum(np.linalg.eigvalsh(gram) > 1e-10))
        assert rank == stress_space_dim(k)
        assert basis.dim == stress_space_dim(k)


def test_enrichment_has_nonzero_skew_part():
    # the enrichment must interact with the spin constraint: its skew part
    # cannot vanish identically (it equals the divergence of bubble*grad p)
    ref = build_reference_basis(2)
    basis = build_stress_basis(2, SKEW_TRI, ref)
    phys = map_to_physical(ref, SKEW_TRI)
    vals = basis.eval(phys.points)[basis.dim_tensor:]
    skew = vals[:, :, 0, 1] - vals[:, :, 1, 0]
    for j in range(vals.shape[0]):
        norm = float(np.sqrt(np.sum(phys.weights * skew[j] ** 2)))
        assert norm > 1e-8


def test_tensor_block_layout_is_slot_major():
    ref = build_reference_basis(1)
    basis = build_stress_basis(1, REF_TRI, ref)
    pts = np.array([[0.2, 0.3], [0.5, 0.1]])
    vals = basis.eval(pts)
    sv = ref.eval_values(pts)
    n = ref.n_scalar
    slots = ((0, 0), (0, 1), (1, 0), (1, 1))
    for slot, (r, c) in enumerate(slots):
        block = vals[slot * n:(slot + 1) * n]
        assert np.abs(block[:, :, r, c] - sv).max() < 1e-13
        mask = np.ones((2, 2), dtype=bool)
        mask[r, c] = False
        assert np.abs(block[:, :, mask]).max() == 0.0


def test_degree_mismatch_rejected():
    ref = build_reference_basis(2)
    with pytest.raises(ValueError):
        build_stress_basis(3, REF_TRI, ref)


def test_import_leaves_scipy_signal_unloaded():
    src = os.path.dirname(os.path.dirname(hdgwave.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, hdgwave; print('scipy.signal' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stress_basis_is_covariant_under_scaling(k):
    # a triangle of size 1e-6 or 1e6 has the unit one's basis: its P_k
    # members unchanged, its unit-L2 enrichment members the unit ones over
    # the size, and their divergences still exactly zero
    ref = build_reference_basis(k)
    for tri in random_triangles(3, seed=300 + k):
        pts = map_to_physical(ref, tri).points
        base = build_stress_basis(k, tri, ref)
        want = base.eval(pts)
        for size in (1e-6, 1e6):
            basis = build_stress_basis(k, size * tri, ref)
            got = basis.eval(size * pts)
            t = basis.dim_tensor
            assert np.abs(got[:t] - want[:t]).max() <= 1e-12 * np.abs(want[:t]).max()
            assert np.abs(size * got[t:] - want[t:]).max() <= 1e-12 * np.abs(want[t:]).max()
            div = basis.eval_div(size * pts)[t:]
            assert np.abs(div).max() == 0.0


def test_reference_members_have_integer_coefficients_and_zero_divergence():
    for k in range(1, 7):
        members, divs = elastic_spaces.reference_members(k)
        assert np.array_equal(members, np.round(members)) and np.abs(members).max() > 0
        assert not divs.any()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tables_of_a_lone_triangle_match_those_in_a_batch(k):
    # a triangle's tables do not depend on the batch it is built in, so a
    # block of one element gets the same bits as any larger block
    ref = build_reference_basis(k)
    tris = np.array(random_triangles(5, seed=400 + k))
    jac = np.stack([tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]], axis=2)
    batch = elastic_spaces.StressTables(ref, jac)
    for i in range(len(tris)):
        lone = elastic_spaces.StressTables(ref, jac[i : i + 1])
        assert lone.coef.tobytes() == batch.coef[i : i + 1].tobytes()
        assert lone.enrichment.tobytes() == batch.enrichment[i : i + 1].tobytes()
