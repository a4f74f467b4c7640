"""Face and volume L2 projections and the flux-matching element projection.

The flux-matching projection of a (vector, scalar) pair is defined by three
groups of equations: moments of each component against the degree-(k-1)
space, plus face moments of (vector . n - tau scalar) against the full
degree-k face space.  The tests check those defining equations directly
(not just the solver residual) and the exact reproduction of polynomials.
"""

import dataclasses

import numpy as np
import pytest

from hdgwave.local_solver import Assembler, ModelParams
from hdgwave.mesh import build_structured_coupled, face_rule
from hdgwave.projections import _project_volume_scalars, project_acoustic, project_elastic
from hdgwave.quadbasis import edge_basis_values, make_edge_quadrature

S = 2.0 - 1.0j
PARAMS = ModelParams.from_young_poisson(1.0, 0.3, s=S)


def smooth_v(p):
    return np.sin(1.3 * p[:, 0]) * np.cos(0.7 * p[:, 1]) + 0.2 * p[:, 0]


def smooth_q(p):
    return np.stack(
        [np.cos(p[:, 0]) * np.sin(p[:, 1]), np.exp(0.3 * p[:, 0] - 0.2 * p[:, 1])],
        axis=1,
    )


def smooth_sigma(p):
    out = np.empty((len(p), 2, 2))
    out[:, 0, 0] = np.sin(p[:, 0] + 0.5 * p[:, 1])
    out[:, 0, 1] = np.cos(0.4 * p[:, 0]) * p[:, 1]
    out[:, 1, 0] = 0.3 * p[:, 0] ** 2 - p[:, 1]
    out[:, 1, 1] = np.cos(p[:, 1])
    return out


def smooth_u(p):
    return np.stack(
        [np.sin(0.8 * p[:, 0]) + 0.1 * p[:, 1] ** 2, np.cos(1.1 * p[:, 1]) * p[:, 0]],
        axis=1,
    )


# -- face projection P_M ---------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_projection_reproduces_polynomials(k):
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0))
    poly = lambda p: (0.3 + p[:, 0] - 0.5 * p[:, 1]) ** k

    for fid in (0, 3, 7):
        fr = face_rule(mesh, fid, k)
        coef = fr.moments(fr.sample(poly))
        recon = fr.basis.T @ coef
        assert np.abs(recon - poly(fr.points)).max() < 1e-12


def test_face_projection_matches_least_squares_oracle():
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0))
    k, fid = 2, 5
    fr = face_rule(mesh, fid, k)
    coef = fr.moments(fr.sample(smooth_v))
    # independent route: weighted least squares on a dense sampling
    w = np.sqrt(fr.weights)
    a = (fr.basis * w).T
    b = smooth_v(fr.points) * w
    ls, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.abs(coef - ls).max() < 1e-12


def test_face_vector_projection_stacks_components():
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0))
    k, fid = 2, 4
    fr = face_rule(mesh, fid, k)
    coef = fr.moments(fr.sample(smooth_q))
    cx = fr.moments(fr.sample(lambda p: smooth_q(p)[:, 0]))
    cy = fr.moments(fr.sample(lambda p: smooth_q(p)[:, 1]))
    assert np.abs(coef - np.concatenate([cx, cy])).max() < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_face_moments_stack_any_number_of_components(m):
    # the one face contraction: m trailing components give m blocks of k+1
    # moments, component-major, each bit for bit the call on that component
    mesh = build_structured_coupled(
        1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=2)
    k = 2
    faces = face_rule(mesh, mesh.element_faces[:5], k)  # element-first, (5, 3, ...)
    rng = np.random.default_rng(m)
    shape = faces.weights.shape + (m,)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mom = faces.moments(vals)
    assert mom.shape == (5, 3, m * (k + 1))
    for j in range(m):
        block = mom[..., j * (k + 1) : (j + 1) * (k + 1)]
        assert np.array_equal(block, faces.moments(vals[..., j]))
        assert np.array_equal(block, faces.moments(vals[..., j].copy()))
        oracle = ((faces.basis * faces.weights[..., None, :]) @ vals[..., j, None])[..., 0]
        assert np.abs(block - oracle).max() < 1e-14


@pytest.mark.parametrize("k", range(1, 7))
def test_face_basis_is_orthonormal_on_every_face(k):
    # the face mass is taken as I (D = tau I) on the strength of this
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=2)
    fr = face_rule(mesh, np.arange(mesh.n_faces), k)
    gram = (fr.basis * fr.weights[:, None]) @ fr.basis.transpose(0, 2, 1)
    assert np.abs(gram - np.eye(k + 1)).max() < 1e-13


def test_face_projection_error_is_orthogonal_to_face_space():
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0))
    k, fid = 3, 2
    fr = face_rule(mesh, fid, k)
    coef = fr.moments(fr.sample(smooth_v))
    # a denser rule than the face rule's own, along the same canonical direction
    rule = make_edge_quadrature(2 * k + 12)
    a, b = mesh.vertices[mesh.face_vertices[fid]]
    length = mesh.face_length[fid]
    basis = edge_basis_values(k, rule.points) / np.sqrt(length)
    defect = smooth_v(a + rule.points[:, None] * (b - a)) - basis.T @ coef
    moments = (basis * rule.weights * length) @ defect
    assert np.abs(moments).max() < 1e-13


# -- volume projection -----------------------------------------------------


class Element:
    """The tables of one element with the element axis dropped."""

    def __init__(self, block):
        self.block = block
        self.points, self.weights = block.points[0], block.weights[0]
        self.scalar = block.scalar[0]
        self.n_scalar = block.scalar.shape[1]

    def faces(self):
        """Per local face: points, weights, basis, outward normal, scalar traces."""
        blk = self.block
        return zip(blk.faces.points[0], blk.faces.weights[0], blk.faces.basis[0],
                   blk.normals[0], blk.face_scalar[0])


def first_element(k):
    mesh = build_structured_coupled(1, (0.0, 0.0, 1.0, 1.0))
    return Assembler(mesh, k, PARAMS).tables(0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_volume_projection_reproduces_polynomials(k):
    tab = first_element(k)
    one = Element(tab)
    poly = lambda p: (0.2 + 0.4 * p[:, 0] + 0.7 * p[:, 1]) ** k
    coef = _project_volume_scalars(tab, tab.sample_volume(poly))[0]
    recon = one.scalar.T @ coef
    assert np.abs(recon - poly(one.points)).max() < 1e-12


def test_volume_projection_defect_orthogonal_to_space():
    tab = first_element(2)
    one = Element(tab)
    coef = _project_volume_scalars(tab, tab.sample_volume(smooth_v))[0]
    defect = smooth_v(one.points) - one.scalar.T @ coef
    moments = np.einsum("q,iq,q->i", one.weights, one.scalar, defect)
    assert np.abs(moments).max() < 1e-14


# -- flux-matching projections ---------------------------------------------


def coupled_tables(k):
    mesh = build_structured_coupled(1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0))
    asm = Assembler(mesh, k, PARAMS)
    tab_a = next(asm.tables(e) for e in range(mesh.n_elements)
                 if mesh.tri_domain[e] == "A")
    tab_e = next(asm.tables(e) for e in range(mesh.n_elements)
                 if mesh.tri_domain[e] == "E")
    return tab_a, tab_e


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.5, 1.0, 4.0])
def test_acoustic_projection_residual_and_defining_equations(k, tau):
    tab, _ = coupled_tables(k)
    proj = project_acoustic(tab, dataclasses.replace(PARAMS, tau_a=tau), smooth_q, smooth_v)
    assert proj.residual < 1e-12

    one = Element(tab)
    n_k = one.n_scalar
    n_km1 = n_k - (k + 1)
    w, sv = one.weights, one.scalar
    q_defect = smooth_q(one.points) - np.stack(
        [sv.T @ proj.vec[:n_k], sv.T @ proj.vec[n_k:]], axis=1
    )
    v_defect = smooth_v(one.points) - sv.T @ proj.scalar
    scale = max(1.0, np.abs(smooth_q(one.points)).max())
    # moments against every degree-(k-1) function vanish
    for comp in range(2):
        m = np.einsum("q,iq,q->i", w, sv[:n_km1], q_defect[:, comp])
        assert np.abs(m).max() < 1e-12 * scale
    m = np.einsum("q,iq,q->i", w, sv[:n_km1], v_defect)
    assert np.abs(m).max() < 1e-12 * scale
    # face flux moments match against the full degree-k face space
    for pts, fw, fb, normal, svf in one.faces():
        flux_exact = smooth_q(pts) @ normal - tau * smooth_v(pts)
        q_h = np.stack(
            [svf.T @ proj.vec[:n_k], svf.T @ proj.vec[n_k:]], axis=1
        )
        flux_proj = q_h @ normal - tau * (svf.T @ proj.scalar)
        m = np.einsum("p,mp,p->m", fw, fb, flux_exact - flux_proj)
        assert np.abs(m).max() < 1e-12 * scale


def full_system_projection(tab, tau, vec_fn, scalar_fn):
    """The flux-matching projection of one (vector, scalar) pair from its
    whole square system: the quadrature Gram rows of the moments against
    degree k-1 and the face rows, for all 3 n_scalar coefficients at once.
    Returns the vector coefficients (x block, then y) and the scalar ones."""
    one = Element(tab)
    n_k = one.n_scalar
    kp1 = tab.k + 1
    n_km1 = n_k - kp1
    w, sv = one.weights, one.scalar
    gram = (sv * w) @ sv.T
    a = np.zeros((3 * n_k, 3 * n_k))
    b = np.zeros(3 * n_k, dtype=complex)
    vec = vec_fn(one.points)
    for c, vals in enumerate((vec[:, 0], vec[:, 1], scalar_fn(one.points))):
        a[c * n_km1 : (c + 1) * n_km1, c * n_k : (c + 1) * n_k] = gram[:n_km1]
        b[c * n_km1 : (c + 1) * n_km1] = (sv[:n_km1] * w) @ vals
    for f, (pts, fw, fb, normal, svf) in enumerate(one.faces()):
        rows = slice(3 * n_km1 + f * kp1, 3 * n_km1 + (f + 1) * kp1)
        mass = (fb * fw) @ svf.T
        for c, coef in enumerate((normal[0], normal[1], -tau)):
            a[rows, c * n_k : (c + 1) * n_k] = coef * mass
        b[rows] = (fb * fw) @ (vec_fn(pts) @ normal - tau * scalar_fn(pts))
    x = np.linalg.solve(a, b)
    return x[: 2 * n_k], x[2 * n_k :]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projections_match_the_full_system_on_jittered_elements(k):
    # the closed-form moments and the top-degree face solve against the
    # whole square system with its quadrature Gram matrix
    mesh = build_structured_coupled(
        1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=2)
    asm = Assembler(mesh, k, PARAMS)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for elem in range(0, mesh.n_elements, 3):
        tab = asm.tables(elem)
        if tab.domain == "A":
            proj = project_acoustic(tab, PARAMS, smooth_q, smooth_v)
            vec, scalar = full_system_projection(tab, PARAMS.tau_a, smooth_q, smooth_v)
            assert close(proj.vec, vec) and close(proj.scalar, scalar), elem
            continue
        proj = project_elastic(tab, PARAMS, smooth_sigma, smooth_u)
        for r in range(2):
            vec, scalar = full_system_projection(
                tab, PARAMS.tau_e, lambda p: smooth_sigma(p)[:, r], lambda p: smooth_u(p)[:, r])
            assert close(proj.sigma[r].reshape(-1), vec) and close(proj.u[r], scalar), elem


@pytest.mark.parametrize("k", [1, 2])
def test_elastic_projection_residual_and_row_structure(k):
    _, tab = coupled_tables(k)
    proj = project_elastic(tab, PARAMS, smooth_sigma, smooth_u)
    assert proj.residual < 1e-12
    # row r of the projected stress with component r of u solves the same
    # pair problem as the acoustic projection
    pair0 = project_acoustic(
        tab,
        dataclasses.replace(PARAMS, tau_a=PARAMS.tau_e),
        lambda p: smooth_sigma(p)[:, 0, :],
        lambda p: smooth_u(p)[:, 0],
    )
    n_k = tab.scalar.shape[1]
    assert np.abs(proj.sigma[0, 0] - pair0.vec[:n_k]).max() < 1e-12
    assert np.abs(proj.sigma[0, 1] - pair0.vec[n_k:]).max() < 1e-12
    assert np.abs(proj.u[0] - pair0.scalar).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flux_matching_projection_reproduces_polynomials(k):
    tab, tab_e = coupled_tables(k)

    def poly_v(p):
        return (0.1 + 0.6 * p[:, 0] - 0.3 * p[:, 1]) ** k

    def poly_q(p):
        x, y = p[:, 0], p[:, 1]
        out = np.stack([(0.2 + x / 4.0) ** k, (0.5 - y / 3.0) ** k], axis=1)
        return out

    proj = project_acoustic(tab, PARAMS, poly_q, poly_v)
    one = Element(tab)
    n_k = one.n_scalar
    sv = one.scalar
    q_h = np.stack([sv.T @ proj.vec[:n_k], sv.T @ proj.vec[n_k:]], axis=1)
    v_h = sv.T @ proj.scalar
    assert np.abs(q_h - poly_q(one.points)).max() < 1e-11
    assert np.abs(v_h - poly_v(one.points)).max() < 1e-11


def test_projection_works_on_jittered_elements():
    mesh = build_structured_coupled(
        1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=2
    )
    asm = Assembler(mesh, 2, PARAMS)
    worst = 0.0
    for elem in range(0, mesh.n_elements, 5):
        tab = asm.tables(elem)
        if tab.domain == "A":
            worst = max(worst, project_acoustic(tab, PARAMS, smooth_q, smooth_v).residual)
        else:
            worst = max(worst, project_elastic(tab, PARAMS, smooth_sigma, smooth_u).residual)
    assert worst < 1e-12


@pytest.mark.parametrize("k", [1, 3])
def test_projection_residual_is_relative_to_the_data(k):
    # data scaled by 2^-60 (exactly, so x scales exactly too): ||b|| << 1,
    # and the residual must not shrink with it, as an absolute one would
    tab_a, tab_e = coupled_tables(k)
    tiny = 2.0**-60
    scaled = lambda fn: (lambda p: tiny * fn(p))
    for base, small in (
        (project_acoustic(tab_a, PARAMS, smooth_q, smooth_v),
         project_acoustic(tab_a, PARAMS, scaled(smooth_q), scaled(smooth_v))),
        (project_elastic(tab_e, PARAMS, smooth_sigma, smooth_u),
         project_elastic(tab_e, PARAMS, scaled(smooth_sigma), scaled(smooth_u))),
    ):
        assert 0.0 < base.residual < 1e-12
        assert small.residual == pytest.approx(base.residual, rel=1e-12, abs=0.0)


def test_projection_of_zero_data_has_zero_residual():
    tab_a, tab_e = coupled_tables(2)
    zero_vec = lambda p: np.zeros((len(p), 2))
    zero = lambda p: np.zeros(len(p))
    proj = project_acoustic(tab_a, PARAMS, zero_vec, zero)
    assert proj.residual == 0.0 and not proj.vec.any() and not proj.scalar.any()
    proj = project_elastic(tab_e, PARAMS, lambda p: np.zeros((len(p), 2, 2)), zero_vec)
    assert proj.residual == 0.0 and not proj.sigma.any() and not proj.u.any()
