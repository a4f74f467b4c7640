"""Element-level systems: material laws, polynomial consistency, the
condensation algebra, and the pointwise flux route.

The consistency oracle: for a polynomial exact solution of element degree,
feeding the exact face traces and the exact source through the local solve
must reproduce the exact fields to rounding, and the condensed flux moments
must equal the moments of the exact normal flux (the face projection makes
the penalty term drop out of the moments identically).
"""

from fractions import Fraction

import numpy as np
import pytest

from hdgwave.local_solver import (
    Assembler,
    ModelParams,
    SingularLocalSystem,
    assemble_acoustic_local,
    assemble_elastic_local,
    build_element_tables,
    hooke_apply,
    hooke_inverse_apply,
    lame_parameters,
    reconstruct_flux,
)
from hdgwave.mesh import FaceKind, build_structured_coupled, face_rule, load_mesh
from hdgwave.quadbasis import build_reference_basis

S = 2.0 - 1.0j


def acoustic_mesh(n=1):
    return build_structured_coupled(n, (0.0, 0.0, 1.0, 1.0))


def elastic_mesh(n=1):
    return build_structured_coupled(n, (0.0, 0.0, 1.0, 1.0), domain="E")


# -- material laws ---------------------------------------------------------


def test_lame_parameters_frozen_fractions():
    lam, mu = lame_parameters(1.0, 0.3)
    # lam = 0.3 / (1.3 * 0.4) = 15/26, mu = 1/2.6 = 5/13
    assert lam == pytest.approx(float(Fraction(15, 26)), rel=1e-15)
    assert mu == pytest.approx(float(Fraction(5, 13)), rel=1e-15)


def test_lame_parameters_validation():
    with pytest.raises(ValueError):
        lame_parameters(1.0, 0.5)
    with pytest.raises(ValueError):
        lame_parameters(1.0, -1.0)
    with pytest.raises(ValueError):
        lame_parameters(0.0, 0.3)


def test_hooke_identity_on_random_matrices():
    lam, mu = lame_parameters(2.0, 0.27)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    back = hooke_inverse_apply(hooke_apply(m, lam, mu), lam, mu)
    assert np.abs(back - m).max() < 1e-14
    forward = hooke_apply(hooke_inverse_apply(m, lam, mu), lam, mu)
    assert np.abs(forward - m).max() < 1e-14


def test_hooke_on_identity_matrix():
    lam, mu = lame_parameters(1.0, 0.3)
    out = hooke_apply(np.eye(2), lam, mu)
    assert np.abs(out - (2.0 * mu + 2.0 * lam) * np.eye(2)).max() < 1e-15


def test_model_params_well_posedness_guard():
    with pytest.raises(ValueError, match="Re\\(s \\* tau_A\\)"):
        ModelParams(s=-2.0 + 1.0j)
    with pytest.raises(ValueError, match="well-posedness"):
        ModelParams(s=1.0j)  # Re(s tau) = 0 is rejected too
    with pytest.raises(ValueError):
        ModelParams(tau_a=-1.0)
    with pytest.raises(ValueError):
        ModelParams(rho_f=0.0)
    # a rotated s with positive real part passes
    ModelParams(s=0.5 + 3.0j)


@pytest.mark.parametrize("bad", [
    dict(c=np.nan), dict(rho_e=np.inf), dict(rho_f=np.nan), dict(lam=np.inf),
    dict(mu=np.nan), dict(tau_e=np.nan), dict(tau_a=np.inf),
    dict(s=complex(np.nan, -1.0)), dict(s=complex(2.0, np.inf)),
])
def test_model_params_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="must be finite"):
        ModelParams(**bad)


def test_from_young_poisson_roundtrip():
    p = ModelParams.from_young_poisson(young=2.0, poisson=0.2, s=S)
    lam, mu = lame_parameters(2.0, 0.2)
    assert p.lam == pytest.approx(lam) and p.mu == pytest.approx(mu)


# -- polynomial fields -----------------------------------------------------


class PolyAcoustic:
    """v of degree k, q = grad v, f = -div q + (s/c)^2 v, hand-differentiated."""

    def __init__(self, s, c, k):
        self.freq = (s / c) ** 2
        self.quad = 1.0 if k >= 2 else 0.0

    def v(self, p):
        x, y = p[:, 0], p[:, 1]
        base = 0.3 + 0.7 * x - 0.4 * y
        return base + self.quad * (0.5 * x**2 + 0.3 * x * y - 0.6 * y**2)

    def q(self, p):
        x, y = p[:, 0], p[:, 1]
        return np.stack(
            [
                0.7 + self.quad * (x + 0.3 * y),
                -0.4 + self.quad * (0.3 * x - 1.2 * y),
            ],
            axis=1,
        )

    def f(self, p):
        return 0.2 * self.quad + self.freq * self.v(p)  # laplacian is -0.2*quad


class PolyElastic:
    """u of degree k with hand-differentiated stress, spin, and source."""

    def __init__(self, s, rho, lam, mu, k):
        self.s2rho = rho * s**2
        self.lam, self.mu = lam, mu
        self.quad = 1.0 if k >= 2 else 0.0

    def u(self, p):
        x, y = p[:, 0], p[:, 1]
        q = self.quad
        return np.stack(
            [
                0.2 + 0.5 * x - 0.3 * y + q * (0.4 * x**2 + 0.1 * x * y - 0.2 * y**2),
                -0.1 + 0.2 * x + 0.6 * y + q * (-0.3 * x**2 + 0.5 * x * y + 0.3 * y**2),
            ],
            axis=1,
        )

    def grad_u(self, p):
        x, y = p[:, 0], p[:, 1]
        q = self.quad
        g = np.empty((len(p), 2, 2))
        g[:, 0, 0] = 0.5 + q * (0.8 * x + 0.1 * y)
        g[:, 0, 1] = -0.3 + q * (0.1 * x - 0.4 * y)
        g[:, 1, 0] = 0.2 + q * (-0.6 * x + 0.5 * y)
        g[:, 1, 1] = 0.6 + q * (0.5 * x + 0.6 * y)
        return g

    def sigma(self, p):
        g = self.grad_u(p)
        eps = 0.5 * (g + np.swapaxes(g, 1, 2))
        return hooke_apply(eps, self.lam, self.mu)

    def gamma(self, p):
        g = self.grad_u(p)
        return 0.5 * (g - np.swapaxes(g, 1, 2))

    def f(self, p):
        # div sigma is constant (zero for affine u): worked out by hand from
        # the gradient entries above, d/dx sigma_x. + d/dy sigma_.y
        lam, mu = self.lam, self.mu
        div = self.quad * np.array(
            [
                (2 * mu + lam) * 0.8 + lam * 0.5 + mu * (-0.4 + 0.5),
                mu * (0.1 - 0.6) + (2 * mu + lam) * 0.6 + lam * 0.1,
            ]
        )
        return self.s2rho * self.u(p) - div


def exact_acoustic_traces(mesh, elem, tables, k, v_fn):
    t = np.zeros(3 * (k + 1), dtype=complex)
    for f, ft in enumerate(tables.faces):
        fr = face_rule(mesh, ft.face_id, k)
        vals = v_fn(fr.points)
        t[f * (k + 1):(f + 1) * (k + 1)] = (fr.basis * fr.weights) @ vals
    return t


def exact_elastic_traces(mesh, elem, tables, k, u_fn):
    kp1 = k + 1
    t = np.zeros(3 * 2 * kp1, dtype=complex)
    for f, ft in enumerate(tables.faces):
        fr = face_rule(mesh, ft.face_id, k)
        vals = u_fn(fr.points)
        blk = slice(f * 2 * kp1, (f + 1) * 2 * kp1)
        t[blk] = np.concatenate(
            [(fr.basis * fr.weights) @ vals[:, 0], (fr.basis * fr.weights) @ vals[:, 1]]
        )
    return t


@pytest.mark.parametrize("k", [1, 2])
def test_acoustic_local_consistency(k):
    params = ModelParams(s=S)
    mesh = acoustic_mesh(1)
    ref = build_reference_basis(k)
    exact = PolyAcoustic(params.s, params.c, k)
    for elem in range(mesh.n_elements):
        tab = build_element_tables(mesh, elem, ref)
        loc = assemble_acoustic_local(tab, params, source=exact.f)
        t = exact_acoustic_traces(mesh, elem, tab, k, exact.v)
        vol = loc.lift_map @ t + loc.rhs_volume
        n_p = tab.n_scalar
        sv = tab.scalar
        q_h = np.stack([sv.T @ vol[:n_p], sv.T @ vol[n_p:2 * n_p]], axis=1)
        v_h = sv.T @ vol[2 * n_p:]
        assert np.abs(q_h - exact.q(tab.points)).max() < 1e-11
        assert np.abs(v_h - exact.v(tab.points)).max() < 1e-11
        # flux moments reduce to moments of q.n: the penalty term is the
        # difference between v and its own face projection
        flux = loc.condensed_map @ t + loc.rhs_trace
        for f, ft in enumerate(tab.faces):
            qn = exact.q(ft.points) @ ft.normal
            mom = np.einsum("p,mp,p->m", ft.weights, ft.basis, qn)
            assert np.abs(flux[f * (k + 1):(f + 1) * (k + 1)] - mom).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_elastic_local_consistency(k):
    params = ModelParams.from_young_poisson(1.0, 0.3, s=S)
    mesh = elastic_mesh(1)
    ref = build_reference_basis(k)
    exact = PolyElastic(params.s, params.rho_e, params.lam, params.mu, k)
    kp1 = k + 1
    for elem in range(mesh.n_elements):
        tab = build_element_tables(mesh, elem, ref)
        loc = assemble_elastic_local(tab, params, source=exact.f)
        t = exact_elastic_traces(mesh, elem, tab, k, exact.u)
        vol = loc.lift_map @ t + loc.rhs_volume
        n_sig = tab.stress_vals.shape[0]
        n_p = tab.n_scalar
        sig_h = np.einsum("j,jqrc->qrc", vol[:n_sig], tab.stress_vals)
        assert np.abs(sig_h - exact.sigma(tab.points)).max() < 1e-10
        uc = vol[n_sig:n_sig + 2 * n_p]
        u_h = np.stack([tab.scalar.T @ uc[:n_p], tab.scalar.T @ uc[n_p:]], axis=1)
        assert np.abs(u_h - exact.u(tab.points)).max() < 1e-10
        gc = vol[n_sig + 2 * n_p:]
        g_scalar = tab.scalar.T @ gc
        gam_h = np.zeros((len(tab.points), 2, 2), dtype=complex)
        gam_h[:, 0, 1] = g_scalar
        gam_h[:, 1, 0] = -g_scalar
        assert np.abs(gam_h - exact.gamma(tab.points)).max() < 1e-10
        flux = loc.condensed_map @ t + loc.rhs_trace
        for f, ft in enumerate(tab.faces):
            sn = np.einsum("prc,c->pr", exact.sigma(ft.points), ft.normal)
            mom = np.concatenate(
                [
                    np.einsum("p,mp,p->m", ft.weights, ft.basis, sn[:, 0]),
                    np.einsum("p,mp,p->m", ft.weights, ft.basis, sn[:, 1]),
                ]
            )
            blk = slice(f * 2 * kp1, (f + 1) * 2 * kp1)
            assert np.abs(flux[blk] - mom).max() < 1e-10


# -- condensation algebra --------------------------------------------------


@pytest.mark.parametrize("domain,assemble", [("A", assemble_acoustic_local),
                                             ("E", assemble_elastic_local)])
def test_schur_complement_matches_direct_elimination(domain, assemble):
    params = ModelParams(s=S)
    mesh = acoustic_mesh(1) if domain == "A" else elastic_mesh(1)
    ref = build_reference_basis(2)
    tab = build_element_tables(mesh, 0, ref)
    loc = assemble(tab, params, source=lambda p: (
        np.ones(len(p)) if domain == "A" else np.ones((len(p), 2))))
    rng = np.random.default_rng(8)
    t = rng.normal(size=loc.trace_dim) + 1j * rng.normal(size=loc.trace_dim)
    # direct route: eliminate the volume block explicitly
    x = np.linalg.solve(loc.matrix, loc.trace_coupling @ t + (loc.matrix @ loc.rhs_volume))
    direct = loc.flux_volume @ x + loc.flux_trace @ t
    schur = loc.condensed_map @ t + loc.rhs_trace
    assert np.abs(direct - schur).max() < 1e-11
    # and the lift map is exactly that elimination
    assert np.abs((loc.lift_map @ t + loc.rhs_volume) - x).max() < 1e-11


@pytest.mark.parametrize("domain", ["A", "E"])
def test_pointwise_flux_matches_condensed_moments(domain):
    params = ModelParams.from_young_poisson(1.0, 0.3, s=S)
    mesh = acoustic_mesh(1) if domain == "A" else elastic_mesh(1)
    ref = build_reference_basis(2)
    tab = build_element_tables(mesh, 0, ref)
    assemble = assemble_acoustic_local if domain == "A" else assemble_elastic_local
    loc = assemble(tab, params)
    rng = np.random.default_rng(9)
    t = rng.normal(size=loc.trace_dim) + 1j * rng.normal(size=loc.trace_dim)
    vol = loc.lift_map @ t + loc.rhs_volume
    pointwise = np.concatenate(reconstruct_flux(tab, params, vol, t))
    algebraic = loc.condensed_map @ t + loc.rhs_trace
    assert np.abs(pointwise - algebraic).max() < 1e-11


def test_per_face_tau_override_changes_only_the_penalty():
    params = ModelParams(s=S)
    mesh = acoustic_mesh(1)
    ref = build_reference_basis(1)
    tab = build_element_tables(mesh, 0, ref)
    base = assemble_acoustic_local(tab, params)
    bumped = assemble_acoustic_local(tab, params, tau=(2.0, 2.0, 2.0))
    assert np.abs(base.condensed_map - bumped.condensed_map).max() > 1e-3
    rng = np.random.default_rng(10)
    t = rng.normal(size=base.trace_dim)
    vol_b = bumped.lift_map @ t + bumped.rhs_volume
    pw = np.concatenate(reconstruct_flux(tab, params, vol_b, t, tau=(2.0, 2.0, 2.0)))
    alg = bumped.condensed_map @ t + bumped.rhs_trace
    assert np.abs(pw - alg).max() < 1e-11


def test_reconstruct_flux_accepts_zero_tau():
    params = ModelParams(s=S)
    mesh = acoustic_mesh(1)
    ref = build_reference_basis(1)
    tab = build_element_tables(mesh, 0, ref)
    loc = assemble_acoustic_local(tab, params)
    rng = np.random.default_rng(11)
    t = rng.normal(size=loc.trace_dim)
    vol = loc.lift_map @ t + loc.rhs_volume
    out = reconstruct_flux(tab, params, vol, t, tau=0.0)
    assert len(out) == 3 and all(np.all(np.isfinite(c)) for c in out)


def test_domain_mismatch_rejected():
    params = ModelParams(s=S)
    ref = build_reference_basis(1)
    tab_a = build_element_tables(acoustic_mesh(1), 0, ref)
    tab_e = build_element_tables(elastic_mesh(1), 0, ref)
    with pytest.raises(ValueError):
        assemble_elastic_local(tab_a, params)
    with pytest.raises(ValueError):
        assemble_acoustic_local(tab_e, params)


def test_zero_data_gives_zero_volume_fields():
    params = ModelParams(s=S)
    mesh = elastic_mesh(1)
    ref = build_reference_basis(2)
    tab = build_element_tables(mesh, 0, ref)
    loc = assemble_elastic_local(tab, params)
    assert np.abs(loc.rhs_volume).max() == 0.0
    assert np.abs(loc.lift_map @ np.zeros(loc.trace_dim) + loc.rhs_volume).max() == 0.0


# -- assembler caching -----------------------------------------------------


def test_assembler_shares_blocks_between_congruent_elements():
    mesh = acoustic_mesh(2)  # all 8 triangles are translates of two shapes
    params = ModelParams(s=S)
    asm = Assembler(mesh, 1, params)
    locs = asm.all_locals()
    sigs = {asm._signature(e) for e in range(mesh.n_elements)}
    assert len(sigs) == 2
    by_sig = {}
    for e in range(mesh.n_elements):
        by_sig.setdefault(asm._signature(e), []).append(e)
    for group in by_sig.values():
        first = locs[group[0]]
        for e in group[1:]:
            assert locs[e].condensed_map is first.condensed_map
            # per-element geometry is not shared
            assert locs[e].elem != first.elem


def test_assembler_matches_uncached_route():
    mesh = acoustic_mesh(2)
    params = ModelParams(s=S)
    asm = Assembler(mesh, 2, params)
    src = lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])
    for elem in (0, 3, 5):
        cached = asm.local_system(elem, source=src)
        fresh_tab = build_element_tables(mesh, elem, asm.ref)
        fresh = assemble_acoustic_local(fresh_tab, params, source=src)
        assert np.abs(cached.condensed_map - fresh.condensed_map).max() < 1e-13
        assert np.abs(cached.rhs_trace - fresh.rhs_trace).max() < 1e-13
        assert np.abs(cached.rhs_volume - fresh.rhs_volume).max() < 1e-13


def test_assembler_tables_translate_points():
    mesh = acoustic_mesh(2)
    asm = Assembler(mesh, 1, ModelParams(s=S))
    t0, t5 = asm.tables(0), asm.tables(5)
    if asm._signature(0) == asm._signature(5):
        shift = mesh.triangle(5)[0] - mesh.triangle(0)[0]
        assert np.allclose(t5.points, t0.points + shift)
    for elem in range(mesh.n_elements):
        tab = asm.tables(elem)
        assert np.allclose(tab.verts, mesh.triangle(elem))
        for le, ft in enumerate(tab.faces):
            assert ft.face_id == mesh.element_faces[elem, le]


def test_assembler_tables_use_each_face_rule():
    # structured meshes reuse tables per translation class; the face rule
    # of a reused element must still be its face's own, bit for bit
    mesh = build_structured_coupled(4, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0))
    k = 2
    asm = Assembler(mesh, k, ModelParams(s=S))
    for elem in range(mesh.n_elements):
        for ft in asm.tables(elem).faces:
            fr = face_rule(mesh, ft.face_id, k)
            assert np.array_equal(ft.points, fr.points)
            assert np.array_equal(ft.weights, fr.weights)
            assert np.array_equal(ft.basis, fr.basis)


def test_both_sides_of_a_face_see_its_face_rule():
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=3
    )
    k = 2
    ref = build_reference_basis(k)
    tables = [build_element_tables(mesh, e, ref) for e in range(mesh.n_elements)]
    kinds = set()
    for fid, face in enumerate(mesh.faces):
        if len(face.sides) != 2:
            continue
        kinds.add(face.kind)
        fr = face_rule(mesh, fid, k)
        for side in face.sides:
            ft = tables[side.element].faces[side.local_edge]
            assert ft.face_id == fid
            assert np.array_equal(ft.points, fr.points)
            assert np.array_equal(ft.weights, fr.weights)
            assert np.array_equal(ft.basis, fr.basis)
            assert np.array_equal(ft.normal, side.sign * face.normal)
    assert kinds == {FaceKind.INTERIOR_A, FaceKind.INTERIOR_E, FaceKind.GAMMA}


# -- pivot check -------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-7, 1e6])
@pytest.mark.parametrize("domain", ["A", "E"])
def test_pivot_check_is_scale_free(domain, scale):
    # local blocks scale with powers of h; a well-shaped element of any size
    # must assemble (an absolute pivot floor rejected h ~ 1e-7)
    mesh = build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0), domain=domain)
    mesh.vertices = mesh.vertices * scale
    for face in mesh.faces:
        face.length *= scale
    mesh.h_e *= scale
    mesh.h_a *= scale
    for k in (1, 3):
        locs = Assembler(mesh, k, ModelParams(s=S)).all_locals()
        assert all(np.isfinite(loc.condensed_map).all() for loc in locs)


@pytest.mark.parametrize("domain,kind", [("A", "gammaAD"), ("E", "elasticBoundary")])
def test_degenerate_element_raises(tmp_path, domain, kind):
    # a sliver of aspect ratio 1e12 still passes the mesh checks
    path = tmp_path / "sliver.mesh"
    path.write_text(
        "hdgmesh v1\nvertices 3\n0 0\n1 0\n0.5 1e-12\n"
        f"triangles 1\n0 1 2 {domain}\n"
        f"faces 3\n0 1 {kind}\n1 2 {kind}\n0 2 {kind}\n"
    )
    with pytest.raises(SingularLocalSystem, match="element 0"):
        Assembler(load_mesh(str(path)), 2, ModelParams(s=S)).all_locals()
