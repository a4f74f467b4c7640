"""Element-level systems: material laws, polynomial consistency, the
condensation algebra, the pointwise flux route, and the per-shape sharing.

The consistency oracle: for a polynomial exact solution of element degree,
feeding the exact face traces and the exact source through the local solve
must reproduce the exact fields to rounding, and the condensed flux moments
must equal the moments of the exact normal flux (the face projection makes
the penalty term drop out of the moments identically).
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from hdgwave import elastic_spaces, local_solver
from hdgwave.local_solver import (
    Assembler,
    ModelParams,
    SingularLocalSystem,
    hooke_apply,
    hooke_inverse_apply,
    lame_parameters,
    reconstruct_flux,
)
from hdgwave.elastic_spaces import build_stress_basis
from hdgwave.mesh import KINDS, FaceKind, build_structured_coupled, face_rule, load_mesh
from hdgwave.skeleton import solve_problem
from hdgwave.verify import make_polynomial_case
from stress_members import stress_members

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


def exact_traces(asm, blk, fn):
    """Face projections of an exact trace for every element of a block,
    component-major per face, as (nb, trace dim)."""
    k = asm.k
    rows = []
    for fids in blk.face_ids:
        per_face = []
        for fid in fids:
            fr = face_rule(asm.mesh, fid, k)
            per_face.append(fr.moments(fn(fr.points)))
        rows.append(np.concatenate(per_face))
    return np.array(rows)


def solved_blocks(asm, fn, **sources):
    """Per block: tables, local systems, exact traces and the volume
    unknowns they lift to."""
    for blk, loc in zip(asm.map_blocks(lambda blk: blk), asm.all_locals(**sources)):
        assert np.array_equal(blk.elems, loc.elems)
        t = exact_traces(asm, blk, fn)
        vol = (loc.ops.lift_map[loc.shape] @ t[..., None])[..., 0] + loc.rhs_volume
        flux = (loc.ops.condensed_map[loc.shape] @ t[..., None])[..., 0] + loc.rhs_trace
        yield blk, loc, t, vol, flux


def face_moment(blk, f, vals):
    """Moments of point values (nb, nfq) on local face f, per element."""
    return np.einsum("ep,emp,ep->em", blk.faces.weights[:, f], blk.faces.basis[:, f], vals)


@pytest.mark.parametrize("k", [1, 2])
def test_acoustic_local_consistency(k):
    params = ModelParams(s=S)
    mesh = acoustic_mesh(1)
    exact = PolyAcoustic(params.s, params.c, k)
    asm = Assembler(mesh, k, params)
    for blk, loc, t, vol, flux in solved_blocks(asm, exact.v, f_acoustic=exact.f):
        n_p = blk.scalar.shape[1]
        nb = len(blk.elems)
        q_h = blk.at_points(vol[:, : 2 * n_p].reshape(nb, 2, n_p))
        v_h = blk.at_points(vol[:, 2 * n_p :])
        assert np.abs(q_h - exact.q(blk.points.reshape(-1, 2)).reshape(q_h.shape)).max() < 1e-11
        assert np.abs(v_h - exact.v(blk.points.reshape(-1, 2)).reshape(v_h.shape)).max() < 1e-11
        # flux moments reduce to moments of q.n: the penalty term is the
        # difference between v and its own face projection
        for f in range(3):
            pts = blk.faces.points[:, f]
            qn = np.einsum("epc,ec->ep", exact.q(pts.reshape(-1, 2)).reshape(pts.shape),
                           blk.normals[:, f])
            mom = face_moment(blk, f, qn)
            assert np.abs(flux[:, f * (k + 1):(f + 1) * (k + 1)] - mom).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_elastic_local_consistency(k):
    params = ModelParams.from_young_poisson(1.0, 0.3, s=S)
    mesh = elastic_mesh(1)
    exact = PolyElastic(params.s, params.rho_e, params.lam, params.mu, k)
    kp1 = k + 1
    asm = Assembler(mesh, k, params)
    for blk, loc, t, vol, flux in solved_blocks(asm, exact.u, f_elastic=exact.f):
        nb, n_p = len(blk.elems), blk.scalar.shape[1]
        n_sig = loc.ops.slices["sigma"].stop
        pts = blk.points.reshape(-1, 2)
        sig_h = blk.stress_at_points(vol[:, :n_sig])
        for e in range(nb):
            members = stress_members(blk.scalar[e], blk.enrichment[e])
            want = np.einsum("j,jqrc->qrc", vol[e, :n_sig], members)
            assert np.abs(sig_h[e] - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(sig_h - exact.sigma(pts).reshape(sig_h.shape)).max() < 1e-10
        u_h = blk.at_points(vol[:, n_sig:n_sig + 2 * n_p].reshape(nb, 2, n_p))
        assert np.abs(u_h - exact.u(pts).reshape(u_h.shape)).max() < 1e-10
        g_scalar = blk.at_points(vol[:, n_sig + 2 * n_p:]).reshape(-1)
        gam_h = np.zeros((len(pts), 2, 2), dtype=complex)
        gam_h[:, 0, 1] = g_scalar
        gam_h[:, 1, 0] = -g_scalar
        assert np.abs(gam_h - exact.gamma(pts)).max() < 1e-10
        for f in range(3):
            fpts = blk.faces.points[:, f]
            sn = np.einsum("eprc,ec->epr", exact.sigma(fpts.reshape(-1, 2)).reshape(
                fpts.shape[:2] + (2, 2)), blk.normals[:, f])
            mom = np.concatenate([face_moment(blk, f, sn[..., 0]),
                                  face_moment(blk, f, sn[..., 1])], axis=1)
            assert np.abs(flux[:, f * 2 * kp1:(f + 1) * 2 * kp1] - mom).max() < 1e-10


# -- condensation algebra --------------------------------------------------


def unit_source(domain):
    if domain == "A":
        return dict(f_acoustic=lambda p: np.ones(len(p)))
    return dict(f_elastic=lambda p: np.ones((len(p), 2)))


def blocks_of(asm, loc):
    """A, B, C and D of each element of a block, rebuilt from its shape."""
    return asm.shape_blocks(loc.elems, loc.domain)[0]


@pytest.mark.parametrize("domain", ["A", "E"])
def test_schur_complement_matches_direct_elimination(domain):
    params = ModelParams(s=S)
    mesh = acoustic_mesh(1) if domain == "A" else elastic_mesh(1)
    asm = Assembler(mesh, 2, params)
    (loc,) = asm.all_locals(**unit_source(domain))
    ops, rows = loc.ops, loc.shape
    rng = np.random.default_rng(8)
    n = len(loc.elems)
    t = rng.normal(size=(n, ops.trace_dim)) + 1j * rng.normal(size=(n, ops.trace_dim))
    # direct route: eliminate the volume block of each element explicitly
    a, b, c, d = blocks_of(asm, loc)
    x = np.linalg.solve(a, ((b @ t[..., None])[..., 0] + loc.source_moments)[..., None])[..., 0]
    direct = ((c @ x[..., None]) + (d @ t[..., None]))[..., 0]
    schur = (ops.condensed_map[rows] @ t[..., None])[..., 0] + loc.rhs_trace
    assert np.abs(direct - schur).max() < 1e-11
    # and the lift map is exactly that elimination
    lifted = (ops.lift_map[rows] @ t[..., None])[..., 0] + loc.rhs_volume
    assert np.abs(lifted - x).max() < 1e-11
    # the source lift solves the volume block against the source moments
    assert np.abs((a @ loc.rhs_volume[..., None])[..., 0] - loc.source_moments).max() < 1e-12


def test_source_maps_match_a_direct_solve():
    # non-polynomial sources on a jittered coupled mesh, where every element
    # has its own shape: the source lifts reproduce the direct solve of each
    # element's volume block and the flux of its solution
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=3)
    asm = Assembler(mesh, 3, ModelParams(s=S))
    locs = asm.all_locals(
        f_acoustic=lambda p: np.exp(p[:, 0]) * np.sin(2.0 * p[:, 1]),
        f_elastic=lambda p: np.column_stack([np.cos(p[:, 0] * p[:, 1]), np.exp(-p[:, 1])]))
    assert {loc.domain for loc in locs} == {"A", "E"}
    for loc in locs:
        a, _, c, _ = blocks_of(asm, loc)
        x = np.linalg.solve(a, loc.source_moments[..., None])[..., 0]
        flux = (c @ x[..., None])[..., 0]
        assert np.abs(loc.rhs_volume - x).max() <= 1e-12 * np.abs(x).max()
        assert np.abs(loc.rhs_trace - flux).max() <= 1e-12 * np.abs(flux).max()


def held_arrays(obj, seen=None):
    """Every array reachable from an object through its attributes and
    containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from held_arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from held_arrays(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from held_arrays(vars(obj), seen)


def test_assembler_keeps_no_volume_block():
    # only the maps of the condensed route stay per shape: no volume block
    # (n_shapes, n_vol, n_vol), neither A nor its factors
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    asm = Assembler(mesh, 1, ModelParams(s=S))
    locs = asm.all_locals(**unit_source("A"), **unit_source("E"))
    n_vol = {loc.ops.volume_dim for loc in locs}
    assert n_vol.isdisjoint({loc.ops.trace_dim for loc in locs})
    held = list(held_arrays((asm, locs)))
    assert any(arr.shape[1:] == loc.ops.lift_map.shape[1:] for arr in held for loc in locs)
    assert not [arr.shape for arr in held
                if arr.ndim >= 3 and arr.shape[-1] == arr.shape[-2] in n_vol]


def held_bytes(obj):
    """Bytes of the distinct buffers behind every array reachable from an
    object (a view counts as the array it views)."""
    owners = {}
    for arr in held_arrays(obj):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    return sum(owners.values())


def test_locals_keep_no_source_map_per_shape():
    # every element is its own shape here, so per-shape maps of the sources,
    # A^-1 E and C A^-1 E, would be applied to one source each: the shape's
    # solve lifts it instead, and the assembler and the locals keep per shape
    # only the lift and condensed maps, the shape's tables and the element's
    # right-hand sides
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    params = ModelParams(s=S)
    asm = Assembler(mesh, 3, params)
    locs = asm.all_locals(**unit_source("A"), **unit_source("E"))
    ops = {loc.domain: loc.ops for loc in locs}
    n_shapes = sum(len(op.condensed_map) for op in ops.values())
    assert n_shapes == mesh.n_elements == 128
    held = list(held_arrays((asm, locs)))
    for domain, op in ops.items():
        n_src = (2 if domain == "E" else 1) * asm.ref.n_scalar
        maps = {(len(op.condensed_map), dim, n_src) for dim in (op.volume_dim, op.trace_dim)}
        # nor the scalar basis on each shape's faces or its face moments
        faces = {(len(op.condensed_map), 3, asm.ref.n_scalar, n)
                 for n in (asm.k + 1, len(face_rule(mesh, 0, asm.k).weights))}
        assert not [arr.shape for arr in held if arr.shape in maps | faces], domain
    # 18,624 B per shape (32 solid, 96 fluid) measured, against 22,112 B with
    # each shape's points, geometry and face tables kept too, and 34,992 B
    # with the two source maps as well
    per_shape = (held_bytes((asm, locs)) - held_bytes(Assembler(mesh, 3, params))) / n_shapes
    assert per_shape < 20e3


def test_each_shape_is_factored_and_solved_once(monkeypatch):
    # one LU factorization and one solve per shape; each element's source is
    # lifted as one more right-hand side of its shape's solve
    calls = {"factor": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(local_solver, "zgetrf", counted("factor", local_solver.zgetrf))
    monkeypatch.setattr(local_solver, "zgetrs", counted("solve", local_solver.zgetrs))
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    asm = Assembler(mesh, 2, ModelParams(s=S))
    asm.all_locals(**unit_source("A"), **unit_source("E"))
    assert calls == {"factor": n_shapes(asm), "solve": n_shapes(asm)} == {
        "factor": mesh.n_elements, "solve": mesh.n_elements}


def scipy_locals(asm, locs, domain):
    """A domain's condensed operators, and the source lifts of its elements,
    from SciPy's ``lu_factor`` of each shape's D A D and one ``lu_solve``
    against [D B | D E F], F the source moments of the shape's elements.
    Returns ``lift_map`` and ``condensed_map`` per shape, and ``rhs_volume``
    and ``rhs_trace`` per element of the domain (zero off it)."""
    shapes = asm._shapes(domain)
    (a, b, c, d), _, scale = asm.shape_blocks(shapes.reps, domain)
    n_el, (n_vol, n_tr) = asm.mesh.n_elements, b.shape[1:]
    moments = np.zeros((n_el, n_vol), dtype=complex)
    for loc in locs:
        if loc.domain == domain:
            moments[loc.elems] = loc.source_moments
    out = dict(lift_map=[], condensed_map=[], rhs_volume=np.zeros((n_el, n_vol), dtype=complex),
               rhs_trace=np.zeros((n_el, n_tr), dtype=complex))
    for j in range(len(shapes.reps)):
        elems = np.flatnonzero(shapes.shape == j)
        rhs = np.concatenate([b[j], moments[elems].T], axis=1) * scale[j, :, None]
        sol = lu_solve(lu_factor(a[j] * scale[j, :, None] * scale[j]), rhs)
        sol *= scale[j, :, None]
        flux = c[j] @ sol
        out["lift_map"].append(sol[:, :n_tr])
        out["condensed_map"].append(flux[:, :n_tr] + d[j])
        out["rhs_volume"][elems] = sol[:, n_tr:].T
        out["rhs_trace"][elems] = flux[:, n_tr:].T
    return out


def assert_locals_equal_scipy(asm, locs):
    """The operators and source lifts of ``locs`` have the bits of
    ``scipy_locals``, and every element has a nonzero source lift."""
    for domain in {loc.domain for loc in locs}:
        want = scipy_locals(asm, locs, domain)
        for loc in (loc for loc in locs if loc.domain == domain):
            for name in ("lift_map", "condensed_map"):
                assert np.array_equal(getattr(loc.ops, name), want[name]), (domain, name)
            for name in ("rhs_volume", "rhs_trace"):
                assert np.abs(want[name][loc.elems]).max(axis=1).min() > 0.0, (domain, name)
                assert np.array_equal(getattr(loc, name), want[name][loc.elems]), (domain, name)


@pytest.mark.parametrize("chunk", [1, 7, local_solver.SHAPE_CHUNK])
def test_in_place_operators_equal_the_stacked_scipy_ones(monkeypatch, chunk):
    # factoring each shape in place and lifting its elements' sources in the
    # same solve, in chunks of any size, moves no bit of the operators or of
    # the source lifts against SciPy's LU of each shape
    monkeypatch.setattr(local_solver, "SHAPE_CHUNK", chunk)
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    asm = Assembler(mesh, 3, ModelParams(s=S))
    locs = asm.all_locals(
        f_acoustic=lambda p: np.exp(p[:, 0]) * np.sin(2.0 * p[:, 1]),
        f_elastic=lambda p: np.column_stack([np.cos(p[:, 0] * p[:, 1]), np.exp(-p[:, 1])]))
    assert min(len(asm._shapes(domain).reps) for domain in ("E", "A")) > 7
    assert_locals_equal_scipy(asm, locs)


def test_assembler_keeps_no_full_stress_table(monkeypatch):
    # per shape only the k+1 enrichment members of the stress basis are
    # kept: no array (n, n_stress, ...) and no normal traces
    # (n, 3, n_stress, ...) stay reachable after assembly, which never
    # evaluates the full basis
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    k = 3
    asm = Assembler(mesh, k, ModelParams(s=S))
    elastic_spaces._check_reference_rank(k)  # the one-off rank check evaluates it

    def full_table(*args, **kwargs):
        raise AssertionError("assembly evaluated the full stress basis")

    with monkeypatch.context() as patch:
        patch.setattr(elastic_spaces.StressTables, "eval", full_table)
        locs = asm.all_locals(**unit_source("A"), **unit_source("E"))
    n_stress = next(loc.ops.slices["sigma"].stop for loc in locs if loc.domain == "E")
    held = list(held_arrays((asm, locs)))
    assert not [arr.shape for arr in held if arr.ndim >= 2 and arr.shape[1] == n_stress]
    assert not [arr.shape for arr in held if arr.ndim >= 3 and arr.shape[1:3] == (3, n_stress)]
    assert any(arr.ndim == 5 and arr.shape[1] == k + 1 for arr in held)  # enrichment


@pytest.mark.parametrize("domain", ["A", "E"])
def test_non_finite_block_names_its_element_before_any_solve(monkeypatch, domain):
    # a NaN in one shape's volume block is refused with the element's number
    # before any shape of its chunk is solved (LAPACK would carry it into the
    # operators)
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    asm = Assembler(mesh, 2, ModelParams(s=S))
    shape_blocks, zgetrs = asm.shape_blocks, local_solver.zgetrs
    victim = np.flatnonzero(mesh.tri_domain == domain)[3]
    events = []

    def poisoned(reps, dom):
        (a, b, c, d), slices, scale = shape_blocks(reps, dom)
        a[reps == victim, 1, 2] = np.nan
        events.append("poisoned" if victim in reps else "clean")
        return (a, b, c, d), slices, scale

    def logged(*args, **kwargs):
        events.append("solve")
        return zgetrs(*args, **kwargs)

    monkeypatch.setattr(asm, "shape_blocks", poisoned)
    monkeypatch.setattr(local_solver, "zgetrs", logged)
    with pytest.raises(SingularLocalSystem, match=f"element {victim}: .*not finite"):
        asm.all_locals(**unit_source("A"), **unit_source("E"))
    assert events[-1] == "poisoned"


def pointwise_vs_condensed(params, domain, k=2):
    mesh = acoustic_mesh(1) if domain == "A" else elastic_mesh(1)
    asm = Assembler(mesh, k, params)
    (blk,), (loc,) = asm.map_blocks(lambda blk: blk), asm.all_locals()
    rng = np.random.default_rng(9)
    n = len(loc.elems)
    t = rng.normal(size=(n, loc.ops.trace_dim)) + 1j * rng.normal(size=(n, loc.ops.trace_dim))
    vol = (loc.ops.lift_map[loc.shape] @ t[..., None])[..., 0] + loc.rhs_volume
    pointwise = reconstruct_flux(blk, params, vol, t).reshape(n, -1)
    algebraic = (loc.ops.condensed_map[loc.shape] @ t[..., None])[..., 0] + loc.rhs_trace
    return pointwise, algebraic


@pytest.mark.parametrize("domain", ["A", "E"])
def test_pointwise_flux_matches_condensed_moments(domain):
    params = ModelParams.from_young_poisson(1.0, 0.3, s=S)
    pointwise, algebraic = pointwise_vs_condensed(params, domain)
    assert np.abs(pointwise - algebraic).max() < 1e-11


def test_pointwise_flux_identity_holds_at_tau_a_2():
    # a larger fluid penalty changes the condensed map, and the pointwise
    # flux follows it
    base = pointwise_vs_condensed(ModelParams(s=S), "A", k=1)[1]
    pointwise, algebraic = pointwise_vs_condensed(ModelParams(s=S, tau_a=2.0), "A", k=1)
    assert np.abs(base - algebraic).max() > 1e-3
    assert np.abs(pointwise - algebraic).max() < 1e-11


def test_zero_data_gives_zero_volume_fields():
    params = ModelParams(s=S)
    (loc,) = Assembler(elastic_mesh(1), 2, params).all_locals()
    assert np.abs(loc.rhs_volume).max() == 0.0
    assert np.abs(loc.rhs_trace).max() == 0.0
    zero = np.zeros((len(loc.elems), loc.ops.trace_dim, 1))
    assert np.abs((loc.ops.lift_map[loc.shape] @ zero)[..., 0] + loc.rhs_volume).max() == 0.0


# -- per-shape sharing -----------------------------------------------------


def triangle(mesh, elem):
    return mesh.vertices[mesh.tri_vertices[elem]]


def n_shapes(asm):
    return sum(len(asm._shapes(d).reps) for d in ("E", "A")
               if np.any(asm.mesh.tri_domain == d))


def scaled(mesh, factor):
    mesh.vertices = mesh.vertices * factor
    mesh.face_length = mesh.face_length * factor
    mesh.h_e *= factor
    mesh.h_a *= factor
    return mesh


def test_assembler_shares_blocks_between_congruent_elements():
    mesh = acoustic_mesh(2)  # all 8 triangles are translates of two shapes
    asm = Assembler(mesh, 1, ModelParams(s=S))
    (loc,) = asm.all_locals()
    assert n_shapes(asm) == 2 and loc.ops.condensed_map.shape[0] == 2
    # the two shapes alternate: the lower and the upper triangle of a cell
    assert np.array_equal(loc.shape, np.tile(loc.shape[:2], 4))
    assert loc.shape[0] != loc.shape[1]


def test_shape_key_is_dimensionless():
    # rounding edges to an absolute 1e-12 merged distinct elements of a tiny
    # mesh; relative to each element's size, every jittered element keeps
    # its own shape at any scale
    for factor in (1.0, 1e-10, 1e6):
        mesh = scaled(build_structured_coupled(
            2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5), factor)
        assert n_shapes(Assembler(mesh, 1, ModelParams(s=S))) == mesh.n_elements == 128
    assert n_shapes(Assembler(scaled(acoustic_mesh(2), 1e-10), 1, ModelParams(s=S))) == 2


def one_element_mesh(tmp_path, tri, domain):
    kind = "gammaAD" if domain == "A" else "elasticBoundary"
    path = tmp_path / "one.mesh"
    path.write_text(
        "hdgmesh v1\nvertices 3\n"
        + "".join(f"{x:.17g} {y:.17g}\n" for x, y in tri)
        + f"triangles 1\n0 1 2 {domain}\n"
        f"faces 3\n0 1 {kind}\n1 2 {kind}\n0 2 {kind}\n"
    )
    return load_mesh(str(path))


def test_assembler_matches_uncached_route(tmp_path):
    # an element that shares its shape's operators gets the same system as
    # when it is assembled on its own
    mesh = acoustic_mesh(2)
    params = ModelParams(s=S)
    src = lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])
    asm = Assembler(mesh, 2, params)
    (loc,) = asm.all_locals(f_acoustic=src)
    for elem in (0, 3, 5):
        i = int(np.flatnonzero(loc.elems == elem)[0])
        alone = Assembler(one_element_mesh(tmp_path, triangle(mesh, elem), "A"), 2, params)
        (fresh,) = alone.all_locals(f_acoustic=src)
        assert np.abs(blocks_of(asm, loc)[0][i] - blocks_of(alone, fresh)[0][0]).max() < 1e-13
        for name in ("lift_map", "condensed_map"):
            shared = getattr(loc.ops, name)[loc.shape[i]]
            assert np.abs(shared - getattr(fresh.ops, name)[0]).max() < 1e-13
        for name in ("rhs_volume", "rhs_trace", "source_moments"):
            assert np.abs(getattr(loc, name)[i] - getattr(fresh, name)[0]).max() < 1e-13
        assert_locals_equal_scipy(alone, [fresh])
    # four elements share each of the two shapes, so each shape solves its
    # four sources together
    assert np.bincount(loc.shape).tolist() == [4, 4]
    assert_locals_equal_scipy(asm, [loc])


def similar_triangles_mesh(tmp_path, domain):
    # triangles 0 and 1 have the same shape and orientation, 1 twice as big;
    # triangle 2 fills the gap between them
    inner, outer = ("interiorA", "gammaAD") if domain == "A" else ("interiorE", "elasticBoundary")
    path = tmp_path / "similar.mesh"
    path.write_text(
        "hdgmesh v1\nvertices 5\n0 0\n1 0\n0 1\n3 0\n1 2\n"
        f"triangles 3\n0 1 2 {domain}\n1 3 4 {domain}\n2 1 4 {domain}\n"
        f"faces 7\n0 1 {outer}\n1 2 {inner}\n0 2 {outer}\n1 3 {outer}\n"
        f"3 4 {outer}\n1 4 {inner}\n2 4 {outer}\n"
    )
    return load_mesh(str(path))


@pytest.mark.parametrize("domain", ["A", "E"])
def test_similar_elements_of_different_size_do_not_share(tmp_path, domain):
    mesh = similar_triangles_mesh(tmp_path, domain)
    params = ModelParams(s=S)
    source = {"f_acoustic": lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1])} if domain == "A" \
        else {"f_elastic": lambda p: np.column_stack([np.sin(p[:, 0]), p[:, 0] * p[:, 1]])}
    asm = Assembler(mesh, 2, params)
    (loc,) = asm.all_locals(**source)
    assert loc.shape[0] != loc.shape[1]
    for elem in (0, 1):
        alone = Assembler(one_element_mesh(tmp_path, triangle(mesh, elem), domain), 2, params)
        (fresh,) = alone.all_locals(**source)
        shared = {"matrix": blocks_of(asm, loc)[0][elem]}
        fresh_ops = {"matrix": blocks_of(alone, fresh)[0][0]}
        for name in ("lift_map", "condensed_map"):
            shared[name] = getattr(loc.ops, name)[loc.shape[elem]]
            fresh_ops[name] = getattr(fresh.ops, name)[0]
        for name, arr in shared.items():
            assert np.abs(arr - fresh_ops[name]).max() < 1e-13 * np.abs(arr).max()
        for name in ("rhs_volume", "rhs_trace", "source_moments"):
            assert np.abs(getattr(loc, name)[elem] - getattr(fresh, name)[0]).max() < 1e-13
        assert_locals_equal_scipy(alone, [fresh])
    assert_locals_equal_scipy(asm, [loc])


def test_assembler_tables_translate_points():
    # each element's points are the reference points through its own map
    for mesh in (acoustic_mesh(2), build_structured_coupled(
            2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)):
        asm = Assembler(mesh, 1, ModelParams(s=S))
        ref_pts = asm.ref.quad.points
        for elem in range(mesh.n_elements):
            tab = asm.tables(elem)
            tri = triangle(mesh, elem)
            mapped = tri[0] + ref_pts @ np.column_stack([tri[1] - tri[0], tri[2] - tri[0]]).T
            assert np.allclose(tab.points[0], mapped, rtol=0.0, atol=1e-15)
            assert np.array_equal(tab.face_ids[0], mesh.element_faces[elem])


def inverse_mapped_face_tables(asm, elems):
    """The scalar basis at the face points of ``elems`` and its moments
    against the face basis, each face's rule mapped back onto the reference
    triangle through the inverse of the element's affine map."""
    verts = asm.mesh.vertices[asm.mesh.tri_vertices[elems]]
    jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=2)
    faces = face_rule(asm.mesh, asm.mesh.element_faces[elems], asm.k)
    xi = (faces.points - verts[:, None, None, 0]) @ np.linalg.inv(jac).transpose(0, 2, 1)[:, None]
    values = asm.ref.eval_values(xi.reshape(-1, 2)).reshape((-1,) + xi.shape[:3])
    values = values.transpose(1, 2, 0, 3)  # (nb, 3, n_scalar, nfq)
    return values, np.einsum("efp,efmp,efip->efim", faces.weights, faces.basis, values)


@pytest.mark.parametrize("k", range(1, 7))
def test_face_tables_are_the_inverse_mapped_scalar_basis(k):
    # the scalar basis on a face is the reference table of its edge, run in
    # the face's direction; the moments are the unit-length ones times sqrt|f|
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.2, seed=7)
    asm = Assembler(mesh, k, ModelParams(s=S))
    runs = set()
    for blk in asm.map_blocks(lambda blk: blk):
        values, moments = inverse_mapped_face_tables(asm, blk.elems)
        for got, want in ((blk.face_scalar, values), (blk.scalar_moments, moments)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        runs |= set(np.sign(np.vecdot(blk.normals, mesh.face_normal[blk.face_ids])).flat)
    assert runs == {-1.0, 1.0}  # faces run along and against their elements' edges


@pytest.mark.parametrize("block_size", [1, 7, local_solver.BLOCK_SIZE])
def test_assembler_tables_use_each_face_rule(monkeypatch, block_size):
    # elements share their shape's tables; the face rule of each element
    # must still be its face's own, bit for bit, for any blocking
    monkeypatch.setattr(local_solver, "BLOCK_SIZE", block_size)
    mesh = build_structured_coupled(4, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0))
    k = 2
    asm = Assembler(mesh, k, ModelParams(s=S))
    for blk in asm.map_blocks(lambda blk: blk):
        assert len(blk.elems) <= block_size
        for fids, pts, wts, basis in zip(blk.face_ids, blk.faces.points, blk.faces.weights,
                                         blk.faces.basis):
            for f, fid in enumerate(fids):
                fr = face_rule(mesh, fid, k)
                assert np.array_equal(pts[f], fr.points)
                assert np.array_equal(wts[f], fr.weights)
                assert np.array_equal(basis[f], fr.basis)


@pytest.mark.parametrize("block_size", [1, 7, local_solver.BLOCK_SIZE])
def test_both_sides_of_a_face_see_its_face_rule(monkeypatch, block_size):
    monkeypatch.setattr(local_solver, "BLOCK_SIZE", block_size)
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=3
    )
    k = 2
    asm = Assembler(mesh, k, ModelParams(s=S))
    kinds = set()
    for fid in np.flatnonzero((mesh.face_element >= 0).all(axis=1)):
        kinds.add(KINDS[mesh.face_kind[fid]])
        fr = face_rule(mesh, fid, k)
        for elem, f, sign in zip(mesh.face_element[fid], mesh.face_local_edge[fid],
                                 mesh.face_sign[fid]):
            tab = asm.tables(elem)
            assert tab.face_ids[0, f] == fid
            assert np.array_equal(tab.faces.points[0, f], fr.points)
            assert np.array_equal(tab.faces.weights[0, f], fr.weights)
            assert np.array_equal(tab.faces.basis[0, f], fr.basis)
            assert np.array_equal(tab.normals[0, f], sign * mesh.face_normal[fid])
    assert kinds == {FaceKind.INTERIOR_A, FaceKind.INTERIOR_E, FaceKind.GAMMA}


# -- local condition verdict -------------------------------------------------


@pytest.mark.parametrize("scale", [1e-7, 1e6])
@pytest.mark.parametrize("domain", ["A", "E"])
def test_pivot_check_is_scale_free(domain, scale):
    # local blocks scale with powers of h; a well-shaped element of any size
    # must assemble (an absolute pivot floor rejected h ~ 1e-7)
    mesh = scaled(build_structured_coupled(2, (0.0, 0.0, 1.0, 1.0), domain=domain), scale)
    for k in (1, 3):
        locs = Assembler(mesh, k, ModelParams(s=S)).all_locals()
        assert all(np.isfinite(loc.ops.condensed_map).all() for loc in locs)


@pytest.mark.parametrize("length", [1e-6, 1e8])
def test_pivot_check_is_scale_free_on_a_jittered_coupled_mesh(length):
    # the same problem on the mesh stretched by L (s and both tau over L) has
    # the same local matrices up to powers of L, so it assembles at any L
    # (the unscaled pivots of one solid element fell to 1.7e-14 and 6.0e-17)
    mesh = scaled(build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5), length)
    params = ModelParams(s=S / length, tau_e=1.0 / length, tau_a=1.0 / length)
    locs = Assembler(mesh, 3, params).all_locals()
    assert sum(len(loc.elems) for loc in locs) == mesh.n_elements
    assert all(np.isfinite(loc.ops.condensed_map).all() for loc in locs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


# -- batched stress tables ---------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_batched_stress_tables_match_the_one_triangle_basis(k):
    mesh = build_structured_coupled(
        1, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=4)
    asm = Assembler(mesh, k, ModelParams(s=S))
    # the blocks are built from the scalar tables and the enrichment alone;
    # the one-triangle basis, every member evaluated, is the oracle
    shapes, params = asm._shapes("E"), asm.params
    (matrix, b, c, _), slices, _ = asm.shape_blocks(shapes.reps, "E")
    n_p = asm.ref.n_scalar
    n_sig = slices["sigma"].stop
    ux = slice(n_sig, n_sig + n_p)
    uy = slice(n_sig + n_p, n_sig + 2 * n_p)
    i_g = slices["gamma"]
    blk = 2 * (k + 1)
    assert len(shapes.reps) == np.count_nonzero(mesh.tri_domain == "E") > 1

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for row, rep in enumerate(shapes.reps):
        basis = build_stress_basis(k, triangle(mesh, rep), asm.ref)
        tab = asm.tables(rep)
        pts, w = tab.points[0], tab.weights[0]
        vals = basis.eval(pts)
        members = stress_members(asm.ref.values, tab.enrichment[0])
        assert np.abs(members - vals).max() <= 1e-12 * np.abs(vals).max()
        # the normal traces enter B and C as moments <tau_j n, mu> per row
        for f in range(3):
            tn = basis.eval_normal(tab.faces.points[0, f], tab.normals[0, f])
            fw, fb = tab.faces.weights[0, f], tab.faces.basis[0, f]
            want = np.einsum("p,lp,jpr->jrl", fw, fb, tn).reshape(n_sig, blk)
            scale = np.abs(want).max()
            assert np.abs(want[basis.dim_tensor :]).max() <= 1e-12 * scale  # enrichment
            faces = slice(f * blk, (f + 1) * blk)
            assert np.abs(b[row, :n_sig, faces] - want).max() <= 1e-12 * scale
            assert np.abs(c[row, faces, :n_sig].T - want).max() <= 1e-12 * scale
        # compliance int C^-1 tau_j : tau_i, and the spin int p_j (tau_i01 - tau_i10)
        comp = hooke_inverse_apply(vals, params.lam, params.mu)
        assert close(matrix[row, :n_sig, :n_sig], np.einsum("q,jqrc,iqrc->ij", w, comp, vals))
        spin = np.einsum("q,jq,iq->ij", w, asm.ref.values, vals[..., 0, 1] - vals[..., 1, 0])
        assert close(matrix[row, :n_sig, i_g], spin)
        assert close(matrix[row, i_g, :n_sig], spin.T)
        # the divergences enter the matrix as int p_i div(tau_j)
        div = basis.eval_div(pts)
        for col, cols in enumerate((ux, uy)):
            want = np.einsum("q,iq,jq->ji", w, asm.ref.values, div[..., col])
            assert close(matrix[row, : basis.dim, cols], want)


def two_element_solid_mesh(tmp_path, vertex2):
    """Two solid triangles sharing face 0; ``vertex2`` is element 1's apex,
    and element 0 is well shaped."""
    path = tmp_path / "two.mesh"
    path.write_text(
        "hdgmesh v1\nvertices 4\n-0.61876488 0.7259\n0.79764753 -0.82797513\n"
        f"{vertex2}\n-0.5 -1.0\ntriangles 2\n0 3 1 E\n0 1 2 E\n"
        "faces 5\n0 1 interiorE\n0 3 elasticBoundary\n1 3 elasticBoundary\n"
        "1 2 elasticBoundary\n0 2 elasticBoundary\n"
    )
    return load_mesh(str(path))


def ladder_mesh(tmp_path, ratio: float):
    """The two-element mesh whose element 1 has h^2/area = ratio: its apex
    sits 2h/ratio off the midpoint of its longest edge."""
    v0, v1 = np.array([-0.61876488, 0.7259]), np.array([0.79764753, -0.82797513])
    h = np.linalg.norm(v1 - v0)
    normal = np.array([v0[1] - v1[1], v1[0] - v0[0]]) / h
    apex = 0.5 * (v0 + v1) + 2.0 * h / ratio * normal
    return two_element_solid_mesh(tmp_path, " ".join(map(repr, apex.tolist())))


def test_thin_triangle_assembles_while_its_pivots_resolve(tmp_path):
    # element 1 has h^2/area = 99: the mapped reference enrichment keeps its
    # local system within the condition floor at every degree up to 6
    mesh = two_element_solid_mesh(tmp_path, "0.12882564 -0.03100212")
    for k in (3, 4, 5, 6):
        (loc,) = Assembler(mesh, k, ModelParams(s=S)).all_locals()
        assert np.isfinite(loc.ops.condensed_map).all()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_thinness_ladder_is_accurate_or_refused_monotonically(tmp_path, k):
    # h^2/area = ratio = 10 ... 1e10; on each rung the degree-k polynomial
    # stress is reproduced to 1e-8, or element 1 is refused, and so is every
    # thinner rung after it
    case = make_polynomial_case("elastic", k)
    verdicts = []
    for ratio in 10.0 ** np.arange(1, 11):
        mesh = ladder_mesh(tmp_path, ratio)
        asm = Assembler(mesh, k, case.params)
        try:
            sol, _ = solve_problem(mesh, k, case.params, case.data, assembler=asm)
        except SingularLocalSystem as exc:
            assert str(exc).startswith("element 1: ")
            verdicts.append(False)
            continue
        err = norm = 0.0
        for blk in asm.map_blocks(lambda blk: blk):
            exact = blk.sample_volume(case.exact.sigma)
            err += blk.l2sq(blk.stress_at_points(sol.parts["sigma"][sol.row[blk.elems]]) - exact)
            norm += blk.l2sq(exact)
        assert np.sqrt(err / norm) <= 1e-8, f"h^2/area = {ratio:.0e}"
        verdicts.append(True)
    assert verdicts == sorted(verdicts, reverse=True), verdicts


def test_condition_floor_sits_between_two_ladder_rungs(tmp_path):
    # element 1's rcond falls about a hundredfold per rung of the ladder:
    # at k=3, h^2/area = 1e4 it is 6e-11 and refused; at k=4, 1e3 it is
    # 4e-10 and accepted.  A floor moved either way flips one verdict
    with pytest.raises(SingularLocalSystem, match=r"^element 1: ") as refused:
        Assembler(ladder_mesh(tmp_path, 1e4), 3, make_polynomial_case("elastic", 3).params
                  ).all_locals()
    rcond = float(re.search(r"rcond (\S+) <=", str(refused.value)).group(1))
    assert 1e-13 < rcond <= 1e-10
    (loc,) = Assembler(ladder_mesh(tmp_path, 1e3), 4, make_polynomial_case("elastic", 4).params
                       ).all_locals()
    assert 1e-10 < loc.ops.rcond.min() <= 1e-8


def test_jittered_coupled_mesh_assembles_at_degree_six():
    # the guard from below: the condition floor lets the coarse jittered
    # coupled63 mesh through at the highest degree the tests use
    mesh = build_structured_coupled(
        2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0), jitter=0.15, seed=5)
    locs = Assembler(mesh, 6, ModelParams(s=S)).all_locals()
    assert sum(len(loc.elems) for loc in locs) == mesh.n_elements
    assert all(np.isfinite(loc.ops.condensed_map).all() for loc in locs)


def test_rank_deficient_stress_basis_names_its_element(tmp_path):
    # element 1 is a sliver (h^2/area = 3e10) on which the degree-4 stress
    # basis is numerically rank deficient: the condition estimate of its
    # local system rejects it and names it
    mesh = two_element_solid_mesh(tmp_path, "0.0894413251 -0.0510375649")
    with pytest.raises(RuntimeError, match="element 1: "):
        Assembler(mesh, 4, ModelParams(s=S)).all_locals()
