"""Manufactured cases, error measures, orders, and report serialization.

The manufactured fields are cross-checked two independent ways: finite
differences (no algebra shared with the implementation) and symbolic
differentiation via sympy.  Rates themselves are covered by the acceptance
suite; here the harness plumbing is what is under test.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
import sympy as sym
from hypothesis import given, settings
from hypothesis import strategies as st

from hdgwave.local_solver import Assembler
from hdgwave.mesh import FaceKind, build_structured_coupled, elastic_side_normal, refine
from hdgwave.skeleton import ProblemData, solve_problem
from hdgwave.verify import (
    ConvergenceReport,
    ExactFields,
    compute_errors,
    compute_theta,
    eoc,
    make_case,
    make_polynomial_case,
    run_study,
)

RNG = np.random.default_rng(7)


def fd_grad(f, pts, h=1e-6):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (f(pts + ex) - f(pts - ex)) / (2 * h)
    gy = (f(pts + ey) - f(pts - ey)) / (2 * h)
    return np.stack([gx, gy], axis=1)


def fd_laplacian(f, pts, h=1e-4):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    return (
        f(pts + ex) + f(pts - ex) + f(pts + ey) + f(pts - ey) - 4.0 * f(pts)
    ) / h**2


# -- manufactured fields satisfy their strong equations ----------------------


def test_acoustic_case_satisfies_strong_pde():
    case = make_case("acoustic61")
    pts = RNG.uniform(0.1, 0.9, size=(40, 2))
    v, q, f = case.exact.v, case.exact.q, case.data.f
    assert np.abs(q(pts) - fd_grad(v, pts)).max() < 1e-8
    s, c = case.params.s, case.params.c
    resid = -fd_laplacian(v, pts) + (s / c) ** 2 * v(pts) - f(pts)
    assert np.abs(resid).max() < 1e-6


def test_acoustic_source_frozen_value():
    # at (pi/2, pi/2) the scalar field is 1, so f = 2 + (2-i)^2 = 5 - 4i
    case = make_case("acoustic61")
    pt = np.array([[np.pi / 2, np.pi / 2]])
    assert abs(case.data.f(pt)[0] - (5.0 - 4.0j)) < 1e-14


def test_elastic_case_satisfies_strong_pde_fd():
    case = make_case("elastic62")
    lam, mu = case.params.lam, case.params.mu
    pts = RNG.uniform(0.05, 0.95, size=(30, 2))
    u, sigma, f_e = case.exact.u, case.exact.sigma, case.data.f_elastic

    jx = fd_grad(lambda p: u(p)[:, 0], pts)
    jy = fd_grad(lambda p: u(p)[:, 1], pts)
    eps = np.empty((len(pts), 2, 2))
    eps[:, 0, 0] = jx[:, 0]
    eps[:, 1, 1] = jy[:, 1]
    eps[:, 0, 1] = eps[:, 1, 0] = 0.5 * (jx[:, 1] + jy[:, 0])
    tr = eps[:, 0, 0] + eps[:, 1, 1]
    sig_fd = 2.0 * mu * eps
    sig_fd[:, 0, 0] += lam * tr
    sig_fd[:, 1, 1] += lam * tr
    assert np.abs(sigma(pts) - sig_fd).max() < 1e-7

    div = np.stack(
        [
            fd_grad(lambda p: sigma(p)[:, 0, 0].real, pts)[:, 0]
            + fd_grad(lambda p: sigma(p)[:, 0, 1].real, pts)[:, 1],
            fd_grad(lambda p: sigma(p)[:, 1, 0].real, pts)[:, 0]
            + fd_grad(lambda p: sigma(p)[:, 1, 1].real, pts)[:, 1],
        ],
        axis=1,
    )
    rho, s = case.params.rho_e, case.params.s
    assert np.abs(rho * s**2 * u(pts) - div - f_e(pts)).max() < 1e-5


def test_elastic_source_matches_symbolic_derivation():
    case = make_case("elastic62", poisson=0.49999)
    lam, mu = case.params.lam, case.params.mu
    rho, s = case.params.rho_e, case.params.s
    x, y = sym.symbols("x y", real=True)
    u1 = sym.sin(sym.pi * x) * sym.cos(sym.pi * y)
    u2 = sym.cos(sym.pi * x) * sym.sin(sym.pi * y)
    eps = sym.Matrix(
        [
            [sym.diff(u1, x), (sym.diff(u1, y) + sym.diff(u2, x)) / 2],
            [(sym.diff(u1, y) + sym.diff(u2, x)) / 2, sym.diff(u2, y)],
        ]
    )
    sig = 2 * mu * eps + lam * eps.trace() * sym.eye(2)
    f1 = rho * s**2 * u1 - sym.diff(sig[0, 0], x) - sym.diff(sig[0, 1], y)
    f2 = rho * s**2 * u2 - sym.diff(sig[1, 0], x) - sym.diff(sig[1, 1], y)
    fn = sym.lambdify((x, y), [f1, f2], "numpy")
    pts = RNG.uniform(0.0, 1.0, size=(25, 2))
    exact = np.stack(fn(pts[:, 0], pts[:, 1]), axis=1)
    scale = np.abs(exact).max()
    assert np.abs(case.data.f_elastic(pts) - exact).max() < 1e-12 * scale


def test_elastic_exact_spin_is_zero():
    case = make_case("elastic62")
    pts = RNG.uniform(0.0, 1.0, size=(10, 2))
    j = fd_grad(lambda p: case.exact.u(p)[:, 0], pts)[:, 1] - fd_grad(
        lambda p: case.exact.u(p)[:, 1], pts
    )[:, 0]
    assert np.abs(j).max() < 1e-7  # symmetric gradient field
    assert np.abs(case.exact.gamma_p(pts)).max() == 0.0


def test_coupled_interface_data_cancels_exactly():
    """The incident field and lifted data are built so the exact solution
    satisfies both transmission rows with zero mismatch."""
    case = make_case("coupled63")
    mesh = case.mesh_at(1)
    s, rho_f = case.params.s, case.params.rho_f
    d, e = case.data, case.exact
    checked = 0
    for fid in np.flatnonzero(mesh.is_kind(FaceKind.GAMMA)):
        n_e = elastic_side_normal(mesh, fid)
        n_a = -n_e
        t = np.linspace(0.1, 0.9, 5)[:, None]
        a, b = mesh.vertices[mesh.face_vertices[fid]]
        pts = a + t * (b - a)
        r1 = (
            e.q(pts) @ n_a
            - s * (e.u(pts) @ n_e)
            + np.asarray(d.grad_v_inc(pts)) @ n_a
            - d.g1(pts, n_e)
        )
        sig_n = np.einsum("nrc,c->nr", e.sigma(pts), n_e)
        r2 = (
            -sig_n
            + rho_f * s * (e.v(pts) + d.v_inc(pts))[:, None] * n_a[None, :]
            - d.g2(pts, n_e)
        )
        assert np.abs(r1).max() < 1e-13
        assert np.abs(r2).max() < 1e-13
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("kind", ["acoustic", "elastic", "coupled"])
@pytest.mark.parametrize("k", [1, 3])
def test_polynomial_case_fields_consistent_by_fd(kind, k):
    case = make_polynomial_case(kind, k)
    pts = RNG.uniform(-0.8, 0.8, size=(20, 2))
    if case.exact.v is not None:
        assert np.abs(case.exact.q(pts) - fd_grad(case.exact.v, pts)).max() < 1e-6
    if case.exact.u is not None:
        j = fd_grad(lambda p: case.exact.u(p)[:, 0], pts)[:, 1] - fd_grad(
            lambda p: case.exact.u(p)[:, 1], pts
        )[:, 0]
        assert np.abs(0.5 * j - case.exact.gamma_p(pts)).max() < 1e-6


# -- order computation ---------------------------------------------------------


@given(
    p=st.floats(0.3, 6.0),
    amp=st.floats(1e-8, 1e3),
    h1=st.floats(0.05, 1.0),
    ratio=st.floats(1.2, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_eoc_recovers_exact_power(p, amp, h1, ratio):
    h2 = h1 / ratio
    assert abs(eoc(amp * h1**p, amp * h2**p, h1, h2) - p) < 1e-9


def test_eoc_degenerate_inputs_are_nan():
    assert np.isnan(eoc(0.0, 1e-3, 1.0, 0.5))
    assert np.isnan(eoc(1e-3, 0.0, 1.0, 0.5))


# -- study driver and reports ---------------------------------------------------


@pytest.fixture(scope="module")
def small_report():
    return run_study(make_case("acoustic61"), 1, 3)


def test_run_study_row_structure(small_report):
    rows = small_report.rows
    assert [r.level for r in rows] == [0, 1, 2]
    assert rows[0].orders == {}
    hs = [r.h for r in rows]
    assert hs[0] > hs[1] > hs[2]
    assert abs(hs[0] / hs[1] - 2.0) < 1e-12
    for r in rows:
        assert set(r.errors) == {"q", "v", "vhat"}
        assert r.theta is not None and r.theta > 0.0
    for r in rows[1:]:
        assert set(r.orders) == {"q", "v", "vhat", "theta"}
    errs = [r.errors["v"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert small_report.final_orders() == rows[-1].orders


def test_run_study_verbose_logging():
    lines = []
    run_study(make_case("acoustic61"), 1, 2, log=lines.append)
    assert len(lines) == 2
    assert "level=0" in lines[0] and "level=1" in lines[1]


def test_csv_schema_and_determinism(small_report):
    csv = small_report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "case,k,level,N,h,err_sigma,err_u,err_gamma,err_q,err_v,err_uhat,"
        "err_vhat,theta,eoc_sigma,eoc_u,eoc_gamma,eoc_q,eoc_v,eoc_uhat,"
        "eoc_vhat,eoc_theta"
    )
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "acoustic61" and first[1] == "1" and first[2] == "0"
    # elastic columns empty for the fluid-only case; orders empty on row 0
    assert first[5] == "" and first[6] == "" and first[7] == ""
    assert all(cell == "" for cell in first[13:])
    second = lines[2].split(",")
    assert len(second) == 21
    assert second[17] != "" and second[20] != ""  # eoc_v and eoc_theta
    assert small_report.to_csv() == csv  # byte-for-byte deterministic


def test_json_mirrors_csv(small_report):
    payload = json.loads(small_report.to_json())
    assert payload["case"] == "acoustic61" and payload["k"] == 1
    assert len(payload["rows"]) == 3
    row0, row1 = payload["rows"][0], payload["rows"][1]
    assert row0["eoc"]["v"] is None and row0["errors"]["sigma"] is None
    # JSON keeps full precision; CSV rounds to six decimals
    csv_row1 = small_report.to_csv().strip().split("\n")[2].split(",")
    assert float(csv_row1[17]) == float(f"{row1['eoc']['v']:.6e}")
    assert float(csv_row1[9]) == float(f"{row1['errors']['v']:.6e}")
    assert row1["N"] == small_report.rows[1].n_skeleton


def test_dat_format(small_report):
    dat = small_report.to_dat()
    lines = dat.strip().split("\n")
    assert lines[0] == "# h err_q err_v err_vhat theta"
    assert len(lines) == 4
    cols = lines[1].split()
    assert len(cols) == 5
    float(cols[0])  # parses


def test_empty_report_serializes():
    rep = ConvergenceReport(case="acoustic61", k=1, rows=[])
    assert rep.final_orders() == {}
    assert rep.to_csv().startswith("case,k,level")
    assert json.loads(rep.to_json())["rows"] == []


# -- case construction -----------------------------------------------------------


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="acoustic61, elastic62, or coupled63"):
        make_case("helmholtz")
    with pytest.raises(ValueError, match="polynomial case"):
        make_polynomial_case("plate", 2)


def test_case_parameter_overrides():
    case = make_case("elastic62", poisson=0.49999, s=3.0 - 2.0j, tau_e=2.5)
    lam, mu = case.params.lam, case.params.mu
    assert abs(lam / (2.0 * (lam + mu)) - 0.49999) < 1e-12
    assert case.params.s == 3.0 - 2.0j
    assert case.params.tau_e == 2.5
    assert lam > 1e3 * mu  # almost incompressible


def test_coupled_mesh_ladder_is_non_nested():
    case = make_case("coupled63")
    sizes = [case.mesh_at(level).n_elements for level in range(6)]
    assert sizes == [32 * n * n for n in (1, 2, 4, 8, 16, 20)]
    hs = [case.mesh_at(level).h for level in range(6)]
    assert hs[-2] / hs[-1] == pytest.approx(20.0 / 16.0, rel=1e-12)


def test_mesh_at_caches_levels():
    case = make_case("acoustic61")
    assert case.mesh_at(1) is case.mesh_at(1)


ALL_EXACT = {"v", "q", "u", "sigma", "gamma_p"}
COUPLED_BOXES = ((-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0))


ACOUSTIC_DATA = {"f", "dirichlet", "neumann"}
ELASTIC_DATA = {"f_elastic", "u_dirichlet"}


@pytest.mark.parametrize("name,data,exact,domains,nested", [
    ("acoustic61", ACOUSTIC_DATA, {"v", "q"}, {"A"}, True),
    ("elastic62", ELASTIC_DATA, {"u", "sigma", "gamma_p"}, {"E"}, True),
    ("coupled63", ACOUSTIC_DATA | ELASTIC_DATA | {"v_inc", "grad_v_inc", "g1", "g2"},
     ALL_EXACT, {"A", "E"}, False),
    ("acoustic-k2", ACOUSTIC_DATA, {"v", "q"}, {"A"}, True),
    ("elastic-k2", ELASTIC_DATA, {"u", "sigma", "gamma_p"}, {"E"}, True),
    ("coupled-k2", ACOUSTIC_DATA | ELASTIC_DATA | {"g1", "g2"}, ALL_EXACT, {"A", "E"}, True),
])
def test_cases_set_exactly_their_data_fields_and_meshes(name, data, exact, domains, nested):
    # every case gives each boundary datum of its domains, as a mesh file may
    # mark any boundary kind; polynomial cases carry no incident field; the
    # polynomial coupled case refines its base mesh, coupled63 builds each
    # rung of its ladder afresh
    kind, _, k = name.partition("-k")
    case = make_polynomial_case(kind, int(k)) if k else make_case(name)

    def set_members(obj):
        return {f.name for f in dataclasses.fields(obj) if getattr(obj, f.name) is not None}

    assert set_members(case.data) == data
    assert set_members(case.exact) == exact
    mesh0, mesh1 = case.mesh_at(0), case.mesh_at(1)
    assert set(mesh0.tri_domain) == domains
    want = refine(mesh0) if nested else build_structured_coupled(2, *COUPLED_BOXES)
    assert np.array_equal(mesh1.vertices, want.vertices)
    assert np.array_equal(mesh1.tri_vertices, want.tri_vertices)


@pytest.mark.parametrize("measure", [compute_errors, compute_theta])
def test_exact_fields_missing_on_a_mesh_domain_are_named(measure):
    # acoustic61 has no solid fields: the coupled mesh is refused before
    # the first block, not with a TypeError from calling None
    coupled = make_case("coupled63")
    mesh = coupled.mesh_at(0)
    asm = Assembler(mesh, 1, coupled.params)
    sol, _ = solve_problem(mesh, 1, coupled.params, coupled.data, assembler=asm)
    exact = make_case("acoustic61").exact
    with pytest.raises(ValueError, match=r"solid domain \(E\): sigma, u, gamma_p not set"):
        measure(asm, sol, exact)
    fluid_only = dataclasses.replace(coupled.exact, q=None)
    with pytest.raises(ValueError, match=r"fluid domain \(A\): q not set"):
        measure(asm, sol, fluid_only)


def test_theta_vanishes_when_solution_is_projection():
    """On a polynomial case the discrete solution IS the projected exact
    solution, so the projection-distance measure collapses to round-off."""
    case = make_polynomial_case("coupled", 1)
    mesh = case.mesh_at(0)
    asm = Assembler(mesh, 1, case.params)
    sol, _ = solve_problem(mesh, 1, case.params, case.data, assembler=asm)
    assert compute_theta(asm, sol, case.exact) < 1e-10


# -- scale invariance -----------------------------------------------------------


def rescaled(case, mesh, length):
    """The same problem on the mesh stretched by ``length``: every field is
    composed with x / length, and each term scales with its derivatives."""

    def at(fn, power):
        return lambda pts, *normal: fn(pts / length, *normal) / length**power

    d, e = case.data, case.exact
    data = ProblemData(f=at(d.f, 2), f_elastic=at(d.f_elastic, 2),
                       dirichlet=at(d.dirichlet, 0), v_inc=at(d.v_inc, 0),
                       grad_v_inc=at(d.grad_v_inc, 1), g1=at(d.g1, 1), g2=at(d.g2, 1))
    exact = ExactFields(v=at(e.v, 0), q=at(e.q, 1), u=at(e.u, 0), sigma=at(e.sigma, 1),
                        gamma_p=at(e.gamma_p, 1))
    p = case.params
    params = dataclasses.replace(p, s=p.s / length, tau_e=p.tau_e / length,
                                 tau_a=p.tau_a / length)
    mesh.vertices = mesh.vertices * length
    mesh.face_length = mesh.face_length * length
    mesh.h_e *= length
    mesh.h_a *= length
    return params, data, exact


def test_errors_scale_with_the_problem():
    # the discrete problem is scale-equivariant: stretching the domain by L
    # (with s and both tau over L) multiplies each error by a fixed power
    # of L, to round-off
    case = make_case("coupled63")
    k, length = 2, 1e6

    def errors(scale):
        mesh = build_structured_coupled(2, (-2.0, -2.0, 2.0, 2.0), (-1.0, -1.0, 1.0, 1.0),
                                        jitter=0.15, seed=5)
        params, data, exact = rescaled(case, mesh, scale)
        asm = Assembler(mesh, k, params)
        sol, _ = solve_problem(mesh, k, params, data, assembler=asm)
        return compute_errors(asm, sol, exact)

    base, big = errors(1.0), errors(length)
    powers = {"v": 1, "u": 1, "vhat": 1, "uhat": 1, "q": 0, "sigma": 0, "gamma": 0}
    assert base.keys() == powers.keys()
    for name, power in powers.items():
        assert big[name] == pytest.approx(base[name] * length**power, rel=1e-10), name


# the report.csv text of four cheap studies: (case, Poisson ratio, k, levels)
STUDY_CSV = {
    ("acoustic61", 0.3, 3, 3): (
        "case,k,level,N,h,err_sigma,err_u,err_gamma,err_q,err_v,err_uhat,err_vhat,theta,"
        "eoc_sigma,eoc_u,eoc_gamma,eoc_q,eoc_v,eoc_uhat,eoc_vhat,eoc_theta\n"
        "acoustic61,3,0,32,7.071068e-01,,,,6.437524e-05,3.352653e-05,,5.010789e-06,"
        "2.544277e-05,,,,,,,,\n"
        "acoustic61,3,1,160,3.535534e-01,,,,4.082402e-06,2.169189e-06,,1.644439e-07,"
        "1.523367e-06,,,,3.979016e+00,3.950076e+00,,4.929371e+00,4.061920e+00\n"
        "acoustic61,3,2,704,1.767767e-01,,,,2.567720e-07,1.375461e-07,,5.236852e-09,"
        "9.282123e-08,,,,3.990858e+00,3.979168e+00,,4.972752e+00,4.036665e+00\n"),
    ("acoustic61", 0.3, 1, 3): (
        "case,k,level,N,h,err_sigma,err_u,err_gamma,err_q,err_v,err_uhat,err_vhat,theta,"
        "eoc_sigma,eoc_u,eoc_gamma,eoc_q,eoc_v,eoc_uhat,eoc_vhat,eoc_theta\n"
        "acoustic61,1,0,16,7.071068e-01,,,,1.519068e-02,8.620963e-03,,2.116716e-03,"
        "9.244363e-03,,,,,,,,\n"
        "acoustic61,1,1,80,3.535534e-01,,,,3.874382e-03,2.251486e-03,,2.779133e-04,"
        "2.276859e-03,,,,1.971148e+00,1.936972e+00,,2.929121e+00,2.021529e+00\n"
        "acoustic61,1,2,352,1.767767e-01,,,,9.746696e-04,5.747397e-04,,3.550713e-05,"
        "5.647601e-04,,,,1.990981e+00,1.969897e+00,,2.968454e+00,2.011335e+00\n"),
    ("elastic62", 0.49999, 2, 3): (
        "case,k,level,N,h,err_sigma,err_u,err_gamma,err_q,err_v,err_uhat,err_vhat,theta,"
        "eoc_sigma,eoc_u,eoc_gamma,eoc_q,eoc_v,eoc_uhat,eoc_vhat,eoc_theta\n"
        "elastic62,2,0,48,7.071068e-01,2.872149e+03,7.598176e+02,1.009012e+03,,,3.292859e+02,,"
        "2.529392e+03,,,,,,,,\n"
        "elastic62,2,1,240,3.535534e-01,3.954988e+02,1.057639e+02,3.430107e+02,,,4.057738e+01,"
        ",4.622770e+02,2.860386e+00,2.844805e+00,1.556619e+00,,,3.020593e+00,,2.451961e+00\n"
        "elastic62,2,2,1056,1.767767e-01,5.127277e+01,1.369271e+01,5.927281e+01,,,"
        "3.078960e+00,,7.145546e+01,2.947408e+00,2.949368e+00,2.532811e+00,,,3.720161e+00,,"
        "2.693641e+00\n"),
    ("coupled63", 0.3, 1, 4): (
        "case,k,level,N,h,err_sigma,err_u,err_gamma,err_q,err_v,err_uhat,err_vhat,theta,"
        "eoc_sigma,eoc_u,eoc_gamma,eoc_q,eoc_v,eoc_uhat,eoc_vhat,eoc_theta\n"
        "coupled63,1,0,128,1.414214e+00,4.860618e+00,1.239962e+00,1.189721e+00,5.308707e-01,"
        "1.500970e-01,1.236892e+00,4.125245e-01,3.067643e+00,,,,,,,,\n"
        "coupled63,1,1,496,7.071068e-01,1.444420e+00,5.643475e-01,7.790778e-01,1.109217e-01,"
        "3.568634e-02,3.289466e-01,5.158546e-02,1.165388e+00,1.750650e+00,1.135640e+00,"
        "6.107845e-01,2.258819e+00,2.072451e+00,1.910794e+00,2.999443e+00,1.396320e+00\n"
        "coupled63,1,2,1952,3.535534e-01,3.906501e-01,1.686838e-01,3.229907e-01,2.114212e-02,"
        "8.869797e-03,5.846781e-02,6.881068e-03,3.686383e-01,1.886541e+00,1.742263e+00,"
        "1.270275e+00,2.391350e+00,2.008399e+00,2.492139e+00,2.906260e+00,1.660532e+00\n"
        "coupled63,1,3,7744,1.767767e-01,1.036961e-01,4.475047e-02,1.194227e-01,4.050992e-03,"
        "2.209681e-03,1.015349e-02,7.840644e-04,1.232153e-01,1.913515e+00,1.914346e+00,"
        "1.435415e+00,2.383773e+00,2.005063e+00,2.525667e+00,3.133589e+00,1.581025e+00\n"),
}


# the SHA-256 of the same studies' full-precision report.json text, which
# sees the last bits that the six digits of report.csv round away
STUDY_JSON_SHA256 = {
    ("acoustic61", 0.3, 1, 3): "534c637db66d44c91d7830b74be0142898231ca5c0c9e9563180f2cf6d8a3974",
    ("acoustic61", 0.3, 3, 3): "e098976ec5d086af7f63a11ec93b0973faa5e8fdef36842a5abc41f8272d9d06",
    ("coupled63", 0.3, 1, 4): "5ab42ae0f7b63450ad610b208e07301d9b2530cd6d520d0913ae23ba970f37d8",
    ("elastic62", 0.49999, 2, 3): "67fbb483b909f32d3fa26e738a23d42cfc6a0db90e984ad80523c58c26cc2128",
}


@pytest.mark.parametrize("name,nu,k,levels", sorted(STUDY_CSV))
def test_study_reports_keep_their_bytes(name, nu, k, levels):
    """The report.csv of each study, byte for byte, and the hash of its
    report.json.  Together they cover the Dirichlet data of both domains and
    every interface datum, and the k=3 study the round-off of the
    higher-degree face tables.  A change that moves report bits on purpose
    regenerates these texts and hashes and lists what moved with
    ``scripts/compare_reports.py``; any other change must leave them."""
    case = make_case(name, **({"poisson": nu} if name == "elastic62" else {}))
    report = run_study(case, k, levels)
    assert report.to_csv() == STUDY_CSV[name, nu, k, levels]
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == STUDY_JSON_SHA256[name, nu, k, levels]
