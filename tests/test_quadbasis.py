"""Quadrature rules, orthonormal element bases, and the affine push-forward.

Oracle values are closed-form integrals over the reference triangle
{x, y >= 0, x + y <= 1} and over the unit interval, frozen as literals so
the tests cannot drift with the implementation.
"""

import math

import numpy as np
import pytest

from hdgwave.quadbasis import (
    build_reference_basis,
    edge_basis_values,
    make_edge_quadrature,
    make_quadrature,
    map_to_physical,
    monomial_exponents,
    scalar_space_dim,
)

# integral of x^a y^b over the reference triangle, worked out by hand from
# int_0^1 int_0^{1-y} x^a y^b dx dy = int_0^1 y^b (1-y)^{a+1}/(a+1) dy (Beta)
MONOMIAL_ORACLES = {
    (0, 0): 0.5,
    (1, 0): 1.0 / 6.0,
    (0, 1): 1.0 / 6.0,
    (2, 0): 1.0 / 12.0,
    (1, 1): 1.0 / 24.0,
    (3, 0): 1.0 / 20.0,
    (2, 1): 1.0 / 60.0,
    (4, 0): 1.0 / 30.0,
    (2, 2): 1.0 / 180.0,
    (5, 3): 1.0 / 5040.0,
}


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 12, 14, 18, 20])
def test_volume_rule_integrates_monomials(degree):
    rule = make_quadrature(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for (a, b), exact in MONOMIAL_ORACLES.items():
        if a + b > degree:
            continue
        approx = float(np.sum(rule.weights * x**a * y**b))
        assert approx == pytest.approx(exact, rel=1e-13)
    # every monomial the rule claims, against the closed form a! b! / (a+b+2)!
    for a, b in monomial_exponents(degree):
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
        approx = float(np.sum(rule.weights * x**a * y**b))
        assert approx == pytest.approx(exact, rel=1e-13)


def test_volume_rule_weights_positive_and_points_inside():
    rule = make_quadrature(10)
    assert rule.weights.min() > 0.0
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert x.min() >= 0.0 and y.min() >= 0.0
    assert (x + y).max() <= 1.0 + 1e-14


def test_edge_rule_cubic_oracle():
    # int_0^1 t^3 dt = 1/4, and degree-3 exactness needs only 2 points
    rule = make_edge_quadrature(3)
    assert rule.weights.size == 2
    approx = float(np.sum(rule.weights * rule.points**3))
    assert approx == pytest.approx(0.25, rel=1e-14)


def test_quadrature_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        make_quadrature(0)
    with pytest.raises(ValueError):
        make_edge_quadrature(10**6)


def test_space_dimension_and_graded_exponents():
    assert [scalar_space_dim(k) for k in range(1, 7)] == [3, 6, 10, 15, 21, 28]
    exps = monomial_exponents(3)
    assert exps.sum(axis=1).tolist() == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
    # graded: every prefix spans the lower-degree space
    assert exps[: scalar_space_dim(2)].sum(axis=1).max() == 2


@pytest.mark.parametrize("k", range(1, 7))
def test_reference_basis_orthonormal(k):
    ref = build_reference_basis(k)
    gram = (ref.values * ref.quad.weights) @ ref.values.T
    # element mass matrices are taken as |det J| I on the strength of this
    assert np.abs(gram - np.eye(ref.n_scalar)).max() < 1e-14


def test_reference_basis_eval_matches_tabulated_values():
    ref = build_reference_basis(3)
    vals = ref.eval_values(ref.quad.points)
    assert np.abs(vals - ref.values).max() < 1e-12


def test_reference_basis_first_function_is_constant():
    # the graded start is the constant, normalized on an area-1/2 domain
    ref = build_reference_basis(2)
    pts = np.array([[0.1, 0.2], [0.3, 0.3], [0.6, 0.1]])
    assert np.abs(ref.eval_values(pts)[0] - math.sqrt(2.0)).max() < 1e-13


def test_reference_basis_gradients_match_finite_differences():
    ref = build_reference_basis(4)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.4, size=(6, 2))
    grads = ref.eval_grads(pts)
    eps = 1e-5
    for d, offset in enumerate(np.eye(2)):
        plus = ref.eval_values(pts + eps * offset)
        minus = ref.eval_values(pts - eps * offset)
        fd = (plus - minus) / (2.0 * eps)
        assert np.abs(grads[:, :, d] - fd).max() < 1e-7


@pytest.mark.parametrize("k", range(1, 7))
def test_edge_basis_orthonormal_on_unit_interval(k):
    rule = make_edge_quadrature(2 * k + 2)
    vals = edge_basis_values(k, rule.points)
    gram = (vals * rule.weights) @ vals.T
    assert np.abs(gram - np.eye(k + 1)).max() < 1e-12


def test_edge_basis_low_orders_match_shifted_legendre():
    t = np.linspace(0.0, 1.0, 7)
    vals = edge_basis_values(2, t)
    assert np.abs(vals[0] - 1.0).max() < 1e-14
    assert np.abs(vals[1] - math.sqrt(3.0) * (2.0 * t - 1.0)).max() < 1e-13
    p2 = 0.5 * (3.0 * (2.0 * t - 1.0) ** 2 - 1.0)
    assert np.abs(vals[2] - math.sqrt(5.0) * p2).max() < 1e-13


TRIANGLE = np.array([[0.2, -0.1], [1.1, 0.3], [0.4, 0.9]])
_X, _Y = TRIANGLE[:, 0], TRIANGLE[:, 1]
SHOELACE_AREA = 0.5 * abs(_X[0] * (_Y[1] - _Y[2]) + _X[1] * (_Y[2] - _Y[0])
                          + _X[2] * (_Y[0] - _Y[1]))


def test_physical_weights_integrate_area_and_linears():
    ref = build_reference_basis(2)
    phys = map_to_physical(ref, TRIANGLE)
    area = float(np.sum(phys.weights))
    assert area == pytest.approx(SHOELACE_AREA, rel=1e-14)
    # centroid rule: integral of x over the triangle = area * centroid_x
    centroid = TRIANGLE.mean(axis=0)
    val = float(np.sum(phys.weights * phys.points[:, 0]))
    assert val == pytest.approx(area * centroid[0], rel=1e-13)


def test_physical_gram_scales_with_jacobian_determinant():
    ref = build_reference_basis(3)
    phys = map_to_physical(ref, TRIANGLE)
    # the basis composed with the affine map has the reference values at
    # the mapped nodes; |det J| is twice the area
    gram = (ref.values * phys.weights) @ ref.values.T
    assert np.abs(gram - 2.0 * SHOELACE_AREA * np.eye(ref.n_scalar)).max() < 1e-12


def test_degenerate_triangle_rejected():
    ref = build_reference_basis(1)
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        map_to_physical(ref, flat)


def test_default_rule_degree_covers_assembled_products():
    # highest product degree in the forms is 2k+2 (degree k+1 stress entries
    # squared); the default table rule must cover it with room to spare
    for k in range(1, 7):
        ref = build_reference_basis(k)
        assert ref.quad.exact_degree >= 2 * k + 2

