"""Decorated metric tests: validation, conformal change, invariants,
heights, omega maps, scale factors."""

import math

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, Triangulation
from ddce import metric as me
from ddce import trig
from ddce.errors import (
    HeightsOutOfDomain,
    NotComparable,
    ResultInvalid,
    ScaleOutOfDomain,
    WeightOutOfRange,
)

from conftest import ALL_BACKGROUNDS, octahedron, random_metric

# frozen oracle values
HYP_LAMBDA_R05_L2 = 2.9063528387891410972  # acosh((cosh 2 - cosh^2 0.5)/sinh^2 0.5)
CONFORMAL_IDEAL_LENGTH = 1.1996856143631226255  # 2 asinh(e^0.2 sinh 0.5)
SPH_TANGENCY_COS = 0.16005131677194786121  # (sinh^2 1 - 1)/cosh^2 1


# -- validate ------------------------------------------------------------------


def test_validate_examples(double_triangle):
    m = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.full(3, 0.2))
    assert me.validate(m) == []
    m_bad = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.full(3, 0.6))
    bad = me.validate(m_bad)
    assert len(bad) == 3 and all("circles intersect" in msg for msg in bad)
    m_sph = DecoratedMetric(
        double_triangle, Background.SPHERICAL, np.full(3, math.pi / 2), np.full(3, 0.3)
    )
    assert me.validate(m_sph) == []
    for lengths, radii in (([1.0, np.nan, 1.0], [0.2] * 3), ([1.0] * 3, [0.2, np.inf, 0.2])):
        bad = me.validate(DecoratedMetric(double_triangle, Background.EUCLIDEAN, lengths, radii))
        assert len(bad) == 1 and "not finite" in bad[0]


def test_validate_names_edges(square_torus):
    m = DecoratedMetric(square_torus, Background.EUCLIDEAN, np.array([1.0, 1.0, 0.3]), np.array([0.2]))
    bad = me.validate(m)
    assert any("0:2" in msg for msg in bad)


# -- conformal change -----------------------------------------------------------


def test_conformal_identity_bitwise(genus2, rng):
    m = random_metric(genus2, Background.HYPERBOLIC, rng)
    m2 = me.conformal_change(m, np.zeros(1))
    assert np.array_equal(m2.lengths, m.lengths)
    assert np.array_equal(m2.radii, m.radii)


def test_conformal_ideal_half_angle_formula(double_triangle):
    # r == 0, l = 1, u_i = u_j = 0.2 on every edge: the classical
    # vertex-scaling form sinh(l'/2) = e^{(u_i+u_j)/2} sinh(l/2)
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.ones(3), np.zeros(3))
    m2 = me.conformal_change(m, np.full(3, 0.2))
    assert np.allclose(m2.lengths, CONFORMAL_IDEAL_LENGTH, atol=1e-14)
    assert np.array_equal(m2.radii, np.zeros(3))


def test_conformal_change_matches_lift_scaling_oracle(double_triangle):
    # scale the Minkowski lifts of the vertex circles by e^{u} explicitly
    # and read the new radii/lengths from the inner products
    r = np.array([0.1, 0.1, 0.1])
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.ones(3), r)
    u = np.array([0.3, -0.2, 0.0])
    m2 = me.conformal_change(m, u)
    for e in range(3):
        i, j = double_triangle.edge_endpoints(e)
        # lifted circle data: |C|^2 = sinh^2 r, <C_i, C_j> = cosh r_i cosh r_j - cosh l
        norm_i = math.exp(u[i]) * math.sinh(r[i])
        norm_j = math.exp(u[j]) * math.sinh(r[j])
        dot = math.exp(u[i] + u[j]) * (
            math.cosh(r[i]) * math.cosh(r[j]) - math.cosh(m.lengths[e])
        )
        r_i_new = math.asinh(norm_i)
        r_j_new = math.asinh(norm_j)
        l_new = math.acosh(math.cosh(r_i_new) * math.cosh(r_j_new) - dot)
        assert m2.radii[i] == pytest.approx(r_i_new, abs=1e-14)
        assert m2.radii[j] == pytest.approx(r_j_new, abs=1e-14)
        assert m2.lengths[e] == pytest.approx(l_new, abs=1e-12)


def test_scale_out_of_domain(double_triangle):
    m = DecoratedMetric(
        double_triangle, Background.SPHERICAL, np.full(3, math.pi / 2), np.full(3, 0.4)
    )
    with pytest.raises(ScaleOutOfDomain):
        me.conformal_change(m, np.full(3, 2.0))


def test_conformal_result_invalid_diagnostics(double_triangle):
    # inversive distances are preserved, so hyperideality cannot break, but
    # blowing up two vertices breaks the triangle inequality
    m = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.full(3, 0.25))
    with pytest.raises(ResultInvalid) as err:
        me.conformal_change(m, np.array([2.5, 2.5, 0.0]))
    assert err.value.diagnostics


def test_dce_invariance_all_backgrounds(rng):
    octa = octahedron()
    for bg in ALL_BACKGROUNDS:
        for _ in range(5):
            m = random_metric(octa, bg, rng)
            u = rng.uniform(-0.15, 0.15, size=octa.vertex_count)
            try:
                m2 = me.conformal_change(m, u)
            except ResultInvalid:
                continue
            lam1 = me.lambda_lengths(m).lam
            lam2 = me.lambda_lengths(m2).lam
            assert np.max(np.abs(lam1 - lam2)) < 1e-10
            for e in range(octa.edge_count):
                i, j = octa.edge_endpoints(e)
                inv = trig.inversive_distance(bg, m2.lengths[e], m2.radii[i], m2.radii[j])
                assert math.cosh(lam2[e]) == pytest.approx(inv, abs=1e-10)


def test_dce_invariance_with_ideal_vertices_gauge(rng):
    # canonical-gauge lambdas shift by u at ideal endpoints; the gauged
    # table is invariant once those shifts are transported
    octa = octahedron()
    for _ in range(5):
        m = random_metric(octa, Background.HYPERBOLIC, rng, ideal_fraction=0.4)
        eps = m.eps
        if eps.min() == 1:
            continue
        u = rng.uniform(-0.1, 0.1, size=octa.vertex_count)
        try:
            m2 = me.conformal_change(m, u)
        except ResultInvalid:
            continue
        lam1 = me.lambda_lengths(m).lam
        lam2 = me.lambda_lengths(m2).lam
        for e in range(octa.edge_count):
            i, j = octa.edge_endpoints(e)
            shift = (0 if eps[i] else u[i]) + (0 if eps[j] else u[j])
            assert lam2[e] - lam1[e] == pytest.approx(shift, abs=1e-10)


# -- lambda lengths ----------------------------------------------------------------


def test_lambda_examples(double_triangle):
    # tangency: lambda = 0
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.ones(3), np.full(3, 0.5))
    lam = me.lambda_lengths(m).lam
    assert np.allclose(lam, 0.0, atol=1e-7)  # acosh near 1 loses half precision
    m2 = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.full(3, 2.0), np.full(3, 0.5))
    assert np.allclose(me.lambda_lengths(m2).lam, HYP_LAMBDA_R05_L2, atol=1e-13)
    m3 = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.full(3, 3.0), np.ones(3))
    assert np.allclose(me.lambda_lengths(m3).lam, math.acosh(3.5), atol=1e-14)


def test_lambda_heights_route_cross_check(rng):
    # for hyperideal metrics the inversive-distance route and the heights
    # route must agree
    octa = octahedron()
    for bg in ALL_BACKGROUNDS:
        m = random_metric(octa, bg, rng)
        lam_direct = me.lambda_lengths(m).lam
        h = me.heights_from_decoration(m)
        eps = m.eps
        lam_heights = np.zeros(octa.edge_count)
        for e in range(octa.edge_count):
            i, j = octa.edge_endpoints(e)
            l = m.lengths[e]
            if bg is Background.SPHERICAL:
                t = me.tau(-1, h.h[i]) * me.tau(-1, h.h[j]) - math.cos(l) * me.tau(
                    1, h.h[i]
                ) * me.tau(1, h.h[j])
            elif bg is Background.HYPERBOLIC:
                t = math.cosh(l) * me.tau(-1, h.h[i]) * me.tau(-1, h.h[j]) - me.tau(
                    1, h.h[i]
                ) * me.tau(1, h.h[j])
            else:
                t = (l * l - m.radii[i] ** 2 - m.radii[j] ** 2) / (
                    2.0 * m.radii[i] * m.radii[j]
                )
            lam_heights[e] = me.stable_acosh(max(1.0, t))
        assert np.max(np.abs(lam_direct - lam_heights)) < 1e-10


# -- heights ------------------------------------------------------------------------


def test_heights_examples(double_triangle):
    r_fix = math.asinh(1.0)
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.full(3, 2.5), np.full(3, r_fix))
    h = me.heights_from_decoration(m)
    assert np.allclose(h.h, r_fix, atol=1e-14)  # fixed point sinh r sinh h = 1
    m_sph = DecoratedMetric(
        double_triangle, Background.SPHERICAL, np.full(3, 2.0), np.full(3, math.pi / 4)
    )
    h_sph = me.heights_from_decoration(m_sph)
    assert np.allclose(h_sph.h, math.asinh(1.0), atol=1e-14)
    m_euc = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.full(3, 3.0), np.ones(3))
    assert np.allclose(me.heights_from_decoration(m_euc).h, 0.0, atol=1e-15)


def test_decoration_heights_round_trip(rng):
    for bg in ALL_BACKGROUNDS:
        tri = octahedron()
        for k in range(4):
            m = random_metric(tri, bg, rng, ideal_fraction=0.3 if k % 2 else 0.0)
            inv = me.lambda_lengths(m)
            h = me.heights_from_decoration(m)
            m2 = me.decoration_from_heights(tri, inv, h)
            assert np.max(np.abs(m2.lengths - m.lengths)) < 1e-10
            assert np.max(np.abs(m2.radii - m.radii)) < 1e-10
            inv2 = me.lambda_lengths(m2)
            assert np.max(np.abs(inv2.lam - inv.lam)) < 1e-10
            h2 = me.heights_from_decoration(m2)
            assert np.max(np.abs(h2.h - h.h)) < 1e-10


def test_spherical_tangency_formula(double_triangle):
    # lambda = 0 at every edge, h = 1 everywhere, all hyperideal
    eps = np.ones(3, dtype=int)
    inv = me.Invariant(double_triangle, np.zeros(3), eps)
    hts = me.Heights(
        np.ones(3), Background.SPHERICAL, me.default_reference_radius(Background.SPHERICAL), eps
    )
    m = me.decoration_from_heights(double_triangle, inv, hts)
    assert np.allclose(np.cos(m.lengths), SPH_TANGENCY_COS, atol=1e-14)
    assert np.max(np.abs(me.lambda_lengths(m).lam)) < 1e-7


def test_hyperbolic_one_ideal_endpoint_oracle(double_triangle):
    # e^lambda = cosh(l) sinh(h_j) - cosh(h_j) with the ideal gauge h_i = 0
    eps = np.array([0, 1, 1])
    lam = np.array([0.4, 0.7, 0.5])
    h = np.array([0.1, 1.1, 1.2])
    inv = me.Invariant(double_triangle, lam, eps)
    hts = me.Heights(h, Background.HYPERBOLIC, me.default_reference_radius(Background.HYPERBOLIC), eps)
    m = me.decoration_from_heights(double_triangle, inv, hts)
    for e in range(3):
        i, j = double_triangle.edge_endpoints(e)
        ee = eps[i] * eps[j]
        ti = me.tau(eps[i], h[i]) if eps[i] else me.tau(0, h[i])
        # verify the defining relation directly
        lhs = me.tau(ee, lam[e])
        rhs = math.cosh(m.lengths[e]) * me.tau(-eps[i], h[i]) * me.tau(-eps[j], h[j]) - me.tau(
            eps[i], h[i]
        ) * me.tau(eps[j], h[j])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_heights_out_of_domain_errors(double_triangle):
    eps = np.ones(3, dtype=int)
    inv = me.Invariant(double_triangle, np.full(3, 0.5), eps)
    R = me.default_reference_radius(Background.HYPERBOLIC)
    with pytest.raises(HeightsOutOfDomain, match="height"):
        me.decoration_from_heights(
            double_triangle, inv, me.Heights(np.array([-0.2, 1.0, 1.0]), Background.HYPERBOLIC, R, eps)
        )
    Rs = me.default_reference_radius(Background.SPHERICAL)
    with pytest.raises(HeightsOutOfDomain, match="lambda"):
        me.decoration_from_heights(
            double_triangle,
            me.Invariant(double_triangle, np.full(3, 3.0), eps),
            me.Heights(np.full(3, 1.0), Background.SPHERICAL, Rs, eps),
        )
    # resulting lengths violate the triangle inequality: one huge lambda
    with pytest.raises(HeightsOutOfDomain, match="invalid"):
        me.decoration_from_heights(
            double_triangle,
            me.Invariant(double_triangle, np.array([3.5, 0.1, 0.1]), eps),
            me.Heights(np.full(3, 2.0), Background.HYPERBOLIC, R, eps),
        )


# -- omega maps -----------------------------------------------------------------------


def test_omega_examples():
    R = me.default_reference_radius(Background.HYPERBOLIC)  # sinh R = 1
    eps = np.array([1])
    h = me.Heights(np.array([math.asinh(1.0)]), Background.HYPERBOLIC, R, eps)
    omega = me.omega_map(Background.HYPERBOLIC, R, h)
    assert omega[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # ideal case, spherical, cosh R = 2: e^h - 0 = 2 e^rho, h = 0 -> omega = 1/4
    h0 = me.Heights(np.array([0.0]), Background.SPHERICAL, math.acosh(2.0), np.array([0]))
    omega0 = me.omega_map(Background.SPHERICAL, math.acosh(2.0), h0)
    assert omega0[0] == pytest.approx(0.25, abs=1e-15)


def test_omega_round_trip(rng):
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL):
        R = me.default_reference_radius(bg)
        for _ in range(20):
            eps = (rng.random(5) > 0.3).astype(int)
            h = rng.uniform(0.5, 2.0, size=5)
            if bg is Background.HYPERBOLIC:
                h = np.where(eps == 1, h, rng.uniform(-1.0, 1.0, size=5))
            hts = me.Heights(h, bg, R, eps)
            omega = me.omega_map(bg, R, hts)
            back = me.omega_inverse(bg, R, omega, eps)
            assert np.max(np.abs(back.h - h)) < 1e-12


def test_omega_monotone(rng):
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL):
        R = me.default_reference_radius(bg)
        for eps_v in (0, 1):
            hs = np.linspace(0.2, 2.5, 40)
            omegas = [
                me.omega_map(bg, R, me.Heights(np.array([hv]), bg, R, np.array([eps_v])))[0]
                for hv in hs
            ]
            assert all(b > a for a, b in zip(omegas, omegas[1:]))


def test_omega_out_of_range():
    R = me.default_reference_radius(Background.HYPERBOLIC)  # sinh R = 1
    with pytest.raises(WeightOutOfRange):
        me.omega_inverse(Background.HYPERBOLIC, R, np.array([0.9]), np.array([1]))
    with pytest.raises(WeightOutOfRange):
        me.omega_inverse(Background.SPHERICAL, me.default_reference_radius(Background.SPHERICAL),
                         np.array([-0.1]), np.array([0]))


# -- scale factors ----------------------------------------------------------------------


def test_scale_factors_identity_and_round_trip(rng):
    octa = octahedron()
    for bg in ALL_BACKGROUNDS:
        m = random_metric(octa, bg, rng)
        assert np.allclose(me.scale_factors(m, m), 0.0, atol=1e-14)
        u = rng.uniform(-0.12, 0.12, size=octa.vertex_count)
        try:
            m2 = me.conformal_change(m, u)
        except ResultInvalid:
            continue
        assert np.max(np.abs(me.scale_factors(m, m2) - u)) < 1e-10


def test_scale_factors_with_ideal_vertices(rng):
    octa = octahedron()
    found = 0
    for _ in range(10):
        m = random_metric(octa, Background.HYPERBOLIC, rng, ideal_fraction=0.4)
        if m.eps.min() == 1:
            continue
        u = rng.uniform(-0.1, 0.1, size=octa.vertex_count)
        try:
            m2 = me.conformal_change(m, u)
        except ResultInvalid:
            continue
        assert np.max(np.abs(me.scale_factors(m, m2) - u)) < 1e-10
        found += 1
    assert found >= 2


def test_scale_factors_non_dce_pair(rng):
    octa = octahedron()
    m = random_metric(octa, Background.HYPERBOLIC, rng)
    lengths = m.lengths.copy()
    lengths[0] *= 1.02
    m_perturbed = DecoratedMetric(octa, Background.HYPERBOLIC, lengths, m.radii)
    assert not me.validate(m_perturbed)
    u = me.scale_factors(m, m_perturbed)
    reproduced = me.conformal_change(m, u)
    assert np.max(np.abs(reproduced.lengths - m_perturbed.lengths)) > 1e-6  # not DCE


def test_scale_factors_not_comparable(rng):
    octa = octahedron()
    m = random_metric(octa, Background.HYPERBOLIC, rng)
    m_sph = random_metric(octa, Background.SPHERICAL, rng)
    with pytest.raises(NotComparable):
        me.scale_factors(m, m_sph)
