"""Geometric transition tests: scale families and the Euclidean limit."""

import math

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, Triangulation
from ddce import delaunay as dl
from ddce import metric as me
from ddce import transition as tr

from conftest import octahedron, random_metric


def test_scale_family_identity_and_linearity(rng):
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL):
        eps = np.array([1, 1, 0, 1, 0, 1]) if bg is Background.HYPERBOLIC else np.ones(6, int)
        h = np.where(eps == 1, rng.uniform(0.8, 1.4, 6), rng.uniform(-0.2, 0.3, 6))
        hts = me.Heights(h, bg, me.default_reference_radius(bg), eps)
        h1 = tr.scale_family(hts, 1.0)
        assert np.max(np.abs(h1.h - h)) < 1e-12
        # ideal vertices scale exactly linearly: h^t = h + ln t
        ht = tr.scale_family(hts, 37.0)
        for v in range(6):
            if eps[v] == 0:
                assert ht.h[v] == pytest.approx(h[v] + math.log(37.0), abs=1e-12)
            else:
                assert ht.h[v] > h[v]
        # round trip through the omega maps
        omega = me.omega_map(hts)
        back = me.omega_inverse(bg, hts.reference_radius, 37.0 * omega, eps)
        assert np.max(np.abs(back.h - ht.h)) < 1e-12


def test_scale_family_monotone(rng):
    eps = np.array([1, 0, 1])
    h = np.array([1.0, 0.2, 1.3])
    hts = me.Heights(h, Background.HYPERBOLIC, me.default_reference_radius(Background.HYPERBOLIC), eps)
    prev = h
    for t in (1.0, 2.0, 5.0, 20.0, 100.0):
        cur = tr.scale_family(hts, t).h
        assert np.all(cur >= prev - 1e-14)
        prev = cur


def test_cusp_heights_gauge():
    eps = np.ones(4, int)
    h = np.full(4, 1.1)
    hts = me.Heights(h, Background.HYPERBOLIC, me.default_reference_radius(Background.HYPERBOLIC), eps)
    hh = tr.cusp_heights(hts)
    assert np.max(np.abs(hh)) < 1e-15  # constant heights, equal flags: zero gauge


def test_euclidean_limit_reproduces_lambda(double_triangle):
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.full(3, 2.0), np.full(3, 0.4))
    inv = me.lambda_lengths(m)
    h1 = me.heights_from_decoration(m)
    m_euc, hh = tr.euclidean_limit(inv, h1)
    assert m_euc.background is Background.EUCLIDEAN
    inv_euc = me.lambda_lengths(m_euc)
    assert np.max(np.abs(inv_euc.lam - inv.lam)) < 1e-10
    assert np.array_equal(inv_euc.eps, inv.eps)


def test_mixed_flags_limit_matches_sweep(rng):
    # cusp-height differences are the large-t limits of height differences
    octa = octahedron()
    m = random_metric(octa, Background.HYPERBOLIC, rng, ideal_fraction=0.35)
    h1 = me.heights_from_decoration(m)
    hh = tr.cusp_heights(h1)
    ht = tr.scale_family(h1, 1.0e4)
    for v in range(1, octa.vertex_count):
        empirical = ht.h[v] - ht.h[0]
        assert empirical == pytest.approx(hh[v] - hh[0], abs=1e-4)


def test_diagnostics_decreasing_and_limit(rng):
    octa = octahedron()
    ts = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    for _ in range(3):
        m = random_metric(octa, Background.HYPERBOLIC, rng)
        path = tr.build_transition(m, ts)
        defects = [row.max_angle_defect for row in path.rows]
        wdevs = [row.max_weight_deviation for row in path.rows]
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert defects[-1] < 1e-5
        assert wdevs[-1] < 1e-5
        assert path.rows[0].t == 1.0


def test_lambda_constant_along_family(rng):
    octa = octahedron()
    m = random_metric(octa, Background.SPHERICAL, rng)
    path = tr.build_transition(m, [1.0, 10.0, 100.0])
    lam0 = path.invariant.lam
    for ht, mt in zip(path.heights, path.metrics):
        lam_t = me.lambda_lengths(mt, heights=ht).lam
        assert np.max(np.abs(lam_t - lam0)) < 1e-9


def test_lambda_constant_with_ideal_gauge_correction(rng):
    # with ideal vertices the canonical-gauge lambdas shift by the ideal
    # heights; correcting for the gauge recovers the shared invariant
    octa = octahedron()
    m = random_metric(octa, Background.HYPERBOLIC, rng, ideal_fraction=0.3)
    path = tr.build_transition(m, [1.0, 10.0, 100.0])
    lam0 = path.invariant.lam
    eps = path.invariant.eps
    tri = path.metrics[0].triangulation
    for ht, mt in zip(path.heights, path.metrics):
        lam_canonical = me.lambda_lengths(mt).lam
        for e in range(tri.edge_count):
            i, j = tri.edge_endpoints(e)
            shift = (0.0 if eps[i] else ht.h[i]) + (0.0 if eps[j] else ht.h[j])
            assert lam_canonical[e] + shift == pytest.approx(lam0[e], abs=1e-9)


def test_euclidean_input_rejected(rng):
    m = random_metric(octahedron(), Background.EUCLIDEAN, rng)
    with pytest.raises(ValueError):
        tr.build_transition(m, [1.0, 10.0])
    hts = me.Heights(np.zeros(6), Background.EUCLIDEAN, 0.0, np.ones(6, int))
    with pytest.raises(ValueError):
        tr.scale_family(hts, 2.0)


def test_spherical_transition(rng):
    m = random_metric(octahedron(), Background.SPHERICAL, rng)
    path = tr.build_transition(m, [1.0, 10.0, 100.0, 1000.0])
    defects = [row.max_angle_defect for row in path.rows]
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert defects[-1] < 1e-3
