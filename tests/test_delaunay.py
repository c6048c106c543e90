"""Weighted Delaunay predicate, flip algorithm, and tessellation tests."""

import math

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, Triangulation
from ddce import delaunay as dl
from ddce import metric as me
from ddce import solver as so
from ddce.errors import NotDelaunay

from conftest import (
    ALL_BACKGROUNDS,
    grid_torus,
    isosceles_sphere,
    octahedron,
    random_metric,
    scrambled_metric,
)


def square_with_radii(diagonal=math.sqrt(2.0), radius=0.2):
    tri = Triangulation.square_torus()
    return DecoratedMetric(
        tri, Background.EUCLIDEAN, np.array([1.0, 1.0, diagonal]), np.array([radius])
    )


# -- weights and predicates ------------------------------------------------------


def test_square_diagonal_weight_zero():
    m = square_with_radii()
    w = dl.edge_weights(m)
    assert abs(w[2]) < 1e-12  # cocircular: the diagonal carries weight 0
    assert dl.is_local_delaunay(m, 2)
    assert not dl.is_local_delaunay(m, 2, strict=True)


def test_self_glued_isosceles_edge_nonnegative():
    tri = isosceles_sphere()
    m = DecoratedMetric(tri, Background.SPHERICAL, np.array([1.0, 1.2, 1.0]), np.full(3, 0.15))
    assert me.validate(m) == []
    self_glued = [e for e in range(3) if tri.is_self_glued_face_edge(e)]
    w = dl.edge_weights(m)
    for e in self_glued:
        assert w[e] >= 0
        assert dl.is_local_delaunay(m, e)


def test_concave_quad_is_delaunay_without_flip():
    # fat spherical torus: every corner angle exceeds pi/2, so the quad
    # of every edge is concave and the lemma short-circuits the predicate
    tri = Triangulation.square_torus()
    m = DecoratedMetric(tri, Background.SPHERICAL, np.full(3, 2.0), np.array([0.0]))
    assert me.validate(m) == []
    geoms = dl.face_geometries(m)
    for e in range(3):
        (f, s), (g, t) = tri.edge_sides(e)
        assert geoms[f].angles[s] + geoms[g].angles[(t + 1) % 3] >= math.pi
        assert dl.is_local_delaunay(m, e)


def test_classical_incircle_oracle_violation():
    # pulled vertex: r = 0 reduces to classical Delaunay; the in-circle
    # determinant is the oracle
    m = square_with_radii(diagonal=1.9, radius=0.0)
    # realize the quad in the plane: faces (A,B,C) with AB=BC=1, CA=1.9
    # and the mirror (A,C,D); |AB| = |BC| puts B above the midpoint of AC
    a = np.array([0.0, 0.0])
    c = np.array([1.9, 0.0])
    y = math.sqrt(1.0 - 0.95**2)
    b = np.array([0.95, y])
    d = np.array([0.95, -y])
    center_y = (y**2 - 0.95**2) / (2.0 * y)  # equal distance to a and b on x = 0.95
    center = np.array([0.95, center_y])
    radius = float(np.linalg.norm(a - center))
    assert float(np.linalg.norm(d - center)) < radius - 1e-9  # d inside: not Delaunay
    assert not dl.is_local_delaunay(m, 2)


def test_predicate_equivalence(rng):
    # sign(w) == sign(d-sum) and (alpha sum <= pi) == (w >= 0)
    for bg in ALL_BACKGROUNDS:
        for _ in range(8):
            m = scrambled_metric(octahedron(), bg, rng, flips=3)
            geoms = dl.face_geometries(m)
            for e in range(m.triangulation.edge_count):
                w = dl.edge_weight(m, e, geoms)
                gf, s, gg, t = dl._edge_slot_data(m, e, geoms)
                dsum = gf.d_tangent[s] + gg.d_tangent[t]
                asum = gf.alpha[s] + gg.alpha[t]
                if abs(w) > 1e-9:
                    assert (w > 0) == (dsum > 0)
                    assert (w > 0) == (asum < math.pi)


# -- flips -------------------------------------------------------------------------


def test_already_delaunay_zero_flips(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    m0, _ = dl.flip_to_delaunay(m)
    m1, log = dl.flip_to_delaunay(m0)
    assert log.flip_count == 0
    assert np.array_equal(m1.lengths, m0.lengths)
    assert np.array_equal(m1.radii, m0.radii)


def test_classical_single_flip():
    m = square_with_radii(diagonal=1.9, radius=0.0)
    flipped, log = dl.flip_to_delaunay(m)
    assert log.flip_count == 1
    th = math.acos((1.0 + 1.9**2 - 1.0) / (2 * 1.9))
    expected = math.sqrt(2.0 - 2.0 * math.cos(2.0 * th))
    assert log.records[0].new_length == pytest.approx(expected, abs=1e-12)
    assert dl.edge_weights(flipped).min() >= -1e-12


def test_flip_preserves_cone_angles_and_surface(rng):
    for bg in ALL_BACKGROUNDS:
        m = scrambled_metric(grid_torus(3), bg, rng, flips=5)
        theta_before = np.sort(so.cone_angles(m))
        flipped, log = dl.flip_to_delaunay(m)
        assert np.max(np.abs(np.sort(so.cone_angles(flipped)) - theta_before)) < 1e-10
        # replay the log edge by edge: cone angles preserved per flip
        current = m
        for rec in log.records:
            e = next(
                e
                for e in range(current.triangulation.edge_count)
                if current.triangulation.edge_label(e) == rec.edge_label
            )
            new_m, _, new_len = dl.flip_edge(current, e)
            assert new_len == pytest.approx(rec.new_length, abs=1e-13)
            assert np.max(np.abs(np.sort(so.cone_angles(new_m)) - np.sort(so.cone_angles(current)))) < 1e-10
            current = new_m
        assert np.max(np.abs(np.sort(current.lengths) - np.sort(flipped.lengths))) < 1e-12


def test_flip_log_vertex_map(rng):
    for bg in ALL_BACKGROUNDS:
        m = scrambled_metric(grid_torus(4), bg, rng, flips=6)
        flipped, log = dl.flip_to_delaunay(m)
        assert log.flip_count >= 3
        # input vertex v sits at log.vertex_map[v] in the output
        assert np.array_equal(flipped.radii[log.vertex_map], m.radii)
        theta = so.cone_angles(flipped)[log.vertex_map]
        assert np.max(np.abs(theta - so.cone_angles(m))) <= 1e-10


def test_spherical_support_monotone_and_length_bound(rng):
    checked = 0
    for _ in range(6):
        m = scrambled_metric(octahedron(), Background.SPHERICAL, rng, flips=4)
        flipped, log = dl.flip_to_delaunay(m)
        if not log.records:
            continue
        checked += 1
        mins = [log.initial_support_min] + [r.support_min for r in log.records]
        assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))
        # the support minimum bounds the edge lengths throughout
        bound = 2.0 * math.acos(min(mins)) + 2.0 * float(np.max(m.radii))
        assert float(np.max(m.lengths)) <= bound + 1e-9
        assert float(np.max(flipped.lengths)) <= bound + 1e-9
    assert checked >= 2


def test_support_minimum_against_sampling(rng):
    # brute-force oracle: sample many points in each face and take the
    # smallest support value
    m = random_metric(octahedron(), Background.SPHERICAL, rng)
    geoms = dl.face_geometries(m)
    fast = dl.support_minimum(m, geoms)
    worst = math.inf
    for geom in geoms:
        c_aff = geom.face_lift[:3] / geom.face_lift[3]
        a, b, c = geom.positions
        for _ in range(4000):
            wts = rng.dirichlet((1.0, 1.0, 1.0))
            p = wts[0] * a + wts[1] * b + wts[2] * c
            p = p / np.linalg.norm(p)
            worst = min(worst, 1.0 / float(np.dot(p, c_aff)))
    assert worst >= fast - 1e-12
    assert worst <= fast + 2e-3  # sampling reaches the true minimum closely


def test_flip_termination_bound(rng):
    for bg in ALL_BACKGROUNDS:
        for k in range(5):
            m = scrambled_metric(grid_torus(3), bg, rng, flips=6)
            _, log = dl.flip_to_delaunay(m)
            assert log.flip_count <= 10 * m.triangulation.edge_count


# -- tessellation -------------------------------------------------------------------


def test_square_tessellation_is_quad():
    m = square_with_radii()
    tess = dl.extract_tessellation(m, tol=1e-9)
    assert tess.face_groups == ((0, 1),)
    assert len(tess.kept_edges) == 2


def test_perturbed_square_keeps_all_edges():
    m = square_with_radii(diagonal=math.sqrt(2.0) - 0.05)
    tess = dl.extract_tessellation(m, tol=1e-9)
    assert len(tess.kept_edges) == 3
    assert tess.face_groups == ((0,), (1,))


def test_tessellation_unique_across_flip():
    # flipping the zero-weight diagonal changes the triangulation but not
    # the tessellation
    m = square_with_radii()
    inv = me.lambda_lengths(m)
    tess = dl.extract_tessellation(m, tol=1e-9)
    flipped, _, _ = dl.flip_edge(m, 2)
    assert me.validate(flipped) == []
    tess2 = dl.extract_tessellation(flipped, tol=1e-9)
    inv2 = me.lambda_lengths(flipped)
    assert tuple(sorted(len(g) for g in tess.face_groups)) == tuple(
        sorted(len(g) for g in tess2.face_groups)
    )
    kept1 = sorted(inv.lam[e] for e in tess.kept_edges)
    kept2 = sorted(inv2.lam[e] for e in tess2.kept_edges)
    assert np.allclose(kept1, kept2, atol=1e-10)


def test_not_delaunay_raises():
    m = square_with_radii(diagonal=1.9, radius=0.0)
    with pytest.raises(NotDelaunay):
        dl.extract_tessellation(m, tol=1e-9)
