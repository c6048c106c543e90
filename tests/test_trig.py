"""Per-triangle kernel tests against independent geometric oracles."""

import math

import numpy as np
import pytest

from ddce import Background, DecoratedTriangle
from ddce import trig
from ddce.errors import DegenerateTriangle, FlipGeometryInvalid, ZeroRadius

from conftest import ALL_BACKGROUNDS

# frozen oracle values (50-digit evaluation of the stated closed forms)
HYP_EQUILATERAL_ANGLE = 0.91879787217802736904  # acos((cosh^2 1 - cosh 1)/sinh^2 1)
SPH_INVERSIVE_03_03_10 = 4.2637828128973559125  # (cos^2 0.3 - cos 1)/sin^2 0.3
KITE_DIAGONAL = 1.3721074625609179056  # hyperboloid embedding, sides (1.6, 1.2, 1.0) twice


def random_triangle(bg, rng, ideal=False):
    while True:
        if bg is Background.SPHERICAL:
            lengths = rng.uniform(0.4, 1.6, size=3)
            if lengths.sum() >= 2 * math.pi - 0.2:
                continue
        else:
            lengths = rng.uniform(0.4, 2.0, size=3)
        ok = all(
            lengths[s] + lengths[(s + 1) % 3] > lengths[(s + 2) % 3] + 1e-3 for s in range(3)
        )
        if not ok:
            continue
        radii = rng.uniform(0.03, 0.18, size=3)
        if ideal:
            radii[rng.integers(3)] = 0.0
        tri = DecoratedTriangle(bg, tuple(lengths), tuple(radii))
        if not tri.violations():
            return tri


# -- interior angles ---------------------------------------------------------


def test_euclidean_equilateral_angles():
    angles = trig.interior_angles(Background.EUCLIDEAN, (1.0, 1.0, 1.0))
    assert np.allclose(angles, math.pi / 3, atol=1e-15)


def test_spherical_octant_angles():
    angles = trig.interior_angles(Background.SPHERICAL, (math.pi / 2,) * 3)
    assert np.allclose(angles, math.pi / 2, atol=1e-14)


def test_hyperbolic_equilateral_angle_frozen():
    angles = trig.interior_angles(Background.HYPERBOLIC, (1.0, 1.0, 1.0))
    assert np.allclose(angles, HYP_EQUILATERAL_ANGLE, atol=1e-14)


def test_angle_sums_by_background(rng):
    for _ in range(30):
        for bg in ALL_BACKGROUNDS:
            tri = random_triangle(bg, rng)
            total = sum(trig.interior_angles(bg, tri.lengths))
            if bg is Background.SPHERICAL:
                assert total > math.pi
            elif bg is Background.HYPERBOLIC:
                assert total < math.pi
            else:
                assert abs(total - math.pi) < 1e-12


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        trig.interior_angles(Background.EUCLIDEAN, (1.0, 1.0, 2.0))
    with pytest.raises(DegenerateTriangle):
        trig.interior_angles(Background.EUCLIDEAN, (1.0, 1.0, 2.0 - 1e-14))
    with pytest.raises(DegenerateTriangle):
        trig.interior_angles(Background.SPHERICAL, (2.5, 2.5, 2.0))  # perimeter >= 2 pi
    for lengths, radii in (((1.0, 1.0, math.nan), (0.0,) * 3), ((1.0,) * 3, (0.1, math.nan, 0.1))):
        with pytest.raises(DegenerateTriangle):
            DecoratedTriangle(Background.HYPERBOLIC, lengths, radii).check()


def test_euclidean_limit_of_hyperbolic_angles():
    # scaling lengths by s -> 0 approaches the Euclidean angles quadratically
    lengths = np.array([1.0, 1.3, 0.8])
    euc = trig.interior_angles(Background.EUCLIDEAN, tuple(lengths))
    ratios = []
    for s in (1e-1, 1e-2, 1e-3):
        hyp = trig.interior_angles(Background.HYPERBOLIC, tuple(s * lengths))
        err = max(abs(a - b) for a, b in zip(hyp, euc))
        ratios.append(err / s**2)
    assert all(r < 1.0 for r in ratios)
    assert ratios[-1] == pytest.approx(ratios[0], rel=0.2)


# -- inversive distance --------------------------------------------------------


def test_tangency_gives_one():
    assert trig.inversive_distance(Background.HYPERBOLIC, 0.7, 0.3, 0.4) == pytest.approx(
        1.0, abs=1e-12
    )
    assert trig.inversive_distance(Background.EUCLIDEAN, 0.7, 0.3, 0.4) == pytest.approx(
        1.0, abs=1e-12
    )
    assert trig.inversive_distance(Background.SPHERICAL, 0.7, 0.3, 0.4) == pytest.approx(
        1.0, abs=1e-12
    )


def test_spherical_inversive_frozen_and_lift_oracle():
    value = trig.inversive_distance(Background.SPHERICAL, 1.0, 0.3, 0.3)
    assert value == pytest.approx(SPH_INVERSIVE_03_03_10, abs=1e-14)
    # lift oracle: -<C_i, C_j> / (|C_i| |C_j|) on an explicit realization
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
    ci = trig.circle_lift(Background.SPHERICAL, p, 0.3)
    cj = trig.circle_lift(Background.SPHERICAL, q, 0.3)
    lift_value = -trig.mdot(ci, cj) / math.sqrt(trig.mdot(ci, ci) * trig.mdot(cj, cj))
    assert value == pytest.approx(lift_value, abs=1e-12)


def test_inversive_symmetry_and_zero_radius(rng):
    for bg in ALL_BACKGROUNDS:
        for _ in range(10):
            l = rng.uniform(0.8, 1.4)
            ra, rb = rng.uniform(0.05, 0.3, size=2)
            assert trig.inversive_distance(bg, l, ra, rb) == pytest.approx(
                trig.inversive_distance(bg, l, rb, ra), abs=1e-14
            )
        with pytest.raises(ZeroRadius):
            trig.inversive_distance(bg, 1.0, 0.0, 0.2)


def test_hyperideal_inputs_give_inversive_above_one(rng):
    for bg in ALL_BACKGROUNDS:
        for _ in range(20):
            tri = random_triangle(bg, rng)
            assert trig.inversive_distance(bg, tri.lengths[0], tri.radii[0], tri.radii[1]) > 1


# -- face circle ----------------------------------------------------------------


def test_euclidean_equilateral_face_circle():
    tri = DecoratedTriangle(Background.EUCLIDEAN, (2.0, 2.0, 2.0), (0.5, 0.5, 0.5))
    geom = trig.face_circle(tri)
    for s in range(3):
        assert geom.r_section[s] == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert geom.d_center[s] == pytest.approx(2.0 / (2.0 * math.sqrt(3.0)), abs=1e-12)
    # radical-center brute-force oracle: equal power to all three circles
    a, b, c = geom.positions
    centers = np.array([a, b, c])
    mat = 2.0 * (centers[1:] - centers[0])
    rhs = np.array(
        [
            np.dot(centers[k], centers[k]) - np.dot(centers[0], centers[0])
            for k in (1, 2)
        ]
    )  # equal radii cancel
    rc = np.linalg.solve(mat, rhs)
    power = float(np.dot(rc - centers[0], rc - centers[0])) - 0.25
    assert geom.circle_kind == "circle"
    assert geom.circumradius == pytest.approx(math.sqrt(power), abs=1e-10)


def test_spherical_octant_circumcircle():
    tri = DecoratedTriangle(Background.SPHERICAL, (math.pi / 2,) * 3, (0.0, 0.0, 0.0))
    geom = trig.face_circle(tri)
    # independent oracle: solve the 3x3 orthogonality system in the explicit
    # embedding; for points, orthogonality means the circle passes through them
    lifts = np.array([trig.circle_lift(Background.SPHERICAL, p, 0.0) for p in geom.positions])
    met = np.array([1.0, 1.0, 1.0, -1.0])
    _, _, vt = np.linalg.svd(lifts * met)
    lift = vt[-1]
    lift /= math.sqrt(trig.mdot(lift, lift))
    center = lift[:3] / np.linalg.norm(lift[:3])
    cos_rf = abs(lift[3]) / np.linalg.norm(lift[:3])
    for p in geom.positions:
        assert float(np.dot(center, p)) == pytest.approx(cos_rf, abs=1e-12)
    assert geom.circumradius == pytest.approx(math.acos(cos_rf), abs=1e-12)
    for s in range(3):
        assert geom.alpha[s] == pytest.approx(math.pi / 4, abs=1e-12)
        assert geom.r_section[s] == pytest.approx(math.pi / 4, abs=1e-12)
        assert geom.d_center[s] == pytest.approx(math.acos(math.sqrt(2.0 / 3.0)), abs=1e-12)


def test_face_circle_orthogonality_lift_oracle(rng):
    for bg in ALL_BACKGROUNDS:
        for k in range(15):
            tri = random_triangle(bg, rng, ideal=(k % 3 == 0))
            geom = trig.face_circle(tri)
            for s in range(3):
                lift = trig.circle_lift(bg, geom.positions[s], tri.radii[s])
                norm = np.linalg.norm(lift)
                assert abs(trig.mdot(geom.face_lift, lift)) / norm < 1e-10


def test_face_circle_identities(rng):
    # right-angle relation, cot relation, and foot identity per background
    for bg in ALL_BACKGROUNDS:
        for k in range(15):
            tri = random_triangle(bg, rng, ideal=(k % 4 == 0))
            geom = trig.face_circle(tri)
            for s in range(3):
                rho, d, dt = geom.r_section[s], geom.d_center[s], geom.d_tangent[s]
                dfoot = geom.d_foot[s][0]
                r_i = tri.radii[s]
                if bg is Background.SPHERICAL:
                    assert math.tan(d) == pytest.approx(
                        1.0 / math.tan(geom.alpha[s]) * math.sin(rho), abs=1e-10
                    )
                    assert math.cos(dfoot) == pytest.approx(
                        math.cos(r_i) * math.cos(rho), abs=1e-10
                    )
                    if geom.circle_kind == "circle":
                        assert math.cos(geom.circumradius) == pytest.approx(
                            abs(math.cos(d)) * math.cos(rho), abs=1e-10
                        )
                elif bg is Background.HYPERBOLIC:
                    assert dt == pytest.approx(
                        1.0 / math.tan(geom.alpha[s]) * math.sinh(rho), abs=1e-10
                    )
                    assert math.cosh(dfoot) == pytest.approx(
                        math.cosh(r_i) * math.cosh(rho), abs=1e-10
                    )
                    if geom.circle_kind == "circle" and math.isfinite(d):
                        assert math.cosh(geom.circumradius) == pytest.approx(
                            math.cosh(d) * math.cosh(rho), abs=1e-10
                        )
                else:
                    assert d == pytest.approx(
                        1.0 / math.tan(geom.alpha[s]) * rho, abs=1e-10
                    )
                    assert dfoot**2 == pytest.approx(r_i**2 + rho**2, abs=1e-10)
                    assert geom.circumradius**2 == pytest.approx(d**2 + rho**2, abs=1e-8)
                assert 0.0 < geom.alpha[s] < math.pi


def test_face_circle_relabeling_invariance(rng):
    for bg in ALL_BACKGROUNDS:
        tri = random_triangle(bg, rng)
        geom = trig.face_circle(tri)
        # cyclic rotation: slot s of the rotation is slot (s+1) of the original
        rot = DecoratedTriangle(
            bg,
            (tri.lengths[1], tri.lengths[2], tri.lengths[0]),
            (tri.radii[1], tri.radii[2], tri.radii[0]),
        )
        geom_rot = trig.face_circle(rot)
        for s in range(3):
            assert geom_rot.alpha[s] == pytest.approx(geom.alpha[(s + 1) % 3], abs=1e-10)
            assert geom_rot.r_section[s] == pytest.approx(geom.r_section[(s + 1) % 3], abs=1e-10)
            assert geom_rot.d_tangent[s] == pytest.approx(geom.d_tangent[(s + 1) % 3], abs=1e-10)
        # reflection (swap the last two corners): edge s=0 reverses, others swap
        ref = DecoratedTriangle(
            bg,
            (tri.lengths[0], tri.lengths[2], tri.lengths[1]),
            (tri.radii[1], tri.radii[0], tri.radii[2]),
        )
        geom_ref = trig.face_circle(ref)
        mapping = {0: 0, 1: 2, 2: 1}
        for s in range(3):
            assert geom_ref.alpha[s] == pytest.approx(geom.alpha[mapping[s]], abs=1e-10)
            assert geom_ref.r_section[s] == pytest.approx(geom.r_section[mapping[s]], abs=1e-10)
            assert geom_ref.d_tangent[s] == pytest.approx(geom.d_tangent[mapping[s]], abs=1e-10)


def test_hyperbolic_hypercycle_face_circle():
    # a long thin triangle has no circumcenter: the orthogonal "circle" is
    # a hypercycle, but the angles and tangent data stay finite
    tri = DecoratedTriangle(Background.HYPERBOLIC, (6.0, 3.2, 3.2), (0.05, 0.05, 0.05))
    geom = trig.face_circle(tri)
    assert geom.circle_kind == "hypercycle"
    assert math.isinf(geom.circumradius)
    for s in range(3):
        assert math.isinf(geom.d_center[s])
        assert math.isfinite(geom.d_tangent[s])
        assert 0.0 < geom.alpha[s] < math.pi


# -- diagonal length ---------------------------------------------------------------


def test_euclidean_square_diagonal():
    t1 = DecoratedTriangle(Background.EUCLIDEAN, (math.sqrt(2.0), 1.0, 1.0), (0.0, 0.0, 0.0))
    t2 = DecoratedTriangle(Background.EUCLIDEAN, (math.sqrt(2.0), 1.0, 1.0), (0.0, 0.0, 0.0))
    assert trig.diagonal_length(Background.EUCLIDEAN, t1, t2) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_spherical_octant_pair_rejected():
    oct_tri = DecoratedTriangle(Background.SPHERICAL, (math.pi / 2,) * 3, (0.0, 0.0, 0.0))
    with pytest.raises(FlipGeometryInvalid):
        trig.diagonal_length(Background.SPHERICAL, oct_tri, oct_tri)


def test_hyperbolic_kite_frozen_oracle():
    t1 = DecoratedTriangle(Background.HYPERBOLIC, (1.6, 1.2, 1.0), (0.1, 0.1, 0.1))
    t2 = DecoratedTriangle(Background.HYPERBOLIC, (1.6, 1.0, 1.2), (0.1, 0.1, 0.1))
    assert trig.diagonal_length(Background.HYPERBOLIC, t1, t2) == pytest.approx(
        KITE_DIAGONAL, abs=1e-13
    )


def test_diagonal_both_routes_agree(rng):
    # length via the angle at either shared vertex must coincide
    checked = 0
    for bg in ALL_BACKGROUNDS:
        for _ in range(20):
            tri = random_triangle(bg, rng)
            other = random_triangle(bg, rng)
            t2 = DecoratedTriangle(
                bg,
                (tri.lengths[0], other.lengths[1], other.lengths[2]),
                (tri.radii[1], tri.radii[0], other.radii[2]),
            )
            if t2.violations():
                continue
            try:
                d1 = trig.diagonal_length(bg, tri, t2)
            except FlipGeometryInvalid:
                continue
            # the quad seen from the other side swaps the triangle roles
            d2 = trig.diagonal_length(bg, t2, tri)
            assert d1 == pytest.approx(d2, abs=1e-11)
            checked += 1
    assert checked >= 10


def test_diagonal_shared_edge_mismatch_rejected():
    t1 = DecoratedTriangle(Background.EUCLIDEAN, (1.0, 1.0, 1.0), (0.1, 0.1, 0.1))
    t2 = DecoratedTriangle(Background.EUCLIDEAN, (1.0 + 1e-12, 1.0, 1.0), (0.1, 0.1, 0.1))
    with pytest.raises(FlipGeometryInvalid):
        trig.diagonal_length(Background.EUCLIDEAN, t1, t2)
