"""Per-triangle kernel tests against independent geometric oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ddce import Background
from ddce import trig
from ddce.errors import DegenerateTriangle, FlipGeometryInvalid, ResultInvalid, ZeroRadius

from conftest import (
    ALL_BACKGROUNDS,
    DecoratedTriangle,
    circle_lift,
    cross,
    face_circle_lift,
    lone_face_circle,
    mdot,
    outcome,
    quad_triangles,
    random_triangle,
    realize_triangle,
    reference_face_circle,
    reference_diagonal_length,
    reference_section_foot_radius,
    valid_triangle,
)

# frozen oracle values (50-digit evaluation of the stated closed forms)
HYP_EQUILATERAL_ANGLE = 0.91879787217802736904  # acos((cosh^2 1 - cosh 1)/sinh^2 1)
SPH_INVERSIVE_03_03_10 = 4.2637828128973559125  # (cos^2 0.3 - cos 1)/sin^2 0.3
KITE_DIAGONAL = 1.3721074625609179056  # hyperboloid embedding, sides (1.6, 1.2, 1.0) twice


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


def _ulps(x, k):
    """``x`` moved by ``k`` units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@st.composite
def _boundary_row(draw):
    """A row on a boundary of ``interior_angles``: its first gap within
    two ulps of the tolerance, or a perimeter within two ulps of 2 pi."""
    k = draw(st.integers(-2, 2))
    if draw(st.booleans()):
        a = draw(st.floats(1e-6, 40.0))
        b = draw(st.floats(a / 2, a * 2))
        pair = a + b
        # a + b - c is exact here (Sterbenz), so it steps by one ulp of c
        c = _ulps(pair - trig.DEGENERACY_TOL * max(1.0, pair), k)
    else:
        a = draw(st.floats(math.pi / 2 + 0.01, math.pi))
        b = draw(st.floats(math.pi / 2 + 0.01, math.pi))
        c = _ulps(2 * math.pi - a - b, k)
    row = [a, b, c]
    shift = draw(st.integers(0, 2))
    return row[shift:] + row[:shift]


_SPECIAL = st.sampled_from(
    [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, math.pi, 2 * math.pi, 1e300]
)
_ROW = st.one_of(
    st.lists(st.one_of(st.floats(-1.0, 8.0), _SPECIAL), min_size=3, max_size=3),
    _boundary_row(),
)


@given(st.sampled_from(ALL_BACKGROUNDS), st.lists(_ROW, min_size=1, max_size=6))
@example(Background.EUCLIDEAN, [[1e-12, 1e-12, 1e-12]])  # every gap equals the tolerance
@example(Background.SPHERICAL, [[math.pi, 2.0, 2.0], [math.pi, 1.6, 1.6]])  # a side of pi
@example(Background.SPHERICAL, [[2 * math.pi / 3] * 3])  # perimeter 2 pi
@example(Background.HYPERBOLIC, [[0.0, 1.0, 1.0], [-0.5, 1.0, 1.0], [math.nan, 1.0, 1.0]])
@example(Background.EUCLIDEAN, [[1.0, 1.0, 1.0], [1e300, 1e300, 1e300]])  # inf / inf
@example(Background.EUCLIDEAN, [[1e300, 1e300, 1e300], [0.0, 1.0, 1.0]])  # then a degenerate row
# inf - inf in the gaps of rows with infinite sides, fed in on purpose
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_degenerate_rows_are_the_rows_interior_angles_rejects(background, rows):
    # interior_angles raises DegenerateTriangle on a degenerate row and
    # returns NaN angles on a row with a NaN, or with infinities that its
    # tests let through.  A finite row of 1e300 sides is not degenerate:
    # it overflows, to OverflowError from sinh or to inf / inf, for which
    # it raises ResultInvalid.
    lengths = np.array(rows, dtype=float)
    flags = trig.degenerate_rows(background, lengths).tolist()
    for row, flagged in zip(lengths.tolist(), flags):
        got = outcome(trig.interior_angles, background, tuple(row))
        nan = not isinstance(got[0], type) and any(map(math.isnan, got))
        if all(map(math.isfinite, row)):  # the scalar form of the same condition
            assert bool(trig.face_defect(background, *row)) == flagged, row
        if all(map(math.isfinite, row)) and got[0] in (OverflowError, ResultInvalid):
            assert not flagged, row
            continue
        assert flagged == (got[0] is DegenerateTriangle or nan), row
    # angle_array gives what interior_angles gives row by row, or raises
    # what it raises for the first row that raises; with no degenerate
    # row it takes no row by row path, and names the face of a ResultInvalid
    want = outcome(lambda: [trig.interior_angles(background, tuple(r)) for r in rows])
    got = outcome(trig.angle_array, background, lengths)
    if want[0] is ResultInvalid and not any(flags):
        first = next(
            k for k, r in enumerate(rows) if outcome(trig.interior_angles, background, tuple(r)) == want
        )
        want = (ResultInvalid, f"face {first}: {want[1]}")
    assert repr(got if isinstance(got[0], type) else got.tolist()) == repr(
        want if isinstance(want[0], type) else [list(r) for r in want]
    )


def test_boundary_rows_fall_on_both_sides():
    # the boundary family of the property test straddles its boundary:
    # two ulps below it a row passes, two ulps above it is rejected
    rows = [
        (bg, [a, b, _ulps(c, k)])
        for bg, a, b, c in (
            (Background.EUCLIDEAN, 1.0, 1.0, 2.0 - 2e-12),
            (Background.EUCLIDEAN, 0.3, 0.5, 0.8 - 1e-12),
            (Background.HYPERBOLIC, 17.0, 30.0, 47.0 - 47e-12),
            (Background.SPHERICAL, 2.0, 2.0, 2 * math.pi - 4.0),
        )
        for k in (-2, 2)
    ]
    flags = [bool(trig.degenerate_rows(bg, np.array([row]))[0]) for bg, row in rows]
    assert flags == [False, True] * 4


def reference_interior_angles(bg, lengths):
    """Half-angle law of cosines with one sin/sinh call per factor of
    every corner, as the kernel was first written: the exact oracle."""
    a, b, c = lengths
    scale = max(1.0, a, b, c)
    for s in range(3):
        gap = lengths[s] + lengths[(s + 1) % 3] - lengths[(s + 2) % 3]
        if gap <= trig.DEGENERACY_TOL * scale or lengths[s] <= 0:
            raise DegenerateTriangle(f"lengths {tuple(lengths)} degenerate")
    if bg is Background.SPHERICAL:
        if max(lengths) >= math.pi or a + b + c >= 2 * math.pi:
            raise DegenerateTriangle(f"spherical lengths {tuple(lengths)} out of range")
        fn = math.sin
    elif bg is Background.HYPERBOLIC:
        fn = math.sinh
    else:
        fn = lambda t: t
    sp = (a + b + c) / 2.0
    angles = []
    for s in range(3):
        num1, num2 = fn(sp - lengths[s]), fn(sp - lengths[(s + 2) % 3])
        den1, den2 = fn(sp), fn(sp - lengths[(s + 1) % 3])
        if min(num1, num2, den1, den2) <= 0:
            raise DegenerateTriangle("triangle inequality violated beyond tolerance")
        angles.append(2.0 * math.atan(math.sqrt((num1 * num2) / (den1 * den2))))
    return tuple(angles)


def test_interior_angles_match_reference_exactly(rng):
    cases = []
    for bg in ALL_BACKGROUNDS:
        cases += [(bg, random_triangle(bg, rng).lengths) for _ in range(200)]
        cases += [
            (bg, (np.float64(0.3), np.float64(0.5), np.float64(0.8))),  # gap 0
            (bg, (0.3, 0.5, 0.8 - 1e-9)),  # gap just above the tolerance
            (bg, (1e-7, 1.3e-7, 2e-7)),  # tiny triangle
            (bg, (1.0, 1.0, math.nan)),
            (bg, (1.0, -1.0, 1.0)),
            (bg, (3.0, 3.1, 3.05)),  # spherical lengths >= pi
            (bg, (2.2, 2.1, 2.05)),  # spherical perimeter >= 2 pi
            (bg, (800.0, 800.5, 801.0)),  # sinh overflows
        ]
    for bg, lengths in cases:
        # repr tells floats apart bit for bit, NaN and -0.0 included
        got = repr(outcome(trig.interior_angles, bg, lengths))
        assert got == repr(outcome(reference_interior_angles, bg, lengths)), (bg, lengths)


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
    ci = circle_lift(Background.SPHERICAL, p, 0.3)
    cj = circle_lift(Background.SPHERICAL, q, 0.3)
    lift_value = -mdot(ci, cj) / math.sqrt(mdot(ci, ci) * mdot(cj, cj))
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


def alpha(bg, geom, s):
    """Angle at which the face-circle meets edge ``s`` of a face on
    background ``bg``: its cotangent times sin/identity/sinh of the
    section radius is ``d_tangent``."""
    return math.atan2(trig.sfac(bg, geom.r_section[s]), geom.d_tangent[s])


def center_distance(bg, geom, s):
    """Signed distance from the face-circle center to edge ``s`` of a
    face on background ``bg`` (spherical and Euclidean faces)."""
    if bg is Background.SPHERICAL:
        return math.atan(geom.d_tangent[s])
    return geom.d_tangent[s]


def test_triangle_geometry_holds_only_face_data():
    # the side lengths, corner radii and background are the metric's,
    # read there by id; each edge's section is the metric's too
    fields = [f.name for f in dataclasses.fields(trig.TriangleGeometry)]
    assert fields == ["angles", "r_section", "x_section", "d_tangent"]


def test_euclidean_equilateral_face_circle():
    tri = DecoratedTriangle(Background.EUCLIDEAN, (2.0, 2.0, 2.0), (0.5, 0.5, 0.5))
    geom = lone_face_circle(tri)
    for s in range(3):
        assert geom.r_section[s] == pytest.approx(math.sqrt(0.75), abs=1e-12)
        want = 2.0 / (2.0 * math.sqrt(3.0))
        assert center_distance(tri.background, geom, s) == pytest.approx(want, abs=1e-12)
    # radical-center brute-force oracle: equal power to all three circles
    centers = np.array(realize_triangle(Background.EUCLIDEAN, tri.lengths, geom.angles[0]))
    mat = 2.0 * (centers[1:] - centers[0])
    rhs = np.array(
        [
            np.dot(centers[k], centers[k]) - np.dot(centers[0], centers[0])
            for k in (1, 2)
        ]
    )  # equal radii cancel
    rc = np.linalg.solve(mat, rhs)
    power = float(np.dot(rc - centers[0], rc - centers[0])) - 0.25
    for s in range(3):
        # face-circle radius from the right triangle at the foot on edge s
        assert math.hypot(geom.d_tangent[s], geom.r_section[s]) == pytest.approx(
            math.sqrt(power), abs=1e-10
        )


def test_spherical_octant_circumcircle():
    tri = DecoratedTriangle(Background.SPHERICAL, (math.pi / 2,) * 3, (0.0, 0.0, 0.0))
    geom = lone_face_circle(tri)
    positions = realize_triangle(Background.SPHERICAL, tri.lengths, geom.angles[0])
    # independent oracle: solve the 3x3 orthogonality system in the explicit
    # embedding; for points, orthogonality means the circle passes through them
    lifts = np.array([circle_lift(Background.SPHERICAL, p, 0.0) for p in positions])
    met = np.array([1.0, 1.0, 1.0, -1.0])
    _, _, vt = np.linalg.svd(lifts * met)
    lift = vt[-1]
    lift /= math.sqrt(mdot(lift, lift))
    center = lift[:3] / np.linalg.norm(lift[:3])
    cos_rf = abs(lift[3]) / np.linalg.norm(lift[:3])
    for p in positions:
        assert float(np.dot(center, p)) == pytest.approx(cos_rf, abs=1e-12)
    for s in range(3):
        d = center_distance(tri.background, geom, s)
        # face-circle radius from the right triangle at the foot on edge s
        assert math.cos(d) * math.cos(geom.r_section[s]) == pytest.approx(cos_rf, abs=1e-12)
        assert alpha(tri.background, geom, s) == pytest.approx(math.pi / 4, abs=1e-12)
        assert geom.r_section[s] == pytest.approx(math.pi / 4, abs=1e-12)
        assert d == pytest.approx(math.acos(math.sqrt(2.0 / 3.0)), abs=1e-12)


def test_face_circle_orthogonality_lift_oracle(rng):
    # the oracle's lift is orthogonal to every vertex circle,
    # and on the sphere its center lies at the kernel's distance from
    # each edge
    for bg in ALL_BACKGROUNDS:
        for k in range(15):
            tri = random_triangle(bg, rng, ideal=(k % 3 == 0))
            geom = lone_face_circle(tri)
            positions = realize_triangle(bg, tri.lengths, geom.angles[0])
            face_lift = face_circle_lift(bg, positions, tri.radii)
            for s in range(3):
                lift = circle_lift(bg, positions[s], tri.radii[s])
                norm = np.linalg.norm(lift)
                assert abs(mdot(face_lift, lift)) / norm < 1e-10
            if bg is not Background.SPHERICAL:
                continue
            # the center whose face-circle radius is at most pi/2
            center = math.copysign(1.0, face_lift[3]) * face_lift[:3]
            center /= np.linalg.norm(center)
            for s in range(3):
                a, b, apex = positions[s], positions[(s + 1) % 3], positions[(s + 2) % 3]
                n = np.cross(a, b)
                n = math.copysign(1.0, float(np.dot(n, apex))) * n / np.linalg.norm(n)
                assert math.asin(float(np.dot(center, n))) == pytest.approx(
                    center_distance(tri.background, geom, s), abs=1e-10
                )


def test_face_circle_identities(rng):
    # foot identity per edge, and one face-circle radius seen from all
    # three edges through the right triangle at each foot
    for bg in ALL_BACKGROUNDS:
        for k in range(15):
            tri = random_triangle(bg, rng, ideal=(k % 4 == 0))
            geom = lone_face_circle(tri)
            radius_terms = []
            for s in range(3):
                rho, t = geom.r_section[s], geom.d_tangent[s]
                r_i = tri.radii[s]
                foot, _ = trig.section_foot_radius(bg, tri.lengths[s], r_i, tri.radii[(s + 1) % 3])
                if bg is Background.SPHERICAL:
                    assert math.cos(foot) == pytest.approx(math.cos(r_i) * math.cos(rho), abs=1e-10)
                    # cos^2 of the radius: cos^2 d cos^2 rho
                    radius_terms.append(math.cos(rho) ** 2 / (1.0 + t * t))
                elif bg is Background.HYPERBOLIC:
                    assert math.cosh(foot) == pytest.approx(
                        math.cosh(r_i) * math.cosh(rho), abs=1e-10
                    )
                    # 1 / cosh^2 of the radius: 1 / (cosh^2 d cosh^2 rho),
                    # zero for a horocycle and negative for a hypercycle
                    radius_terms.append((1.0 - t * t) / math.cosh(rho) ** 2)
                else:
                    assert foot**2 == pytest.approx(r_i**2 + rho**2, abs=1e-10)
                    # squared radius: d^2 + rho^2
                    radius_terms.append(t * t + rho * rho)
                assert 0.0 < alpha(tri.background, geom, s) < math.pi
            assert radius_terms == pytest.approx([radius_terms[0]] * 3, rel=1e-10, abs=1e-10)


def test_face_circle_relabeling_invariance(rng):
    for bg in ALL_BACKGROUNDS:
        tri = random_triangle(bg, rng)
        geom = lone_face_circle(tri)
        # cyclic rotation: slot s of the rotation is slot (s+1) of the original
        rot = DecoratedTriangle(
            bg,
            (tri.lengths[1], tri.lengths[2], tri.lengths[0]),
            (tri.radii[1], tri.radii[2], tri.radii[0]),
        )
        geom_rot = lone_face_circle(rot)
        for s in range(3):
            assert geom_rot.angles[s] == pytest.approx(geom.angles[(s + 1) % 3], abs=1e-10)
            assert geom_rot.r_section[s] == pytest.approx(geom.r_section[(s + 1) % 3], abs=1e-10)
            assert geom_rot.d_tangent[s] == pytest.approx(geom.d_tangent[(s + 1) % 3], abs=1e-10)
        # reflection (swap the first two corners): edge s=0 reverses, the
        # others swap
        ref = DecoratedTriangle(
            bg,
            (tri.lengths[0], tri.lengths[2], tri.lengths[1]),
            (tri.radii[1], tri.radii[0], tri.radii[2]),
        )
        geom_ref = lone_face_circle(ref)
        edges = {0: 0, 1: 2, 2: 1}
        corners = {0: 1, 1: 0, 2: 2}
        for s in range(3):
            assert geom_ref.angles[s] == pytest.approx(geom.angles[corners[s]], abs=1e-10)
            assert geom_ref.r_section[s] == pytest.approx(geom.r_section[edges[s]], abs=1e-10)
            assert geom_ref.d_tangent[s] == pytest.approx(geom.d_tangent[edges[s]], abs=1e-10)


def _kernel_cases(rng):
    """Decorated triangles for comparing the kernel with its generator
    form: random ones, and the boundary cases by hand in every
    background (some of them invalid there, which must fail alike)."""
    edge = math.pi - 1e-8
    by_hand = [
        ((0.75, 0.9, 0.8), (0.25, 0.5, 0.2)),  # tangent: 0.25 + 0.5 == 0.75
        ((0.75, 0.9, 0.8), (0.5, 0.25, 0.3)),  # tangent, larger radius first
        ((1.1, 0.9, 0.8), (0.0, 0.3, 0.0)),  # two ideal vertices
        ((1.1, 0.9, 0.8), (0.0, 0.0, 0.0)),  # every vertex ideal
        ((1.1, 0.9, 0.8), (0.2, 0.2, 0.2)),  # equal radii: the tie branch
        ((1.0, 1.0, 1.0), (0.3, 0.3, 0.1)),
        ((edge, math.pi / 2, math.pi / 2), (0.0, 0.0, 0.0)),  # side near pi
        ((edge, math.pi / 2, math.pi / 2), (0.1, 0.1, 0.1)),
        ((edge, 1.6, 1.6), (0.1, 0.2, 0.1)),  # spherical perimeter above 2 pi
        ((720.0, 720.5, 721.0), (0.3, 0.3, 0.3)),  # hyperbolic: exp and sinh overflow
        ((711.0, 400.0, 400.0), (0.3, 0.2, 0.1)),
        ((600.0, 600.0, 600.0), (0.3, 0.2, 0.1)),  # only the angles' sinh(sp) overflows
        ((1.0, 1.0, math.nan), (0.1, 0.1, 0.1)),
    ]
    for bg in ALL_BACKGROUNDS:
        for _ in range(100):
            for ideal in (False, True):
                tri = random_triangle(bg, rng, ideal=ideal)
                yield bg, tuple(map(float, tri.lengths)), tuple(map(float, tri.radii))
        for lengths, radii in by_hand:
            yield bg, lengths, radii


def test_straight_line_kernel_matches_generator_form(rng):
    # repr tells floats apart bit for bit, NaN and -0.0 included; a
    # failure compares as its exception type and message
    overflows = 0
    for bg, lengths, radii in _kernel_cases(rng):
        sections = []
        for s in range(3):
            l, r_i, r_j = lengths[s], radii[s], radii[(s + 1) % 3]
            for r_a, r_b in ((r_i, r_j), (r_j, r_i)):
                got = outcome(trig.section_foot_radius, bg, l, r_a, r_b)
                want = outcome(reference_section_foot_radius, bg, l, r_a, r_b)
                assert repr(got) == repr(want), (bg, l, r_a, r_b)
                overflows += got[0] is OverflowError
            section = outcome(trig.edge_section, bg, l, r_i, r_j)
            sections.append(section if isinstance(section[0], float) else (l / 2.0, 0.0))
        got = outcome(trig.face_circle, bg, lengths, radii, sections)
        want = outcome(reference_face_circle, bg, lengths, radii, sections)
        assert repr(got) == repr(want), (bg, lengths, radii)
        overflows += isinstance(got, tuple) and got[0] is OverflowError
    assert overflows >= 3


def test_hyperbolic_hypercycle_face_circle():
    # a long thin triangle has no circumcenter: the orthogonal "circle" is
    # a hypercycle, which no edge sees at a finite center distance, but
    # the tangent data stay finite
    tri = DecoratedTriangle(Background.HYPERBOLIC, (6.0, 3.2, 3.2), (0.05, 0.05, 0.05))
    geom = lone_face_circle(tri)
    for s in range(3):
        assert 1.0 < abs(geom.d_tangent[s]) < math.inf
        assert 0.0 < alpha(tri.background, geom, s) < math.pi


# -- diagonal length ---------------------------------------------------------------


def test_euclidean_square_diagonal():
    # faces (a, b, c) and (b, a, d) of a unit square, split along ab
    lengths = (math.sqrt(2.0), 1.0, 1.0, 1.0, 1.0)
    assert trig.diagonal_length(Background.EUCLIDEAN, lengths, (0.0, 0.0)) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_spherical_octant_pair_rejected():
    with pytest.raises(FlipGeometryInvalid):
        trig.diagonal_length(Background.SPHERICAL, (math.pi / 2,) * 5, (0.0, 0.0))


def test_hyperbolic_kite_frozen_oracle():
    # (a, b, c) with sides (1.6, 1.2, 1.0) and (b, a, d) with (1.6, 1.0, 1.2)
    lengths = (1.6, 1.2, 1.0, 1.0, 1.2)
    assert trig.diagonal_length(Background.HYPERBOLIC, lengths, (0.1, 0.1)) == pytest.approx(
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
            if not valid_triangle(t2):
                continue
            try:
                d1 = trig.diagonal_length(
                    bg, tri.lengths + t2.lengths[1:], (tri.radii[2], t2.radii[2])
                )
            except FlipGeometryInvalid:
                continue
            # the quad seen from the other side swaps the triangle roles
            d2 = trig.diagonal_length(bg, t2.lengths + tri.lengths[1:], (t2.radii[2], tri.radii[2]))
            assert d1 == pytest.approx(d2, abs=1e-11)
            checked += 1
    assert checked >= 10


def _quad(bg, l1, l2, radii):
    """``(bg, lengths, radii)`` for the quad of t1 = (a, b, c) with sides
    ``l1 = (ab, bc, ca)`` and t2 = (b, a, d) with sides ``ab`` and
    ``l2 = (ad, db)``, at radii ``(r_a, r_b, r_c, r_d)``: the arguments
    of ``reference_diagonal_length``."""
    return bg, (*l1, *l2), tuple(radii)


def _rejects(quad):
    return isinstance(outcome(reference_diagonal_length, *quad), tuple)


def _boundary(make, lo, hi):
    """Quads ``make(x)`` at the six floats around the point of
    ``[lo, hi]`` where ``reference_diagonal_length`` turns from accepting
    to rejecting, found by bisection; none if it does not turn there."""
    if _rejects(make(lo)) or not _rejects(make(hi)):
        return []
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            break
        if _rejects(make(mid)):
            hi = mid
        else:
            lo = mid
    return [make(x) for x in (_ulps(lo, -2), _ulps(lo, -1), lo, hi, _ulps(hi, 1), _ulps(hi, 2))]


def test_diagonal_length_checks_what_the_flip_creates(rng):
    # on a quad of two valid triangles the new diagonal's circles and the
    # two new faces are all a flip can break: diagonal_length rejects
    # exactly what checking both whole flipped triangles rejects, and
    # returns the same float otherwise, also at the tangency and gap
    # boundaries of the new diagonal
    quads = []
    for bg in ALL_BACKGROUNDS:
        for _ in range(40):
            t1, other = random_triangle(bg, rng), random_triangle(bg, rng)
            l1, l2 = t1.lengths, other.lengths[1:]
            radii = (*t1.radii, other.radii[2])
            base = _quad(bg, l1, l2, radii)
            quads.append(base)
            if _rejects(base):
                continue
            # circles of c and d grow until they touch
            quads += _boundary(lambda x: _quad(bg, l1, l2, (0.0, 0.0, x, x)), 0.0, 4.0)
            # the angle at a opens until the flipped face (a, d, c) is flat
            beta, ab, ad = trig.interior_angles(bg, (l1[0], *l2))[1], l1[0], l2[0]
            quads += _boundary(
                lambda x: _quad(bg, l1, (ad, trig._cos_rule_forward(bg, ab, ad, x)), radii),
                beta, math.pi - trig.interior_angles(bg, l1)[0],
            )
    # the flipped faces of a convex quad have perimeters below 2 pi, so
    # a "2*pi" rejection can only be absent from both
    counts = {"accepted": 0, "circles intersect": 0, "triangle inequality": 0, "2*pi": 0}
    for bg, lengths, radii in quads:
        t1, t2 = quad_triangles(bg, lengths, radii)
        if not (valid_triangle(t1) and valid_triangle(t2)):
            continue  # a quad of a valid metric only
        want = outcome(reference_diagonal_length, bg, lengths, radii)
        got = outcome(trig.diagonal_length, bg, lengths, radii[2:])
        if not isinstance(want, tuple):
            assert repr(got) == repr(want), (t1, t2)
            counts["accepted"] += 1
            continue
        assert want[0] is got[0] is FlipGeometryInvalid, (t1, t2, got)
        for reason in list(counts)[1:]:
            assert (reason in want[1]) == (reason in got[1]), (t1, t2, got)
            counts[reason] += reason in got[1]
    assert counts.pop("2*pi") == 0 and min(counts.values()) >= 20, counts


# -- the lift oracle's scalar cross product ------------------------------------------


def test_cross_matches_np_cross_exactly(rng):
    n = 100_000
    p = rng.standard_normal((n, 3))
    q = rng.standard_normal((n, 3))
    # components across the whole exponent range, so products overflow,
    # underflow to subnormals and cancel
    p[: n // 2] *= 10.0 ** rng.integers(-320, 308, size=(n // 2, 3))
    q[: n // 2] *= 10.0 ** rng.integers(-320, 308, size=(n // 2, 3))
    special = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -1e-300, 1e-160, 1e300, -1e308, math.inf])
    p[-2000:] = rng.choice(special, size=(2000, 3))
    q[-2000:] = rng.choice(special, size=(2000, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.cross(p, q).tolist()
    for k in range(n):
        # repr tells floats apart bit for bit, NaN and -0.0 included
        assert repr(cross(p[k], q[k])) == repr(tuple(want[k])), (p[k], q[k])
