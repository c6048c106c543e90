"""Weighted Delaunay predicate, flip algorithm, and tessellation tests."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce import Background, DecoratedMetric, Triangulation, cli
from ddce import delaunay as dl
from ddce import metric as me
from ddce import solver as so
from ddce import trig
from ddce.errors import (
    DDCEError,
    FlipBoundExceeded,
    FlipGeometryInvalid,
    NotDelaunay,
    ResultInvalid,
)

from conftest import (
    ALL_BACKGROUNDS,
    DecoratedTriangle,
    face_array_fields,
    face_circle_lift,
    face_rows,
    face_triangle,
    grid_torus,
    isosceles_sphere,
    lift_support_max,
    lone_face_circle,
    octahedron,
    oracle_corpus,
    random_metric,
    realize_triangle,
    reference_flip,
    scrambled_metric,
    surface_fields,
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
    # and the d-sum is zero within the flip tolerance
    geoms = dl.face_geometries(m)
    (f, s), (g, t) = m.triangulation.edges[2]
    a, b = geoms[f].d_tangent[s], geoms[g].d_tangent[t]
    assert abs(a + b) <= dl.FLIP_TOL * (1.0 + abs(a) + abs(b))


def test_self_glued_isosceles_edge_nonnegative():
    tri = isosceles_sphere()
    m = DecoratedMetric(tri, Background.SPHERICAL, np.array([1.0, 1.2, 1.0]), np.full(3, 0.15))
    assert me.validate(m) == []
    self_glued = [e for e, ((f, _), (g, _)) in enumerate(tri.edges) if f == g]
    w = dl.edge_weights(m)
    for e in self_glued:
        assert w[e] >= 0
        assert dl.is_local_delaunay(m, e)


@pytest.mark.parametrize(
    "background, lengths, radii, diagnostic",
    [
        (Background.EUCLIDEAN, [1.0, 1.0, 1.0], [0.6, 0.6, 0.6], "vertex circles intersect"),
        (Background.HYPERBOLIC, [1.0, 1.0, 2.5], [0.1, 0.1, 0.1], "triangle inequality violated"),
        (Background.EUCLIDEAN, [1.0, math.nan, 1.0], [0.1, 0.1, 0.1], "not finite"),
        (Background.SPHERICAL, [2.0, 2.0, 2.0], [1.6, 0.0, 0.0], "spherical radius"),
        (Background.SPHERICAL, [2.2, 2.2, 2.2], [0.1, 0.1, 0.1], "not below 2*pi"),
    ],
)
def test_face_geometries_gate_the_metric(background, lengths, radii, diagnostic):
    # the kernel does not check its triangle: face_geometries and the
    # metric's faces refuse the metric as a whole, as every entry point does
    m = DecoratedMetric(Triangulation.double_triangle(), background, lengths, radii)
    bad = me.validate(m)
    assert any(diagnostic in msg for msg in bad)
    for name, gate in (("face_geometries", dl.face_geometries), ("faces", lambda m: m.faces)):
        with pytest.raises(ResultInvalid) as raised:
            gate(m)
        assert raised.value.diagnostics == bad
        assert str(raised.value) == f"input of {name} is not a valid decorated metric"


def test_flip_edge_gates_its_input(rng):
    # trig.diagonal_length checks only what a flip creates, so flip_edge
    # refuses an invalid metric first: here a negative radius, which the
    # new diagonal's check does not see
    m = random_metric(grid_torus(4), Background.HYPERBOLIC, rng)
    radii = m.radii.copy()
    radii[0] = -0.1
    bad = DecoratedMetric(m.triangulation, m.background, m.lengths, radii)
    for e in range(m.triangulation.edge_count):
        with pytest.raises(ResultInvalid) as raised:
            dl.flip_edge(bad, e)
        assert raised.value.diagnostics == me.validate(bad)
        assert str(raised.value) == "input of flip_edge is not a valid decorated metric"


def test_face_geometries_name_the_face_whose_kernel_overflows():
    # sides of 600 overflow no edge section, only sinh of the semi-perimeter
    m = DecoratedMetric(
        Triangulation.double_triangle(), Background.HYPERBOLIC, np.full(3, 600.0), np.full(3, 0.3)
    )
    assert me.validate(m) == []
    with pytest.raises(ResultInvalid) as raised:
        dl.face_geometries(m)
    assert str(raised.value) == "face 0: the face kernel overflows (math range error)"


def test_face_geometries_name_the_face_whose_kernel_divides_by_zero():
    # from sides of 356 sinh(sp) * sinh(sp - b) overflows to inf, so a
    # corner angle is exactly 0 and face_circle divides by its sine;
    # sides of 355 still evaluate
    def double(side):
        return DecoratedMetric(
            Triangulation.double_triangle(), Background.HYPERBOLIC,
            np.full(3, side), np.full(3, 0.3),
        )

    assert min(dl.face_geometries(double(355.0))[0].angles) > 0.0
    m = double(356.0)
    assert me.validate(m) == []
    with pytest.raises(ResultInvalid) as raised:
        dl.face_geometries(m)
    assert str(raised.value) == "face 0: the face kernel divides by zero (float division by zero)"
    # the array kernel names the same face, where it once gave zero
    # angles and NaN weights with a RuntimeWarning
    array_callers = (
        lambda m: so.cone_angles(m), lambda m: m.faces.angles, lambda m: dl.edge_weights(m),
    )
    for call in array_callers:
        assert np.all(call(double(355.0)) > 0.0)
        with pytest.raises(ResultInvalid) as raised:
            call(m)
        assert str(raised.value) == "face 0: a corner angle rounds to 0"


def test_concave_quad_is_delaunay_without_flip():
    # fat spherical torus: every corner angle exceeds pi/2, so the quad
    # of every edge is concave and the lemma short-circuits the predicate
    tri = Triangulation.square_torus()
    m = DecoratedMetric(tri, Background.SPHERICAL, np.full(3, 2.0), np.array([0.0]))
    assert me.validate(m) == []
    geoms = dl.face_geometries(m)
    for e in range(3):
        (f, s), (g, t) = tri.edges[e]
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
            for e, w in enumerate(dl.edge_weights(m).tolist()):
                (f, s), (g, t) = m.triangulation.edges[e]
                gf, gg = geoms[f], geoms[g]
                dsum = gf.d_tangent[s] + gg.d_tangent[t]
                # face-circle angles at the edge, from cot alpha * sfac(rho) = d_tangent
                srho = trig.sfac(bg, gf.r_section[s])
                asum = math.atan2(srho, gf.d_tangent[s]) + math.atan2(srho, gg.d_tangent[t])
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
            new_m, new_len = dl.flip_edge(current, e)
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
    for f, geom in enumerate(geoms):
        tri = face_triangle(m, f)
        a, b, c = realize_triangle(tri.background, tri.lengths, geom.angles[0])
        lift = face_circle_lift(tri.background, (a, b, c), tri.radii)
        c_aff = lift[:3] / lift[3]
        for _ in range(4000):
            wts = rng.dirichlet((1.0, 1.0, 1.0))
            p = wts[0] * a + wts[1] * b + wts[2] * c
            p = p / np.linalg.norm(p)
            worst = min(worst, 1.0 / float(np.dot(p, c_aff)))
    assert worst >= fast - 1e-12
    assert worst <= fast + 2e-3  # sampling reaches the true minimum closely


def sheared_torus(n, rng):
    """Spherical n x n grid torus on the sheared lattice a = (1, 0),
    b = (s, h), scaled by 0.3: the long diagonal a + b makes every
    face obtuse, with its face-circle center outside, until flipped."""
    tri = grid_torus(n)
    s, h = rng.uniform(0.25, 0.35), rng.uniform(0.85, 0.95)
    norms = {"a": 1.0, "b": math.hypot(s, h), "d": math.hypot(1.0 + s, h)}
    lengths = np.zeros(tri.edge_count)
    for f in range(tri.face_count):
        for slot, kind in enumerate("abd" if f % 2 == 0 else "dab"):
            lengths[tri.edge_index[(f, slot)]] = 0.3 * norms[kind]
    lengths *= 1.0 + rng.uniform(-0.01, 0.01, size=lengths.size)
    radii = 0.3 * rng.uniform(0.12, 0.16, size=tri.vertex_count)
    return DecoratedMetric(tri, Background.SPHERICAL, lengths, radii)


def test_face_support_closed_form_matches_lift_oracle(rng):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    metrics = [
        cli.load_surface_file(str(fixtures / f"{name}.json"))[0]
        for name in ("octahedron_spherical", "double_octant_spherical")
    ]
    metrics += [m for name, m in oracle_corpus(rng) if name.startswith("spherical")]
    for n in (5, 6):
        m = sheared_torus(n, rng)
        metrics += [m, dl.flip_to_delaunay(m)[0]]
    metrics.append(random_metric(grid_torus(4), Background.SPHERICAL, rng))
    cases = {"inside": 0, "outside": 0}
    for m in metrics:
        radii = m.radii.tolist()
        for f, g in enumerate(dl.face_geometries(m)):
            tri = face_triangle(m, f)
            # every foot lies on its side, so the face point nearest an
            # outside center is a foot, never a corner alone
            assert all(0.0 <= g.x_section[s] <= tri.lengths[s] for s in range(3))
            cases["inside" if min(g.d_tangent) >= 0.0 else "outside"] += 1
            want = lift_support_max(tri, g)
            got = dl._face_support_max(g, radii, m.triangulation.face_vertex_ids[f])
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert min(cases.values()) >= 100, cases
    # the limit of a great-circle face-circle: three point corners evenly
    # spread on the equator (a hemisphere, which the kernel refuses)
    third = 2.0 * math.pi / 3.0
    points = DecoratedTriangle(Background.SPHERICAL, (third,) * 3, (0.0,) * 3)
    hemisphere = trig.TriangleGeometry(
        angles=(math.pi,) * 3,
        r_section=(third / 2.0,) * 3,
        x_section=(third / 2.0,) * 3,
        d_tangent=(math.tan(math.pi / 2.0),) * 3,
    )
    got = dl._face_support_max(hemisphere, points.radii, (0, 1, 2))
    assert lift_support_max(points, hemisphere) == got == math.inf


def with_tangent_edge(m):
    """``m`` with the radii at the ends of its tightest edge grown until
    their circles touch."""
    ends = np.array(m.triangulation.edge_endpoint_ids)
    gap = m.lengths - m.radii[ends[:, 0]] - m.radii[ends[:, 1]]
    e = int(np.argmin(gap))
    i, j = ends[e]
    radii = m.radii.copy()
    radii[i] += gap[e] / 2.0
    radii[j] = m.lengths[e] - radii[i]  # a loop edge: the same radius, l / 2
    assert radii[i] + radii[j] == m.lengths[e]
    return DecoratedMetric(m.triangulation, m.background, m.lengths, radii)


def test_flip_output_faces_match_recomputation(rng):
    cases = []
    tangents = 0
    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(4), Triangulation.genus_two_octagon()):
            cases.append(random_metric(tri, bg, rng))  # typically few or no flips
            cases.append(scrambled_metric(tri, bg, rng, flips=6))
            cases.append(dl.flip_to_delaunay(cases[-1])[0])  # already Delaunay
        cases.append(scrambled_metric(grid_torus(6), bg, rng, flips=24))  # many flips
        # the quad sides' sections are read off the faces: ties of the
        # endpoint radii (both sides hold the section), ideal vertices
        # (r = 0) and tangent circles (rho = 0)
        for tri in (grid_torus(5), Triangulation.genus_two_octagon()):
            m = scrambled_metric(tri, bg, rng, flips=10)
            n = tri.vertex_count
            ideal = np.where(np.arange(n) % 2, m.radii, 0.0)
            for radii in (np.full(n, m.radii.min()), np.zeros(n), ideal):
                cases.append(DecoratedMetric(m.triangulation, bg, m.lengths, radii))
            tangent = with_tangent_edge(m)
            try:
                dl.flip_to_delaunay(tangent)
            except FlipGeometryInvalid:
                continue  # grown circles that meet across a diagonal
            cases.append(tangent)
            tangents += 1
    flips = []
    for m in cases:
        out, log = dl.flip_to_delaunay(m)
        flips.append(log.flip_count)
        got = face_rows(out.faces)
        want = dl.face_geometries(out)
        assert len(got) == len(want) == out.triangulation.face_count
        assert got == [face_array_fields(g) for g in want]
    assert flips.count(0) >= 9 and max(flips) >= 10 and tangents >= 4


def test_flip_to_delaunay_evaluates_one_section_per_flip(rng, monkeypatch):
    # every edge once for a fresh input, then the new diagonal of each
    # flip: the four quad sides keep their length and endpoint radii.
    # The input keeps its sections (m.sections), so a second pass on it
    # evaluates the new diagonals alone, and flips alike.
    real = trig.edge_section
    calls = []
    monkeypatch.setattr(trig, "edge_section", lambda *args: calls.append(args) or real(*args))
    flips = []
    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(5), Triangulation.genus_two_octagon()):
            m = scrambled_metric(tri, bg, rng, flips=8)
            m = DecoratedMetric(m.triangulation, bg, m.lengths, m.radii)  # nothing read yet
            calls.clear()
            out, log = dl.flip_to_delaunay(m)
            assert len(calls) == tri.edge_count + log.flip_count
            calls.clear()
            again, log_again = dl.flip_to_delaunay(m)
            assert len(calls) == log_again.flip_count == log.flip_count
            assert repr(again.lengths.tolist()) == repr(out.lengths.tolist())
            flips.append(log.flip_count)
    assert max(flips) >= 5


def reference_flip_edge(m, e):
    """``flip_edge`` on a surface rebuilt with canonical labels, with
    the maps from the old ids."""
    (f, s), (g, t) = m.triangulation.edges[e]
    t1, t2 = face_triangle(m, f, s), face_triangle(m, g, t)  # (a, b, c) and (b, a, d)
    new_len = trig.diagonal_length(
        m.background, t1.lengths + t2.lengths[1:], (t1.radii[2], t2.radii[2])
    )
    new_tri, edge_map, vertex_map, new_edge, boundary = reference_flip(m.triangulation, e)
    lengths = np.zeros(new_tri.edge_count)
    lengths[edge_map] = m.lengths
    lengths[new_edge] = new_len
    radii = np.zeros(new_tri.vertex_count)
    radii[vertex_map] = m.radii
    out = DecoratedMetric(new_tri, m.background, lengths, radii)
    return out, edge_map, vertex_map, new_edge, boundary, new_len


def reference_flip_to_delaunay(m):
    """The flip loop on surfaces rebuilt per flip: the queue and the
    vertex map are carried through every flip's relabeling.  Returns
    the metric, its FlipLog and the per-face geometries it kept."""
    geoms = dl.face_geometries(m)
    log = dl.FlipLog(vertex_map=list(range(m.triangulation.vertex_count)))
    spherical = m.background is Background.SPHERICAL
    if spherical:
        log.initial_support_min = dl.support_minimum(m, geoms)
    queue = list(range(m.triangulation.edge_count))
    while True:
        log.sweeps += 1
        while queue:
            e = queue.pop(0)
            if dl.is_local_delaunay(m, e, geoms=geoms):
                continue
            label = m.triangulation.edge_label(e)
            m, edge_map, vertex_map, new_edge, boundary, new_len = reference_flip_edge(m, e)
            queue = [edge_map[x] for x in queue]
            log.vertex_map = [vertex_map[x] for x in log.vertex_map]
            for f in {h[0] for h in m.triangulation.edges[new_edge]}:
                geoms[f] = lone_face_circle(face_triangle(m, f))
            for b in boundary:
                if b not in queue:
                    queue.append(b)
            support = dl.support_minimum(m, geoms) if spherical else None
            log.records.append(dl.FlipRecord(label, new_len, support))
        queue = [
            e for e in range(m.triangulation.edge_count)
            if not dl.is_local_delaunay(m, e, geoms=geoms)
        ]
        if not queue:
            return m, log, geoms


def flipped_with_faces(m):
    """``flip_to_delaunay``'s metric and FlipLog, and the rows of the
    metric's ``faces``."""
    out, log = dl.flip_to_delaunay(m)
    return out, log, face_rows(out.faces)


def reference_with_faces(m):
    """``reference_flip_to_delaunay``'s metric and FlipLog, and the
    ``trig.FaceArrays`` fields of its face geometries, row by row."""
    out, log, geoms = reference_flip_to_delaunay(m)
    return out, log, [face_array_fields(g) for g in geoms]


def flip_outcome(m, log, rows, vertex_map=True):
    """The output metric, everything its FlipLog holds and its face
    rows, as values that tell floats apart bit for bit."""
    return (
        surface_fields(m.triangulation), m.background, repr(m.lengths.tolist()),
        repr(m.radii.tolist()), repr(log.records), log.sweeps, repr(log.initial_support_min),
        rows, log.vertex_map if vertex_map else None,
    )


def test_flip_to_delaunay_matches_rebuild_reference(rng):
    cases = []
    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(5), Triangulation.genus_two_octagon()):
            cases.append(random_metric(tri, bg, rng))
            cases.append(scrambled_metric(tri, bg, rng, flips=8))
        cases.append(scrambled_metric(grid_torus(6), bg, rng, flips=24))  # many flips
        cases.append(dl.flip_to_delaunay(cases[-1])[0])  # zero flips
    flips = []
    for m in cases:
        got = flipped_with_faces(m)
        flips.append(got[1].flip_count)
        assert flip_outcome(*got) == flip_outcome(*reference_with_faces(m))
    assert flips.count(0) >= 3 and max(flips) >= 20
    # an input numbered by flip history: the same flips as on its
    # canonical relabeling, and a vertex map that composes with it
    checked = 0
    for m in cases:
        kept = m
        for _ in range(6):  # undo Delaunay edges, keeping ids: flips follow
            weights = dl.edge_weights(kept)
            for e in sorted(range(len(weights)), key=lambda e: -weights[e]):
                if weights[e] > 1e-6 and not kept.triangulation.is_self_glued_quad(e):
                    try:
                        kept, _ = dl.flip_edge(kept, e)
                        break
                    except FlipGeometryInvalid:
                        continue
        canon, canon_map = dl._canonical_metric(kept)
        if canon.triangulation.edges == kept.triangulation.edges:
            continue
        got, want = flipped_with_faces(kept), reference_with_faces(canon)
        assert got[1].flip_count > 0
        assert flip_outcome(*got, vertex_map=False) == flip_outcome(*want, vertex_map=False)
        assert got[1].vertex_map == [want[1].vertex_map[w] for w in canon_map]
        checked += 1
    assert checked >= 10


IS_LOCAL_DELAUNAY = dl.is_local_delaunay


def test_flip_to_delaunay_validates_its_input_once(rng, monkeypatch):
    # its validity is computed once, for check_valid, and read again by
    # the face_geometries gate; a metric already validated is not
    # computed again, and flip outputs are not validated
    real = me._diagnose
    computed = []
    monkeypatch.setattr(me, "_diagnose", lambda m: computed.append(m) or real(m))
    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(4)):
            m = scrambled_metric(tri, bg, rng, flips=4)
            fresh = DecoratedMetric(m.triangulation, bg, m.lengths, m.radii)
            computed.clear()
            dl.flip_to_delaunay(fresh)
            dl.flip_to_delaunay(fresh)
            assert len(computed) == 1 and computed[0] is fresh
    # an invalid input raises what check_valid raises on it
    m = random_metric(grid_torus(4), Background.HYPERBOLIC, rng)
    lengths = m.lengths.copy()
    lengths[3] = -1.0
    lengths[7] = lengths[8] + 10.0
    bad = DecoratedMetric(m.triangulation, m.background, lengths, m.radii)
    with pytest.raises(me.ResultInvalid) as got:
        dl.flip_to_delaunay(bad)
    with pytest.raises(me.ResultInvalid) as want:
        me.check_valid(bad, "input of flip_to_delaunay")
    assert str(got.value) == str(want.value)
    assert got.value.diagnostics == want.value.diagnostics and len(want.value.diagnostics) >= 3


def test_flip_to_delaunay_checks_each_edge_once_without_flips(rng, monkeypatch):
    # a worklist without a flip checks every edge once, on the metric
    # and geometries it ends with
    calls = []
    monkeypatch.setattr(
        dl, "is_local_delaunay", lambda m, e, **kw: calls.append(e) or IS_LOCAL_DELAUNAY(m, e, **kw)
    )
    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(4), Triangulation.genus_two_octagon()):
            m, _ = dl.flip_to_delaunay(scrambled_metric(tri, bg, rng, flips=4))
            calls.clear()
            out, log = dl.flip_to_delaunay(m)
            assert log.flip_count == 0 and log.sweeps == 1 and out is m
            assert sorted(calls) == list(range(tri.edge_count))


def test_flip_to_delaunay_rechecks_only_the_edges_a_flip_rebuilt(rng, monkeypatch):
    # after its first check an edge is checked again only once a flip has
    # rebuilt one of its faces, and the last check of every edge passes:
    # an empty worklist leaves no edge to re-verify
    cases = []
    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(5), Triangulation.genus_two_octagon()):
            cases.append(scrambled_metric(tri, bg, rng, flips=8))
        cases.append(scrambled_metric(grid_torus(6), bg, rng, flips=24))
    events = []
    real_flip = Triangulation.flip

    def flip(tri, e):
        new = real_flip(tri, e)
        rebuilt = {f for f, _ in new.edges[e]}
        events.append(("flip", {k for f in rebuilt for k in new.face_edge_ids[f]}))
        return new

    def check(m, e, **kw):
        ok = IS_LOCAL_DELAUNAY(m, e, **kw)
        events.append(("check", e, ok))
        return ok

    monkeypatch.setattr(Triangulation, "flip", flip)
    monkeypatch.setattr(dl, "is_local_delaunay", check)
    flips = []
    for m in cases:
        events.clear()
        _, log = dl.flip_to_delaunay(m)
        flips.append(log.flip_count)
        rebuilt, last = set(), {}  # edges whose faces a flip rebuilt since their check
        for event in events:
            if event[0] == "flip":
                rebuilt |= event[1]
                continue
            _, e, ok = event
            assert e not in last or e in rebuilt
            rebuilt.discard(e)
            last[e] = ok
        assert sorted(last) == list(range(m.triangulation.edge_count))
        assert all(last.values())
    assert max(flips) >= 20 and sum(flips) >= 100


def test_flip_to_delaunay_builds_the_surface_once(rng, monkeypatch):
    real = Triangulation.build_from_gluing.__func__
    real_flip = Triangulation.flip
    calls, flips = [], []

    def counted(cls, face_count, pairs):
        calls.append(face_count)
        return real(cls, face_count, pairs)

    def counted_flip(tri, e):
        flips.append(e)
        return real_flip(tri, e)

    m = scrambled_metric(grid_torus(5), Background.HYPERBOLIC, rng, flips=12)
    monkeypatch.setattr(Triangulation, "build_from_gluing", classmethod(counted))
    monkeypatch.setattr(Triangulation, "flip", counted_flip)
    out, log = dl.flip_to_delaunay(m)
    assert log.flip_count >= 5
    assert calls == [m.triangulation.face_count]  # the one canonical relabeling
    # one Triangulation.flip per FlipRecord: the benchmark's traced run
    # (bench/run.py trace_checks) requires surface.flip calls to equal
    # the summed FlipLog.flip_count
    assert len(flips) == log.flip_count
    calls.clear()
    flips.clear()
    _, log = dl.flip_to_delaunay(out)
    assert log.flip_count == 0 and calls == [] and flips == []


def test_support_min_records_match_replay(rng):
    checked = 0
    for tri in (octahedron(), grid_torus(4)):
        for _ in range(4):
            m = scrambled_metric(tri, Background.SPHERICAL, rng, flips=6)
            _, log = dl.flip_to_delaunay(m)
            assert repr(log.initial_support_min) == repr(dl.support_minimum(m))
            current = m
            for rec in log.records:
                e = next(
                    e
                    for e in range(current.triangulation.edge_count)
                    if current.triangulation.edge_label(e) == rec.edge_label
                )
                current, _ = dl.flip_edge(current, e)
                # recomputed from scratch on the replayed metric
                assert repr(rec.support_min) == repr(dl.support_minimum(current))
                checked += 1
    assert checked >= 10


def test_flip_termination_bound(rng):
    for bg in ALL_BACKGROUNDS:
        for k in range(5):
            m = scrambled_metric(grid_torus(3), bg, rng, flips=6)
            _, log = dl.flip_to_delaunay(m)
            assert log.flip_count <= 10 * m.triangulation.edge_count


def test_flip_bound_is_a_ddce_error(monkeypatch, tmp_path, capsys):
    # both diagonals of the square torus have length sqrt 2, so a predicate
    # that rejects every diagonal keeps flipping valid quads forever
    m = square_with_radii()
    monkeypatch.setattr(
        dl, "is_local_delaunay", lambda m, e, geoms=None: m.lengths[e] < 1.2
    )
    with pytest.raises(FlipBoundExceeded, match="safety bound") as err:
        dl.flip_to_delaunay(m)
    assert isinstance(err.value, DDCEError)
    path = tmp_path / "square.json"
    cli.write_surface_file(path, m)
    assert cli.main(["delaunay", str(path)]) == 1
    assert "safety bound" in capsys.readouterr().err


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


def test_square_lattice_tessellation_groups_each_square():
    # the n x n grid torus of unit squares, each split by a diagonal that
    # joins four cocircular corners of equal radii: every diagonal has
    # weight 0, and each square's two faces make one group
    n = 4
    tri = grid_torus(n)
    lengths = np.ones(tri.edge_count)
    # faces 2k and 2k + 1 split square k; its diagonal is slot 2 of the first
    diagonals = [tri.edge_index[(f, 2)] for f in range(0, tri.face_count, 2)]
    assert diagonals == [tri.edge_index[(f, 0)] for f in range(1, tri.face_count, 2)]
    diagonals.sort()
    lengths[diagonals] = math.sqrt(2.0)
    m = DecoratedMetric(tri, Background.EUCLIDEAN, lengths, np.full(tri.vertex_count, 0.2))
    tess = dl.extract_tessellation(m, tol=1e-9)
    assert tess.removed_edges == tuple(diagonals)
    assert tess.face_groups == tuple((2 * k, 2 * k + 1) for k in range(n * n))
    # every side has weight 1: above that tolerance all edges go, and the
    # walk reaches every face out of order, as one sorted group
    assert dl.extract_tessellation(m, tol=2.0).face_groups == (tuple(range(2 * n * n)),)


def test_tessellation_unique_across_flip():
    # flipping the zero-weight diagonal changes the triangulation but not
    # the tessellation
    m = square_with_radii()
    inv = me.lambda_lengths(m)
    tess = dl.extract_tessellation(m, tol=1e-9)
    flipped, _ = dl.flip_edge(m, 2)
    assert me.validate(flipped) == []
    tess2 = dl.extract_tessellation(flipped, tol=1e-9)
    inv2 = me.lambda_lengths(flipped)
    assert tuple(sorted(len(g) for g in tess.face_groups)) == tuple(
        sorted(len(g) for g in tess2.face_groups)
    )
    kept1 = sorted(inv.lam[e] for e in tess.kept_edges)
    kept2 = sorted(inv2.lam[e] for e in tess2.kept_edges)
    assert np.allclose(kept1, kept2, atol=1e-10)


def tessellation_summary(m):
    """Sorted face-group sizes, and the sorted lengths and lambda-lengths
    of the kept edges: what the weighted Delaunay tessellation of ``m``
    is up to edge and face ids."""
    tess = dl.extract_tessellation(m, tol=1e-9)
    kept = list(tess.kept_edges)
    return (
        sorted(len(g) for g in tess.face_groups),
        sorted(m.lengths[kept].tolist()),
        sorted(me.lambda_lengths(m).lam[kept].tolist()),
    )


def square_lattice(bg, radius, side=0.5, n=4):
    """``grid_torus(n)`` made of regular squares: sides ``side``, radii
    ``radius``, and the diagonal length that a flip of the diagonal
    keeps (bisection).  Every diagonal has weight 0 up to rounding, so
    the tessellation's cells are the ``n * n`` squares."""
    lo, hi = 1.1 * side, 1.9 * side
    for _ in range(60):
        mid = (lo + hi) / 2.0
        flipped = trig.diagonal_length(bg, (mid, side, side, side, side), (radius, radius))
        lo, hi = (mid, hi) if flipped > mid else (lo, mid)
    tri = grid_torus(n)
    lengths = np.full(tri.edge_count, side)
    for k in range(n * n):  # faces 2k and 2k + 1 split square k along its diagonal
        (diagonal,) = set(tri.face_edge_ids[2 * k]) & set(tri.face_edge_ids[2 * k + 1])
        lengths[diagonal] = lo
    return DecoratedMetric(tri, bg, lengths, np.full(tri.vertex_count, radius))


SURFACES = {
    "octahedron": octahedron, "torus4": lambda: grid_torus(4), "genus2": Triangulation.genus_two_octagon,
}


def test_tessellation_is_unique_across_random_flips():
    # the weighted Delaunay tessellation depends on the decorated surface
    # alone: a Delaunay metric, scrambled by random valid flips and
    # flipped to Delaunay again, has the same face groups and kept edges
    checked, refused = [], []

    @settings(max_examples=150)
    @given(
        st.sampled_from(ALL_BACKGROUNDS), st.sampled_from([*SURFACES, "lattice"]), st.booleans(),
        st.integers(0, 2**32 - 1), st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    )
    def check(bg, surface, ideal, seed, picks):
        if surface == "lattice":  # cocircular squares: face groups of two
            m = square_lattice(bg, 0.0 if ideal else 0.1)
        else:
            rng = np.random.default_rng(seed)
            m = random_metric(SURFACES[surface](), bg, rng, ideal_fraction=0.4 * ideal)
        try:
            m, _ = dl.flip_to_delaunay(m)
            scrambled = m
            for pick in picks:
                e = pick % scrambled.triangulation.edge_count
                if scrambled.triangulation.is_self_glued_quad(e):
                    continue
                try:
                    scrambled, _ = dl.flip_edge(scrambled, e)
                except FlipGeometryInvalid:  # not a valid flip
                    continue
            again, _ = dl.flip_to_delaunay(scrambled)
        except FlipGeometryInvalid as ex:
            # the one refusal skipped, and counted: a new diagonal whose
            # vertex circles intersect, which the model does not admit yet
            assert "new diagonal: vertex circles intersect" in str(ex), str(ex)
            refused.append(bg)
            return
        (groups, lengths, lam), (groups2, lengths2, lam2) = map(tessellation_summary, (m, again))
        assert groups == groups2
        assert np.allclose(lengths, lengths2, rtol=0.0, atol=1e-10)
        assert np.allclose(lam, lam2, rtol=0.0, atol=1e-10)
        checked.append(bg)

    check()
    assert len(refused) <= len(checked) // 10, refused
    assert all(checked.count(bg) >= 20 for bg in ALL_BACKGROUNDS)


def test_not_delaunay_raises():
    m = square_with_radii(diagonal=1.9, radius=0.0)
    with pytest.raises(NotDelaunay):
        dl.extract_tessellation(m, tol=1e-9)
