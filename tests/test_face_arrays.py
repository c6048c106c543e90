"""The array face kernel against the scalar per-face kernel, bit for bit.

``trig.face_circles`` and ``trig.angle_array`` evaluate every edge and
face of a surface at once; ``scalar_geometries`` runs the scalar kernel
face by face, as ``delaunay.face_geometries`` does without its gate,
and is the reference.  Floats are compared through ``repr``, which
tells apart every bit pattern, -0.0 and NaN included.
"""

import math
from pathlib import Path

import numpy as np

from ddce import Background, DecoratedMetric, cli
from ddce import delaunay as dl
from ddce import solver as so
from ddce import transition as tr
from ddce import trig
from ddce.errors import DegenerateTriangle

from conftest import (
    ALL_BACKGROUNDS,
    cfac,
    from_face_vertices,
    geometry_fields,
    grid_torus,
    oracle_corpus,
    outcome,
    random_metric,
    scrambled_metric,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIELDS = ("lengths", "radii", "angles", "r_section", "x_section", "d_tangent")


def bipyramid(n):
    """Sphere of 2n faces: an n-gon with an apex on each side."""
    top, bottom = n, n + 1
    return from_face_vertices(
        [(i, (i + 1) % n, top) for i in range(n)] + [((i + 1) % n, i, bottom) for i in range(n)]
    )


def with_tangent_edge(m, e=0):
    """``m`` with edge ``e`` shortened to exact tangency of its circles."""
    i, j = m.triangulation.edge_endpoints(e)
    lengths = m.lengths.copy()
    lengths[e] = m.radii[i] + m.radii[j]
    return DecoratedMetric(m.triangulation, m.background, lengths, m.radii)


def fixture_metrics():
    return [
        (path.stem, cli.load_surface_file(str(path))[0])
        for path in sorted(FIXTURES.glob("*.json"))
    ]


def corpus(rng):
    """(name, valid metric): the oracle corpus, the seven fixtures, and
    random metrics on grid tori in every background, with ideal
    vertices and with a tangent edge, before and after flips."""
    cases = list(oracle_corpus(rng)) + fixture_metrics()
    for bg in ALL_BACKGROUNDS:
        for n in (4, 6):
            tri = grid_torus(n)
            name = f"{bg.name_lower}-torus{n}"
            cases.append((name, random_metric(tri, bg, rng)))
            cases.append((f"{name}-scrambled", scrambled_metric(tri, bg, rng, flips=10)))
            if bg is not Background.EUCLIDEAN:
                cases.append((f"{name}-ideal", random_metric(tri, bg, rng, ideal_fraction=0.4)))
            cases.append((f"{name}-tangent", with_tangent_edge(random_metric(tri, bg, rng))))
    for name, m in cases:
        assert not dl.validate(m), name
    return cases


def scalar_geometries(m):
    """``face_geometries`` without its ``metric.validate`` gate, so that
    invalid metrics reach the scalar kernel too."""
    bg, tri = m.background, m.triangulation
    lengths, radii = m.lengths.tolist(), m.radii.tolist()
    sections = [
        trig.edge_section(bg, length, radii[i], radii[j])
        for length, (i, j) in zip(lengths, tri.edge_endpoint_ids)
    ]
    return [
        trig.face_circle(
            bg, tuple(lengths[e] for e in es), tuple(radii[v] for v in vs),
            [sections[e] for e in es],
        )
        for es, vs in zip(tri.face_edge_ids, tri.face_vertex_ids)
    ]


def kernel_arrays(m):
    tri = m.triangulation
    return trig.face_circles(
        m.background, m.lengths, m.radii,
        tri.face_edge_array, tri.face_vertex_array, tri.edge_endpoint_array,
    )


def reference_edge_weights(m, geoms):
    """Per-edge product-form weights, edge by edge from the scalar geometries."""
    bg, weights = m.background, []
    for e in range(m.triangulation.edge_count):
        (f, s), (g, t) = m.triangulation.edges[e]
        denom = cfac(bg, geoms[f].r_section[s]) * trig.sfac(bg, m.lengths[e])
        weights.append((geoms[f].d_tangent[s] + geoms[g].d_tangent[t]) / denom)
    return np.array(weights)


def reference_cone_angles(m):
    theta = [0.0] * m.triangulation.vertex_count
    for g, verts in zip(scalar_geometries(m), m.triangulation.face_vertex_ids):
        for v, angle in zip(verts, g.angles):
            theta[v] += angle
    return np.array(theta)


def bits(values):
    return repr(np.asarray(values, dtype=float).tolist())


def test_face_arrays_match_the_scalar_kernel(rng):
    checked = 0
    for name, m in corpus(rng):
        want = scalar_geometries(m)
        got = kernel_arrays(m)
        for field in FIELDS:
            want_field = bits([getattr(g, field) for g in want])
            assert bits(getattr(got, field)) == want_field, (name, field)
        assert [geometry_fields(g) for g in dl.face_geometries(m)] == [
            geometry_fields(g) for g in want
        ], name
        assert bits(dl.edge_weights(m, got)) == bits(reference_edge_weights(m, want)), name
        stacked = trig.FaceArrays.stack(m.background, want)
        assert bits(dl.edge_weights(m, stacked)) == bits(reference_edge_weights(m, want)), name
        checked += m.triangulation.face_count
    assert checked >= 1000


def test_cone_angles_and_edge_weights_match_the_scalar_kernel(rng):
    for name, m in corpus(rng):
        assert bits(so.cone_angles(m)) == bits(reference_cone_angles(m)), name
        stacked = trig.FaceArrays.stack(m.background, dl.face_geometries(m))
        assert bits(dl.edge_weights(m)) == bits(dl.edge_weights(m, stacked)), name


def reference_rows(path):
    """Transition rows recomputed from the path's metrics with the scalar
    kernel and per-edge weights."""
    w_euc = reference_edge_weights(
        path.euclidean_metric, scalar_geometries(path.euclidean_metric)
    )
    rows = []
    for t, mt in zip(path.ts, path.metrics):
        geoms = scalar_geometries(mt)
        defect = max(abs(g.angles[0] + g.angles[1] + g.angles[2] - math.pi) for g in geoms)
        wdev = float(np.max(np.abs(reference_edge_weights(mt, geoms) - w_euc)))
        rows.append(tr.DiagnosticsRow(t, defect, wdev))
    return rows


def test_transition_rows_match_the_scalar_kernel(rng):
    ts = [1.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5]
    metrics = [cli.load_surface_file(str(FIXTURES / f"{name}.json"))[0] for name in (
        "genus2_hyperbolic", "double_tangent_hyperbolic", "octahedron_spherical",
    )]
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL):
        for n in (4, 5):
            metrics.append(random_metric(grid_torus(n), bg, rng))
        metrics.append(random_metric(grid_torus(4), bg, rng, ideal_fraction=0.4))
    for m in metrics:
        path = tr.build_transition(m, ts)
        assert repr(path.rows) == repr(reference_rows(path))


def test_face_arrays_raise_the_scalar_message_for_the_first_bad_face(rng):
    m = random_metric(grid_torus(4), Background.HYPERBOLIC, rng)
    tri = m.triangulation
    # make faces 5 and 9 flat: their third side the sum of the others
    lengths = m.lengths.copy()
    for f in (9, 5):
        a, b, c = tri.face_edge_ids[f]
        lengths[c] = lengths[a] + lengths[b]
    flat = DecoratedMetric(tri, m.background, lengths, m.radii)
    got = outcome(kernel_arrays, flat)
    assert got[0] is DegenerateTriangle
    assert got == outcome(scalar_geometries, flat)
    per_face = [
        outcome(trig.interior_angles, m.background, tuple(row))
        for row in lengths[tri.face_edge_array].tolist()
    ]
    rejected = [f for f, out in enumerate(per_face) if out[0] is DegenerateTriangle]
    assert len(rejected) >= 2 and got == per_face[rejected[0]]
    assert outcome(trig.angle_array, m.background, lengths[tri.face_edge_array]) == got
    # spherical range: a side of length pi
    s = random_metric(grid_torus(4), Background.SPHERICAL, rng)
    lengths = s.lengths.copy()
    lengths[7] = math.pi
    bad = DecoratedMetric(s.triangulation, s.background, lengths, s.radii)
    got = outcome(kernel_arrays, bad)
    assert got[0] is DegenerateTriangle and got == outcome(scalar_geometries, bad)


def test_face_arrays_keep_the_scalar_nan_behaviour(rng):
    # clamps are builtin max/min: a NaN radius gives the scalar kernel's
    # mix of NaN and clamped values, not numpy's all-NaN
    for bg in ALL_BACKGROUNDS:
        m = random_metric(grid_torus(4), bg, rng)
        radii = m.radii.copy()
        radii[3] = math.nan
        nan = DecoratedMetric(m.triangulation, bg, m.lengths, radii)
        got, want = kernel_arrays(nan), scalar_geometries(nan)
        for field in FIELDS:
            assert bits(getattr(got, field)) == bits([getattr(g, field) for g in want]), field
        lengths = m.lengths.copy()
        lengths[2] = math.nan
        faces = lengths[m.triangulation.face_edge_array]
        assert bits(trig.angle_array(bg, faces)) == bits(
            [trig.interior_angles(bg, tuple(row)) for row in faces.tolist()]
        )


def test_each_caller_takes_one_kernel_at_every_size(rng, monkeypatch):
    # bipyramids from 6 to 26 faces and a torus of 32: face_geometries,
    # whose callers keep per-face objects, runs face_circle once per
    # face; face_arrays and cone_angles run the array kernel alone, and
    # all of them give the same floats
    circles, arrays = [], []
    real_circle, real_arrays = trig.face_circle, trig.face_circles
    monkeypatch.setattr(trig, "face_circle", lambda *a: circles.append(a) or real_circle(*a))
    monkeypatch.setattr(trig, "face_circles", lambda *a: arrays.append(a) or real_arrays(*a))
    for tri in [bipyramid(n) for n in (3, 4, 11, 12, 13)] + [grid_torus(4)]:
        for bg in ALL_BACKGROUNDS:
            m = random_metric(tri, bg, rng, ideal_fraction=0.3)
            circles.clear(), arrays.clear()
            want = dl.face_geometries(m)
            assert (len(circles), len(arrays)) == (tri.face_count, 0)
            got = dl.face_arrays(m)
            theta = so.cone_angles(m)
            assert (len(circles), len(arrays)) == (tri.face_count, 1)
            for field in FIELDS:
                assert bits(getattr(got, field)) == bits([getattr(g, field) for g in want]), field
            assert bits(theta) == bits(reference_cone_angles(m))
