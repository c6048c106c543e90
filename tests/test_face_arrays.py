"""The array face kernel against the scalar per-face kernel, bit for bit.

``trig.face_circles`` and ``trig.angle_array`` evaluate every edge and
face of a surface at once; ``scalar_geometries`` runs the scalar kernel
face by face, as ``delaunay.face_geometries`` does without its gate,
and is the reference.  Floats are compared through ``repr``, which
tells apart every bit pattern, -0.0 and NaN included.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from ddce import Background, DecoratedMetric, Triangulation, cli
from ddce import delaunay as dl
from ddce import metric as me
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
    with_stacked_faces,
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
        assert not me.validate(m), name
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


def sum3_families(rng, n=20000):
    """(name, a, b, c): triples on which ``trig._sum3`` must give
    ``math.fsum``'s floats.  The near ties put the exact sum next to a
    midpoint between floats, where rounding the two low parts of the
    error-free split to nearest instead of to odd moves the result."""
    sign = lambda: rng.choice([-1.0, 1.0], n)
    r_a, r_b = rng.random((2, n)) * 10.0 ** rng.integers(-9, 3, (2, n))
    r_a[rng.random(n) < 0.2] = 0.0  # ideal end
    length = (r_a + r_b) * (1.0 + rng.random(n) * 10.0 ** rng.integers(-16, 1, n))
    tangent = rng.random(n) < 0.2
    length[tangent] = r_a[tangent] + r_b[tangent]
    yield "edge", length, sign() * r_a, sign() * r_b
    signed = lambda: sign() * rng.random(n) * np.exp2(rng.integers(-60, 61, n).astype(float))
    yield "random exponent", signed(), signed(), signed()
    offsets = np.array([1.0, 0.5, 0.25, 2.0**-53, 2.0**-60, 0.0])
    near = sign() * (2.0**53 + rng.integers(-4, 5, n).astype(float))
    ties = np.array((near, sign() * rng.choice(offsets, n), sign() * rng.choice(offsets, n)))
    yield "near tie", *rng.permuted(ties, axis=0)
    tiny = lambda: sign() * rng.integers(0, 2**20, n) * 5e-324 * rng.choice([1.0, 2.0**40], n)
    yield "subnormal", tiny(), tiny(), tiny()
    zeros = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0], (3, n))
    yield "signed zero", *zeros
    nan = np.array((signed(), signed(), signed()))
    nan[rng.integers(0, 3, n), np.arange(n)] = math.nan
    yield "nan", *nan


def test_sum3_is_math_fsum_bit_for_bit(rng):
    for name, a, b, c in sum3_families(rng):
        got = trig._sum3(a, b, c).tolist()
        want = list(map(math.fsum, zip(a.tolist(), b.tolist(), c.tolist())))
        wrong = [k for k, (x, y) in enumerate(zip(got, want)) if repr(x) != repr(y)]
        assert not wrong, (name, len(wrong), [(a[k], b[k], c[k], got[k], want[k]) for k in wrong[:3]])


def test_sum3_takes_fsum_values_and_errors_where_a_sum_is_not_finite():
    # infinite and NaN inputs, and finite ones whose sum overflows
    values = (math.inf, -math.inf, math.nan, 1e308, -1e308, 1.0, -0.0)
    for triple in itertools.product(values, repeat=3):
        with np.errstate(all="ignore"):  # inf - inf and overflowing adds
            got = outcome(lambda: trig._sum3(*(np.array([v]) for v in triple)).tolist()[0])
        want = outcome(math.fsum, triple)
        if isinstance(got, float) and isinstance(want, tuple) and want[0] is OverflowError:
            # a partial sum of fsum overflows where the exact sum does not
            want = float(sum(map(Fraction, triple)))
        assert repr(got) == repr(want), triple


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
        assert bits(dl.edge_weights(m)) == bits(reference_edge_weights(m, want)), name
        stacked = with_stacked_faces(m)
        assert bits(dl.edge_weights(stacked)) == bits(reference_edge_weights(m, want)), name
        checked += m.triangulation.face_count
    assert checked >= 1000


def test_cone_angles_and_edge_weights_match_the_scalar_kernel(rng):
    for name, m in corpus(rng):
        assert bits(so.cone_angles(m)) == bits(reference_cone_angles(m)), name
        stacked = with_stacked_faces(m)
        assert bits(dl.edge_weights(m)) == bits(dl.edge_weights(stacked)), name


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
    # face; the metric's faces and cone_angles run the array kernel alone, and
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
            got = m.faces
            theta = so.cone_angles(m)
            assert (len(circles), len(arrays)) == (tri.face_count, 1)
            for field in FIELDS:
                assert bits(getattr(got, field)) == bits([getattr(g, field) for g in want]), field
            assert bits(theta) == bits(reference_cone_angles(m))


def unread(m):
    """A metric with the data of ``m`` and nothing computed yet."""
    return DecoratedMetric(m.triangulation, m.background, m.lengths, m.radii)


def test_metric_faces_equal_the_array_kernel_on_fresh_and_flipped_metrics(rng):
    # a fresh metric's faces run face_circles on first read; a flip
    # output's faces stack its flip pass's list, and a pass that flips
    # nothing hands its list to the input it returns
    flips = []
    for bg in ALL_BACKGROUNDS:
        for tri in (grid_torus(4), Triangulation.genus_two_octagon()):
            m = scrambled_metric(tri, bg, rng, flips=8)
            ideal = np.where(np.arange(tri.vertex_count) % 2, m.radii, 0.0)  # r = 0: ideal
            for radii in (m.radii, ideal):
                fresh = DecoratedMetric(m.triangulation, bg, m.lengths, radii)
                flipped, log = dl.flip_to_delaunay(unread(fresh))
                again = unread(flipped)
                same, none = dl.flip_to_delaunay(again)
                assert same is again and none.flip_count == 0
                flips.append(log.flip_count)
                for out in (fresh, flipped, same):
                    want = kernel_arrays(out)
                    for field in FIELDS:
                        assert bits(getattr(out.faces, field)) == bits(getattr(want, field)), field
    assert min(flips) >= 1  # every pass flips; the second pass over its output does not


def test_flip_output_faces_run_no_array_kernel(rng, monkeypatch):
    # the faces of a flip output, and the weights and Jacobian read off
    # them, come from the flip pass's list, whether it flipped or not
    metrics = [scrambled_metric(grid_torus(4), bg, rng, flips=8) for bg in ALL_BACKGROUNDS]
    metrics += [dl.flip_to_delaunay(m)[0] for m in metrics]
    calls = []
    for name in ("face_circles", "angle_array"):
        real = getattr(trig, name)
        monkeypatch.setattr(trig, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    flips = []
    for m in metrics:
        out, log = dl.flip_to_delaunay(unread(m))
        flips.append(log.flip_count)
        out.faces, dl.edge_weights(out), so.angle_jacobian(out)
        assert calls == []
    assert flips[3:] == [0, 0, 0] and min(flips[:3]) >= 1


def curved_fixture_and_torus_metrics(rng):
    metrics = [m for _, m in fixture_metrics() if m.background is not Background.EUCLIDEAN]
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL):
        for n in (4, 5):
            metrics.append(random_metric(grid_torus(n), bg, rng, ideal_fraction=0.4))
    return metrics


def test_transition_rows_share_one_pass_with_their_own_floats(rng, monkeypatch):
    # the rows' faces come from one face_circles call over all rows, the
    # Euclidean limit's from one more, and each row holds the floats of
    # its own faces
    calls = []
    real = trig.face_circles
    monkeypatch.setattr(trig, "face_circles", lambda *a: calls.append(len(a[3])) or real(*a))
    ts = [1.0, 3.0, 10.0, 100.0, 1e3, 1e4]
    for m in curved_fixture_and_torus_metrics(rng):
        calls.clear()
        path = tr.build_transition(m, ts)
        F = path.euclidean_metric.triangulation.face_count
        assert calls == [F, len(ts) * F]
        for mt in path.metrics:
            fresh = unread(mt).faces
            for field in FIELDS:
                assert bits(getattr(mt.faces, field)) == bits(getattr(fresh, field)), field


def reference_transition_rows(m, ts):
    """``build_transition``'s rows evaluated one row at a time, each off
    its own metric's faces: the reference for the pass they share."""
    m_del, _ = dl.flip_to_delaunay(m, track_support=False)
    tri, h1, inv = m_del.triangulation, me.heights_from_decoration(m_del), me.lambda_lengths(m_del)
    w_euc = dl.edge_weights(tr.euclidean_limit(tri, inv, h1)[0])
    rows = []
    for t in ts:
        mt = me.decoration_from_heights(tri, inv, tr.scale_family(h1, t))
        angles = mt.faces.angles
        defect = max(np.abs(angles[:, 0] + angles[:, 1] + angles[:, 2] - math.pi).tolist())
        wdev = float(np.max(np.abs(dl.edge_weights(mt) - w_euc)))
        rows.append(tr.DiagnosticsRow(t, defect, wdev))
    return rows


def test_transition_raises_the_error_of_its_first_failing_row(rng):
    octant = cli.load_surface_file(str(FIXTURES / "double_octant_spherical.json"))[0]
    cases = [
        (octant, [1.0, 7.864323565871281e+307]),  # scale_family overflows after a valid row
        (octant, [1.0, 2.0, 1e300, 1e308]),
    ]
    for m in curved_fixture_and_torus_metrics(rng):
        cases.append((m, [1.0, 10.0, 1e5]))
        cases.append((m, [1.0, 1e150, 1e300]))
    failed = 0
    for m, ts in cases:
        want = outcome(reference_transition_rows, m, ts)
        got = outcome(lambda: tr.build_transition(m, ts).rows)
        assert repr(got) == repr(want), ts
        failed += isinstance(want, tuple)
    assert failed >= 2


def test_one_pass_over_several_metrics_leaves_a_failing_row_its_own_error():
    # sides (400, 400, 480) pass validate, but a corner angle of face 0
    # rounds to 0; the pass over both metrics fails at face 2 of their
    # union, and each metric then reads its own faces
    tri = Triangulation.square_torus()
    ordinary = DecoratedMetric(tri, Background.HYPERBOLIC, [2.0, 2.0, 2.5], [0.3])
    thin = DecoratedMetric(tri, Background.HYPERBOLIC, [400.0, 400.0, 480.0], [0.3])
    assert me.validate(thin) == []
    want = outcome(lambda: unread(thin).faces)
    assert want == (me.ResultInvalid, "face 0: a corner angle rounds to 0")
    me.fill_faces([ordinary, thin])
    assert "faces" not in vars(ordinary) and "faces" not in vars(thin)
    assert outcome(lambda: thin.faces) == want
    for field in FIELDS:
        assert bits(getattr(ordinary.faces, field)) == bits(getattr(kernel_arrays(ordinary), field))
