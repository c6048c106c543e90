"""The per-face kernel against a 50-digit oracle built another way.

``trig.face_circle`` evaluates closed forms in the side lengths and
radii.  The oracle realizes the triangle instead and constructs the
face-circle: in the plane its center is the power center of the three
vertex circles; on the sphere and in the hyperbolic plane it is the
null vector (by cofactors) of the three vertex-circle lifts to R^{3,1}.
The orthogonal sections are constructed the same way, from the two
vertex circles of an edge and the edge itself.  Each triangle is also
checked as a face of its double, where the mirror face reads every
edge's section from the other end.  The spherical support function is
checked against the same construction: the face-circle's lift, and the
largest value of its affine representative over the realized face.
"""

import math

import pytest
from mpmath import mp, mpf

from ddce import Background, DecoratedMetric, Triangulation
from ddce import delaunay, trig

from conftest import (
    ALL_BACKGROUNDS,
    DecoratedTriangle,
    cfac,
    face_triangle,
    geometry_fields,
    lone_face_circle,
    random_triangle,
    valid_triangle,
)

TOL = 1e-12
DIGITS = 50


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _null(rows):
    """Vector v with <row, v> = 0 for three lifts, in the Minkowski form
    diag(1, 1, 1, -1): the cofactors of the rows times the form."""
    rows = [[r[0], r[1], r[2], -r[3]] for r in rows]
    cols = [[k for k in range(4) if k != skip] for skip in range(4)]
    return [(-1) ** k * _det3(*([r[c] for c in cols[k]] for r in rows)) for k in range(4)]


def _mdot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] - x[3] * y[3]


def _lorentz(x, y):
    """Bilinear form of R^{2,1}, where the hyperboloid model lives."""
    return x[0] * y[0] + x[1] * y[1] - x[2] * y[2]


def _cross(p, q):
    return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]


def _positions(bg, l01, l12, l20):
    if bg is Background.EUCLIDEAN:
        cos0 = (l01 * l01 + l20 * l20 - l12 * l12) / (2 * l01 * l20)
        sin0 = mp.sqrt(1 - cos0 * cos0)
        return [[mpf(0), mpf(0)], [l01, mpf(0)], [l20 * cos0, l20 * sin0]]
    if bg is Background.SPHERICAL:
        cos0 = (mp.cos(l12) - mp.cos(l01) * mp.cos(l20)) / (mp.sin(l01) * mp.sin(l20))
        sin0 = mp.sqrt(1 - cos0 * cos0)
        return [
            [mpf(0), mpf(0), mpf(1)],
            [mp.sin(l01), mpf(0), mp.cos(l01)],
            [mp.sin(l20) * cos0, mp.sin(l20) * sin0, mp.cos(l20)],
        ]
    cos0 = (mp.cosh(l01) * mp.cosh(l20) - mp.cosh(l12)) / (mp.sinh(l01) * mp.sinh(l20))
    sin0 = mp.sqrt(1 - cos0 * cos0)
    return [
        [mpf(0), mpf(0), mpf(1)],
        [mp.sinh(l01), mpf(0), mp.cosh(l01)],
        [mp.sinh(l20) * cos0, mp.sinh(l20) * sin0, mp.cosh(l20)],
    ]


def _euclidean_oracle(p, r):
    # power center: equal power |c - p_s|^2 - r_s^2 to all three circles
    (x0, y0), rows = p[0], []
    for s in (1, 2):
        xs, ys = p[s]
        rhs = xs * xs + ys * ys - r[s] * r[s] - (x0 * x0 + y0 * y0 - r[0] * r[0])
        rows.append((2 * (xs - x0), 2 * (ys - y0), rhs))
    (a, b, e), (c, d, f) = rows
    det = a * d - b * c
    center = ((e * d - b * f) / det, (a * f - e * c) / det)
    d_tangent, r_section = [], []
    for s in range(3):
        a, b, apex = p[s], p[(s + 1) % 3], p[(s + 2) % 3]
        length = mp.sqrt((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2)
        u = ((b[0] - a[0]) / length, (b[1] - a[1]) / length)
        n = (-u[1], u[0])
        if n[0] * (apex[0] - a[0]) + n[1] * (apex[1] - a[1]) < 0:
            n = (-n[0], -n[1])
        rel = (center[0] - a[0], center[1] - a[1])
        d_tangent.append(n[0] * rel[0] + n[1] * rel[1])
        foot = u[0] * rel[0] + u[1] * rel[1]  # distance of the foot from a
        r_section.append(mp.sqrt(max(mpf(0), foot * foot - r[s] * r[s])))
    return d_tangent, r_section


def _curved_oracle(bg, p, r):
    if bg is Background.SPHERICAL:
        lifts = [[*p[s], mp.cos(r[s])] for s in range(3)]
    else:
        lifts = [[mp.cosh(r[s]), *p[s]] for s in range(3)]
    face = _null(lifts)
    d_tangent, r_section = [], []
    for s in range(3):
        a, b, apex = p[s], p[(s + 1) % 3], p[(s + 2) % 3]
        if bg is Background.SPHERICAL:
            # the face-circle center whose radius is at most pi/2
            face_s = face if face[3] > 0 else [-x for x in face]
            n = _cross(a, b)
            n = [x / mp.sqrt(sum(y * y for y in n)) for x in n]
            if sum(x * y for x, y in zip(n, apex)) < 0:
                n = [-x for x in n]
            center = face_s[:3]
            sin_d = sum(x * y for x, y in zip(center, n)) / mp.sqrt(sum(x * x for x in center))
            d_tangent.append(sin_d / mp.sqrt(1 - sin_d * sin_d))
            edge_lift = [*n, mpf(0)]
        else:
            face_s = face if face[0] > 0 else [-x for x in face]
            n = _cross(a, b)
            n[2] = -n[2]  # normal in R^{2,1}: <n, a> = <n, b> = 0
            n = [x / mp.sqrt(_lorentz(n, n)) for x in n]
            if _lorentz(n, apex) < 0:
                n = [-x for x in n]
            # tanh of the center distance, projectively: finite (and of
            # modulus above 1) also when the face-circle is a hypercycle
            center = face_s[1:]
            cn = _lorentz(center, n)
            d_tangent.append(cn / mp.sqrt(cn * cn - _lorentz(center, center)))
            edge_lift = [mpf(0), *n]
        section = _null([lifts[s], lifts[(s + 1) % 3], edge_lift])
        norm2 = max(mpf(0), _mdot(section, section))
        if bg is Background.SPHERICAL:
            r_section.append(mp.atan2(mp.sqrt(norm2), abs(section[3])))
        else:
            r_section.append(mp.asinh(mp.sqrt(norm2 / -_lorentz(section[1:], section[1:]))))
    return d_tangent, r_section


def oracle(tri: DecoratedTriangle):
    """``(d_tangent, r_section)`` of a decorated triangle at 50 digits."""
    with mp.workdps(DIGITS):
        lengths = [mpf(x) for x in tri.lengths]
        radii = [mpf(x) for x in tri.radii]
        p = _positions(tri.background, *lengths)
        if tri.background is Background.EUCLIDEAN:
            return _euclidean_oracle(p, radii)
        return _curved_oracle(tri.background, p, radii)


def _error(got, want) -> float:
    """Error relative to ``max(1, |want|)``; NaN when ``got`` is NaN."""
    with mp.workdps(DIGITS):
        return float(abs(mpf(got) - want) / max(1, abs(want)))


def support_oracle(tri: DecoratedTriangle):
    """Maximum of <x, C> over a realized spherical face at 50 digits, C
    the affine representative of the face-circle's lift: taken at the
    corners, at the critical points of the side arcs, and at C's own
    direction when that lies in the face."""
    with mp.workdps(DIGITS):
        lengths = [mpf(x) for x in tri.lengths]
        p = _positions(Background.SPHERICAL, *lengths)
        face = _null([[*p[s], mp.cos(mpf(tri.radii[s]))] for s in range(3)])
        c_aff = [x / face[3] for x in face[:3]]
        dot = lambda a, b: sum(x * y for x, y in zip(a, b))  # noqa: E731
        best = max(dot(q, c_aff) for q in p)
        inside = True
        for s in range(3):
            a, b, apex, l = p[s], p[(s + 1) % 3], p[(s + 2) % 3], lengths[s]
            fa, fb = dot(a, c_aff), dot(b, c_aff)
            t = mp.atan2(fb - fa * mp.cos(l), fa * mp.sin(l)) / l
            if 0 < t < 1:
                x = [
                    (mp.sin((1 - t) * l) * u + mp.sin(t * l) * v) / mp.sin(l) for u, v in zip(a, b)
                ]
                best = max(best, dot(x, c_aff))
            n = _cross(a, b)
            if dot(n, apex) * dot(n, c_aff) < 0:
                inside = False
        if inside:
            best = max(best, mp.sqrt(dot(c_aff, c_aff)))
        return best


def kernel_errors(tri: DecoratedTriangle, geom) -> list:
    """Errors of every ``d_tangent`` and ``r_section`` of the face
    geometry ``geom`` of a decorated triangle ``tri``."""
    want_d, want_r = oracle(tri)
    return [_error(*pair) for pair in zip(geom.d_tangent + geom.r_section, want_d + want_r)]


def _reversed_labels(tri):
    """The same surface with its edge and vertex ids in reverse order
    (faces and half-edges keep their names): labels that ``canonical``
    changes."""
    last_e, last_v = tri.edge_count - 1, tri.vertex_count - 1
    return Triangulation(
        face_count=tri.face_count,
        edges=tri.edges[::-1],
        face_edge_ids=tuple(tuple(last_e - k for k in row) for row in tri.face_edge_ids),
        face_vertex_ids=tuple(tuple(last_v - v for v in row) for row in tri.face_vertex_ids),
        genus=tri.genus,
    )


def doubled(tri: DecoratedTriangle) -> DecoratedMetric:
    """The double of a triangle on non-canonical labels: face 0 is
    ``tri`` slot for slot and face 1 its mirror image, whose sides run
    the other way along every edge."""
    surface = _reversed_labels(Triangulation.double_triangle())
    lengths, radii = [0.0] * 3, [0.0] * 3
    for s in range(3):
        lengths[surface.edge_index[(0, s)]] = tri.lengths[s]
        radii[surface.vertex_index[(0, s)]] = tri.radii[s]
    return DecoratedMetric(surface, tri.background, lengths, radii)


# -- corpus ----------------------------------------------------------------------


def _tangent_triangles():
    # dyadic data: r_0 + r_1 = l_01 and r_1 + r_2 = l_12 hold in exact arithmetic
    return [DecoratedTriangle(bg, (1.0, 0.75, 0.875), (0.5, 0.5, 0.25)) for bg in ALL_BACKGROUNDS]


def _near_tangent_triangles(rng):
    """Triangles with a section radius of at most 1e-5 times the length
    on one edge, some with an ideal vertex."""
    out = []
    for bg in ALL_BACKGROUNDS:
        k = 0
        while k < 12:
            tri = random_triangle(bg, rng, ideal=(k % 3 == 0))
            lengths, radii = tri.lengths, list(tri.radii)
            s = int(rng.integers(3))
            # a gap of at most rho^2 / l leaves a section radius below rho
            rho = 10.0 ** rng.uniform(-9, -5) * lengths[s]
            radii[(s + 1) % 3] = lengths[s] - radii[s] - rho * rho / lengths[s]
            tri = DecoratedTriangle(bg, lengths, tuple(radii))
            if valid_triangle(tri):
                assert oracle(tri)[1][s] <= 1e-5 * lengths[s]
                out.append(tri)
                k += 1
    return out


def _tiny_triangles(rng):
    out = []
    for bg in ALL_BACKGROUNDS:
        for k in range(8):
            tri = random_triangle(bg, rng, ideal=(k % 2 == 0))
            scale = 1e-4 / max(tri.lengths)
            out.append(
                DecoratedTriangle(
                    bg,
                    tuple(x * scale for x in tri.lengths),
                    tuple(x * scale for x in tri.radii),
                )
            )
    return out


def _spherical_ideal_on_circle(rng):
    """Spherical triangles with an ideal vertex a on the circle of its
    neighbour b (r_a = 0, r_b = l_ab): the section circle of that edge
    shrinks to the point a, and the numerator of the foot formula
    vanishes."""
    out = []
    while len(out) < 10:
        tri = random_triangle(Background.SPHERICAL, rng, ideal=True)
        s = tri.radii.index(0.0)
        radii = list(tri.radii)
        radii[(s + 1) % 3] = tri.lengths[s]
        tri = DecoratedTriangle(Background.SPHERICAL, tri.lengths, tuple(radii))
        if valid_triangle(tri):
            out.append(tri)
    return out


CASES = {
    "tangent": lambda rng: _tangent_triangles(),
    "near-tangent": _near_tangent_triangles,
    "tiny": _tiny_triangles,
    "ideal": lambda rng: [
        random_triangle(bg, rng, ideal=True) for bg in ALL_BACKGROUNDS for _ in range(10)
    ],
    "hypercycle": lambda rng: [
        DecoratedTriangle(Background.HYPERBOLIC, (6.0, 3.2, 3.2), (0.05, 0.05, 0.05))
    ],
    "spherical-ideal-on-circle": _spherical_ideal_on_circle,
    "random": lambda rng: [
        random_triangle(bg, rng, ideal=(k % 4 == 0)) for bg in ALL_BACKGROUNDS for k in range(40)
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_face_circle_matches_oracle(case, rng):
    triangles = CASES[case](rng)
    assert triangles
    for tri in triangles:
        geom = lone_face_circle(tri)
        assert all(err <= TOL for err in kernel_errors(tri, geom)), tri
        # on a surface: face 0 is the lone triangle, and its mirror reads
        # the complemented foot on every side the lone one reads as is
        m = doubled(tri)
        geoms = delaunay.face_geometries(m)
        assert geometry_fields(geoms[0]) == geometry_fields(geom)
        assert all(err <= TOL for err in kernel_errors(face_triangle(m, 1), geoms[1])), tri
        for (f, s), (g, t) in m.triangulation.edges:
            assert geoms[f].r_section[s] == geoms[g].r_section[t], tri
        canon, _ = delaunay._canonical_metric(m)
        assert canon.triangulation.edges != m.triangulation.edges
        assert list(map(geometry_fields, delaunay.face_geometries(canon))) == list(
            map(geometry_fields, geoms)
        )


def _near_concave_quads(rng):
    """Pairs ``(t1, t2)`` sharing their slot-0 edge, whose corner angle
    at the edge's first endpoint falls short of pi by 1e-3 to 1e-9."""
    out = []
    for bg in ALL_BACKGROUNDS:
        for _ in range(6):
            t1 = random_triangle(bg, rng)
            gap = 10.0 ** rng.uniform(-9, -3)
            gamma = math.pi - gap - trig.interior_angles(bg, t1.lengths)[0]
            if not 0.2 < gamma < math.pi - 0.2:
                continue
            # t2 = (b, a, d): the angle gamma at a lies between |ab| and |ad|
            l_ad = rng.uniform(0.4, 1.4)
            l_bd = trig._cos_rule_forward(bg, t1.lengths[0], l_ad, gamma)
            r_d = rng.uniform(0.03, 0.18)
            t2 = DecoratedTriangle(bg, (t1.lengths[0], l_ad, l_bd), (t1.radii[1], t1.radii[0], r_d))
            if valid_triangle(t2):
                out.append((t1, t2))
    return out


def test_near_concave_quad_weights_match_oracle(rng):
    quads = _near_concave_quads(rng)
    assert len(quads) >= 9
    for t1, t2 in quads:
        bg = t1.background
        corner = trig.interior_angles(bg, t1.lengths)[0] + trig.interior_angles(bg, t2.lengths)[1]
        assert math.pi - 2e-3 < corner < math.pi
        g1, g2 = lone_face_circle(t1), lone_face_circle(t2)
        for t, geom in ((t1, g1), (t2, g2)):
            assert all(err <= TOL for err in kernel_errors(t, geom)), geom
        # the shared edge's weight, in the product form of edge_weight
        got = (g1.d_tangent[0] + g2.d_tangent[0]) / (
            cfac(bg, g1.r_section[0]) * trig.sfac(bg, t1.lengths[0])
        )
        (d1, r1), (d2, _) = oracle(t1), oracle(t2)
        with mp.workdps(DIGITS):
            length = mpf(t1.lengths[0])
            if bg is Background.SPHERICAL:
                den = mp.cos(r1[0]) * mp.sin(length)
            elif bg is Background.HYPERBOLIC:
                den = mp.cosh(r1[0]) * mp.sinh(length)
            else:
                den = length
            want = (d1[0] + d2[0]) / den
        assert _error(got, want) <= TOL


def _near_flat_spherical_triangles(rng):
    """Spherical triangles whose longest side falls short of the sum of
    the other two by 1e-8 to 1e-3: a corner angle near pi, where the
    realized lift loses up to about 1e-12 of the support value."""
    out = []
    while len(out) < 30:
        a, b = rng.uniform(0.3, 1.2, size=2)
        tri = DecoratedTriangle(
            Background.SPHERICAL,
            (a, b, a + b - 10.0 ** rng.uniform(-8, -3)),
            tuple(rng.uniform(0.03, 0.18, size=3)),
        )
        if valid_triangle(tri):
            out.append(tri)
    return out


def test_face_support_matches_oracle(rng):
    triangles = _near_flat_spherical_triangles(rng)
    for case in ("tangent", "near-tangent", "tiny", "ideal", "spherical-ideal-on-circle", "random"):
        triangles += [t for t in CASES[case](rng) if t.background is Background.SPHERICAL]
    inside = 0
    for tri in triangles:
        geom = lone_face_circle(tri)
        inside += min(geom.d_tangent) >= 0
        got = delaunay._face_support_max(geom, tri.radii, (0, 1, 2))
        assert _error(got / support_oracle(tri), mpf(1)) <= 1e-14, tri
    # both branches: the center in the face, and outside it
    assert inside >= 10 and len(triangles) - inside >= 30
