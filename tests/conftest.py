"""Shared fixtures: stock triangulations and random decorated metrics."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import settings

from ddce import Background, DecoratedMetric, Triangulation
from ddce.errors import DisconnectedSurface, FlipGeometryInvalid, NonInvolution
from ddce import delaunay, metric as me, surface, trig

# property and fuzz tests draw the same examples on every run, keep no
# example database, and have no per-example deadline (timings on a
# loaded machine vary); tests that run whole commands lower max_examples
settings.register_profile(
    "ddce", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("ddce")


def from_face_vertices(faces):
    """Triangulation from vertex-indexed triangles (simplicial complexes
    only; directed vertex pairs must be unique)."""
    by_pair = {}
    for f, tri in enumerate(faces):
        for s in range(3):
            key = (tri[s], tri[(s + 1) % 3])
            assert key not in by_pair, f"duplicate directed edge {key}"
            by_pair[key] = (f, s)
    pairs = [(h, by_pair[(v, u)]) for (u, v), h in by_pair.items() if u < v]
    return Triangulation.build_from_gluing(len(faces), pairs)


def octahedron():
    return from_face_vertices(
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
    )


def grid_torus(n=3):
    """n x n grid torus, each square split by a diagonal; simplicial for n >= 3."""
    faces = []
    for i in range(n):
        for j in range(n):
            v00 = i * n + j
            v10 = ((i + 1) % n) * n + j
            v01 = i * n + (j + 1) % n
            v11 = ((i + 1) % n) * n + (j + 1) % n
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return from_face_vertices(faces)


def isosceles_sphere():
    """Sphere built from two triangles, each glued to itself along an
    edge; exercises self-glued faces."""
    return Triangulation.build_from_gluing(
        2, [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]
    )


ALL_BACKGROUNDS = (Background.SPHERICAL, Background.EUCLIDEAN, Background.HYPERBOLIC)


@dataclasses.dataclass(frozen=True)
class DecoratedTriangle:
    """A lone triangle with lengths ``(l01, l12, l20)`` and vertex radii
    ``(r0, r1, r2)``; slot ``s`` is the edge from corner ``s`` to
    corner ``s + 1``.  The package reads a face's floats by id off its
    metric; the tests build and check lone triangles with this record."""

    background: Background
    lengths: tuple
    radii: tuple


def face_triangle(m, f, s=0):
    """Face ``f`` of metric ``m`` as a DecoratedTriangle, read from its
    slot ``s``: the face's lengths and radii rotated to start there."""
    tri = m.triangulation
    lengths = [float(m.lengths[k]) for k in tri.face_edge_ids[f]]
    radii = [float(m.radii[v]) for v in tri.face_vertex_ids[f]]
    return DecoratedTriangle(
        m.background, tuple(lengths[s:] + lengths[:s]), tuple(radii[s:] + radii[:s])
    )


def random_metric(triangulation, background, rng, ideal_fraction=0.0, max_tries=400):
    """Random valid decorated metric built through the heights chart."""
    n_v = triangulation.vertex_count
    n_e = triangulation.edge_count
    for _ in range(max_tries):
        eps = np.ones(n_v, dtype=int)
        if ideal_fraction > 0 and background is not Background.EUCLIDEAN:
            eps = (rng.random(n_v) >= ideal_fraction).astype(int)
        lam = rng.uniform(0.15, 0.9, size=n_e)
        if background is Background.SPHERICAL:
            h = rng.uniform(1.0, 1.5, size=n_v)
        elif background is Background.HYPERBOLIC:
            h = np.where(eps == 1, rng.uniform(0.7, 1.4, size=n_v), rng.uniform(-0.3, 0.4, size=n_v))
        else:
            h = rng.uniform(-0.4, 0.4, size=n_v)
        if background is Background.EUCLIDEAN:
            eps = np.ones(n_v, dtype=int)
        inv = me.Invariant(triangulation, lam, eps)
        ref = (
            me.default_reference_radius(background)
            if background is not Background.EUCLIDEAN
            else 0.0
        )
        try:
            m = me.decoration_from_heights(
                triangulation, inv, me.Heights(h, background, ref, eps)
            )
        except me.HeightsOutOfDomain:
            continue
        if not me.validate(m):
            return m
    raise RuntimeError("could not sample a valid metric")


def random_triangle(bg, rng, ideal=False):
    """Random valid decorated triangle; with ``ideal``, one radius is 0."""
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
        if valid_triangle(tri):
            return tri


# -- triangle validity oracle -----------------------------------------------------
# The per-triangle check as first written, slot by slot, and the flip
# post-check built on it: the references for ``trig.face_defect`` and
# for what ``trig.diagonal_length`` checks.

def reference_violations(tri):
    """Every violated constraint of a lone decorated triangle, as text."""
    bg = tri.background
    out = []
    a, b, c = tri.lengths
    scale = max(1.0, a, b, c)
    if not all(map(math.isfinite, (*tri.lengths, *tri.radii))):
        out.append(f"lengths {tuple(tri.lengths)} / radii {tuple(tri.radii)} not all finite")
    for s in range(3):
        if tri.lengths[s] <= 0:
            out.append(f"slot {s}: length {tri.lengths[s]} not positive")
    for s in range(3):
        gap = tri.lengths[s] + tri.lengths[(s + 1) % 3] - tri.lengths[(s + 2) % 3]
        if gap <= trig.DEGENERACY_TOL * scale:
            out.append(f"slot {(s + 2) % 3}: triangle inequality violated (gap {gap:.3e})")
    if bg is Background.SPHERICAL:
        for s in range(3):
            if not (0 < tri.lengths[s] < math.pi):
                out.append(f"slot {s}: spherical length {tri.lengths[s]} outside (0, pi)")
        if a + b + c >= 2 * math.pi:
            out.append(f"perimeter {a + b + c} not below 2*pi")
        for s in range(3):
            if not (0 <= tri.radii[s] < math.pi / 2):
                out.append(f"corner {s}: spherical radius outside [0, pi/2)")
    else:
        for s in range(3):
            if tri.radii[s] < 0:
                out.append(f"corner {s}: negative radius")
    for s in range(3):
        # tangency (equality) is a supported boundary case
        if tri.radii[s] + tri.radii[(s + 1) % 3] > tri.lengths[s]:
            out.append(f"slot {s}: vertex circles intersect")
    return out


def valid_triangle(tri):
    """Whether a lone decorated triangle is valid: the one filter of
    the random-triangle generators."""
    return not reference_violations(tri)


def quad_triangles(bg, lengths, radii):
    """The faces ``(a, b, c)`` and ``(b, a, d)`` of a quad with
    ``lengths = (ab, bc, ca, ad, db)`` and ``radii = (r_a, r_b, r_c,
    r_d)``, as DecoratedTriangles."""
    l_ab, l_bc, l_ca, l_ad, l_db = lengths
    r_a, r_b, r_c, r_d = radii
    return (
        DecoratedTriangle(bg, (l_ab, l_bc, l_ca), (r_a, r_b, r_c)),
        DecoratedTriangle(bg, (l_ab, l_ad, l_db), (r_b, r_a, r_d)),
    )


def reference_diagonal_length(bg, lengths, radii):
    """``trig.diagonal_length`` checking both whole flipped triangles
    (``reference_violations``) after the diagonal, rather than only what
    the flip creates.  ``lengths`` are those of ``trig.diagonal_length``
    and ``radii`` all four ``(r_a, r_b, r_c, r_d)``, of which
    ``trig.diagonal_length`` takes ``(r_c, r_d)``."""
    t1, t2 = quad_triangles(bg, lengths, radii)
    ang1 = trig.interior_angles(bg, t1.lengths)
    ang2 = trig.interior_angles(bg, t2.lengths)
    gamma, gamma_b = ang1[0] + ang2[1], ang1[1] + ang2[0]
    if gamma >= math.pi or gamma_b >= math.pi:
        raise FlipGeometryInvalid("quad is concave at a shared-edge endpoint")
    new_len = trig._cos_rule_forward(bg, t1.lengths[2], t2.lengths[1], gamma)
    (_, l_bc, l_ca), (r_a, r_b, r_c) = t1.lengths, t1.radii
    (_, l_ad, l_db), r_d = t2.lengths, t2.radii[2]
    bad = reference_violations(DecoratedTriangle(bg, (l_ad, new_len, l_ca), (r_a, r_d, r_c)))
    bad += reference_violations(DecoratedTriangle(bg, (l_db, l_bc, new_len), (r_d, r_b, r_c)))
    if bad:
        raise FlipGeometryInvalid("; ".join(bad))
    return new_len


def cfac(background, t):
    """cos / 1 / cosh of ``t`` by background: the cosine counterpart
    of ``trig.sfac``."""
    if background is Background.SPHERICAL:
        return math.cos(t)
    if background is Background.HYPERBOLIC:
        return math.cosh(t)
    return 1.0


def lone_face_circle(tri):
    """``trig.face_circle`` of a lone triangle, given the
    ``trig.edge_section`` of each side as ``delaunay.face_geometries``
    gives it on a surface."""
    bg, l, r = tri.background, tri.lengths, tri.radii
    return trig.face_circle(
        bg, l, r, [trig.edge_section(bg, l[s], r[s], r[(s + 1) % 3]) for s in range(3)]
    )


# -- generator-form kernel -------------------------------------------------------
# The per-face kernel as first written, with generators, ``math.prod``
# and slot indexing: the straight-line ``trig`` kernel must give the
# same floats, or raise the same exception, bit for bit.

def reference_section_foot_radius(background, length, r_a, r_b):
    """``trig.section_foot_radius`` in its generator form."""
    gaps = (
        math.fsum((length, -r_a, -r_b)) / 2.0,
        math.fsum((length, -r_a, r_b)) / 2.0,
        math.fsum((length, r_a, -r_b)) / 2.0,
        math.fsum((length, r_a, r_b)) / 2.0,
    )
    if background is Background.SPHERICAL:
        num = 2.0 * (
            math.cos(r_a) * math.sin(length / 2.0) ** 2
            - math.sin((r_b + r_a) / 2.0) * math.sin((r_b - r_a) / 2.0)
        )
        den = math.cos(r_a) * math.sin(length)
        x = math.atan2(num, den)
        sin2 = 4.0 * math.prod(math.sin(g) for g in gaps) / (den * den + num * num)
        return x, math.asin(min(1.0, math.sqrt(max(0.0, sin2))))
    if background is Background.HYPERBOLIC:
        num = 2.0 * (
            math.cosh(r_a) * math.sinh(length / 2.0) ** 2
            + math.sinh((r_a + r_b) / 2.0) * math.sinh((r_a - r_b) / 2.0)
        )
        den = math.cosh(r_a) * math.sinh(length)
        x = math.atanh(max(-1.0 + 1e-16, min(1.0 - 1e-16, num / den)))
        lower = math.cosh(r_b) - math.cosh(r_a) * math.exp(-length)
        upper = math.cosh(r_a) * math.exp(length) - math.cosh(r_b)
        sinh2 = 4.0 * math.prod(math.sinh(g) for g in gaps) / (lower * upper)
        return x, math.asinh(math.sqrt(max(0.0, sinh2)))
    x = (length * length + r_a * r_a - r_b * r_b) / (2.0 * length)
    return x, math.sqrt(max(0.0, 4.0 * math.prod(gaps))) / length


_REFERENCE_T_C = {
    Background.SPHERICAL: (math.tan, math.cos),
    Background.EUCLIDEAN: (lambda t: t, lambda t: 1.0),
    Background.HYPERBOLIC: (math.tanh, math.cosh),
}


def reference_face_circle(background, lengths, radii, sections):
    """``trig.face_circle`` in its generator form, slot by slot."""
    angles = trig.interior_angles(background, lengths)
    T, C = _REFERENCE_T_C[background]
    x = tuple(
        foot if radii[s] <= radii[(s + 1) % 3] else lengths[s] - foot
        for s, (foot, _) in enumerate(sections)
    )
    d_tangent = []
    for s in range(3):
        x_ik = lengths[s - 1] - x[s - 1]  # slot s - 1 runs from k to i
        d_tangent.append(
            C(x[s]) * (T(x_ik) - T(x[s]) * math.cos(angles[s])) / math.sin(angles[s])
        )
    return trig.TriangleGeometry(
        background=background,
        lengths=tuple(lengths),
        radii=tuple(radii),
        angles=angles,
        r_section=(sections[0][1], sections[1][1], sections[2][1]),
        x_section=x,
        d_tangent=tuple(d_tangent),
    )


# -- lift oracle ----------------------------------------------------------------
# Model realizations and Minkowski lifts of circles into R^{3,1}: an
# independent construction of the face-circle and of the spherical
# support function, which the package computes in closed form.

MET = np.array([1.0, 1.0, 1.0, -1.0])


def mdot(x, y) -> float:
    """Minkowski inner product of signature (3, 1) on lift vectors."""
    return float(np.dot(x * MET, y))


def realize_triangle(background, lengths, th0):
    """Place corners 0, 1, 2 counterclockwise in the model surface:
    the unit sphere in R^3, the plane R^2, or the hyperboloid
    {x^2 + y^2 - z^2 = -1, z > 0} in R^{2,1}.  ``th0`` is the interior
    angle at corner 0 (``trig.interior_angles(background, lengths)[0]``)."""
    l01, _, l20 = lengths
    if background is Background.SPHERICAL:
        p0 = np.array([0.0, 0.0, 1.0])
        p1 = np.array([math.sin(l01), 0.0, math.cos(l01)])
        p2 = math.cos(l20) * p0 + math.sin(l20) * np.array(
            [math.cos(th0), math.sin(th0), 0.0]
        )
    elif background is Background.HYPERBOLIC:
        p0 = np.array([0.0, 0.0, 1.0])
        p1 = math.cosh(l01) * p0 + math.sinh(l01) * np.array([1.0, 0.0, 0.0])
        p2 = math.cosh(l20) * p0 + math.sinh(l20) * np.array(
            [math.cos(th0), math.sin(th0), 0.0]
        )
    else:
        p0 = np.zeros(2)
        p1 = np.array([l01, 0.0])
        p2 = l20 * np.array([math.cos(th0), math.sin(th0)])
    return p0, p1, p2


def circle_lift(background, center, radius):
    """Unnormalized Minkowski lift; isotropic for radius zero (a point),
    Minkowski norm equal to sin/sinh/identity of the radius otherwise."""
    if background is Background.SPHERICAL:
        return np.array([center[0], center[1], center[2], math.cos(radius)])
    if background is Background.HYPERBOLIC:
        return np.array([math.cosh(radius), center[0], center[1], center[2]])
    n2 = center[0] * center[0] + center[1] * center[1]
    return np.array(
        [center[0], center[1], (n2 - radius * radius - 1.0) / 2.0, (n2 - radius * radius + 1.0) / 2.0]
    )


def cross(p, q):
    """Cross product of two 3-vectors as a tuple of floats.  Each
    component is one rounded difference of two rounded products, the
    arithmetic of ``np.cross``, so the result is the same bit for bit."""
    p0, p1, p2 = p.tolist()
    q0, q1, q2 = q.tolist()
    return (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0)


def face_circle_lift(background, positions, radii):
    """Unit Minkowski lift of the circle orthogonal to the three vertex
    circles of a realized triangle.  Raises ValueError when the
    orthogonal complement is not spacelike."""
    rows = []
    for s in range(3):
        lift = circle_lift(background, positions[s], radii[s])
        rows.append(lift * MET / np.linalg.norm(lift))
    # difference the rows: for small triangles all three lifts nearly
    # coincide and the raw 3x4 system is badly conditioned, while row
    # differences keep the (identical) null space well separated
    mat = np.array([rows[0], rows[1] - rows[0], rows[2] - rows[0]])
    for k in (1, 2):
        norm = np.linalg.norm(mat[k])
        if norm > 0:
            mat[k] /= norm
    _, _, vt = np.linalg.svd(mat)
    lift = vt[-1]
    norm2 = mdot(lift, lift)
    if norm2 <= 1e-14:
        raise ValueError(f"orthogonal complement has Minkowski norm^2 {norm2:.3e}")
    return lift / math.sqrt(norm2)


def lift_support_max(geom):
    """Maximum of <x, C> over the realized spherical face, where C is
    the affine representative of the lifted face-circle: the oracle for
    ``delaunay._face_support_max``.  Candidates: the vertices, critical
    points on the edge arcs, and the direction of C itself when it lies
    inside the face (there 1/<x, C> equals the face-circle radius
    cosine)."""
    positions = realize_triangle(geom.background, geom.lengths, geom.angles[0])
    lift = face_circle_lift(geom.background, positions, geom.radii)
    if abs(lift[3]) < 1e-14:
        return math.inf  # great-circle face circle: support minimum 0
    c_aff = lift[:3] / lift[3]
    best = max(float(np.dot(p, c_aff)) for p in positions)
    for s in range(3):
        a, b = positions[s], positions[(s + 1) % 3]
        l = geom.lengths[s]
        fa, fb = float(np.dot(a, c_aff)), float(np.dot(b, c_aff))
        t = math.atan2(fb - fa * math.cos(l), fa * math.sin(l)) / l
        if 0.0 < t < 1.0:
            x = (math.sin((1.0 - t) * l) * a + math.sin(t * l) * b) / math.sin(l)
            best = max(best, float(np.dot(x, c_aff)))
    center = c_aff / np.linalg.norm(c_aff)
    inside = True
    for s in range(3):
        a, b = positions[s], positions[(s + 1) % 3]
        apex = positions[(s + 2) % 3]
        n = np.array(cross(a, b))
        if float(np.dot(apex, n)) < 0:
            n = -n
        if float(np.dot(center, n)) < 0:
            inside = False
            break
    if inside:
        best = max(best, float(np.linalg.norm(c_aff)))
    return best


def face_rows(faces):
    """The rows of a ``trig.FaceArrays``, one TriangleGeometry per face."""
    names = [f.name for f in dataclasses.fields(faces) if f.name != "background"]
    rows = [{n: tuple(getattr(faces, n)[f].tolist()) for n in names} for f in range(len(faces.lengths))]
    return [trig.TriangleGeometry(faces.background, **row) for row in rows]


def with_stacked_faces(m):
    """A copy of ``m`` whose ``faces`` stacks ``face_geometries(m)``, as
    the metric that ``flip_to_delaunay`` returns stacks its flip pass's
    per-face list."""
    out = DecoratedMetric(m.triangulation, m.background, m.lengths, m.radii)
    vars(out)["_flip_geometries"] = delaunay.face_geometries(m)
    return out


def geometry_fields(geom):
    """Every field of a TriangleGeometry as text that tells floats apart
    bit for bit (-0.0 and NaN included)."""
    out = {}
    for f in dataclasses.fields(geom):
        value = getattr(geom, f.name)
        if f.name != "background":
            value = np.asarray(value, dtype=float).tolist()
        out[f.name] = repr(value)
    return out


def reference_flip(tri, e):
    """Edge flip that rebuilds the whole surface through
    ``build_from_gluing`` (canonical labels), with maps from the old
    ids: ``(triangulation, edge_map, vertex_map, new_edge,
    quad_boundary_edges)``.  Reference for the id-keeping
    ``Triangulation.flip``."""
    nxt = lambda h: (h[0], (h[1] + 1) % 3)  # noqa: E731
    prv = lambda h: (h[0], (h[1] + 2) % 3)  # noqa: E731
    h1, h2 = tri.edges[e]
    f, s = h1
    g, t = h2
    relabel = {
        h1: (f, 1), h2: (g, 2), nxt(h1): (g, 1), prv(h1): (f, 2), nxt(h2): (f, 0), prv(h2): (g, 0),
    }
    pairs = [(relabel.get(a, a), relabel.get(b, b)) for a, b in tri.edges]
    new_tri = Triangulation.build_from_gluing(tri.face_count, pairs)
    edge_map = [new_tri.edge_index[relabel.get(h, h)] for h, _ in tri.edges]
    # where the corners of the quad sit after the flip; others stay put
    corners = {
        h1: (f, 0), nxt(h1): (g, 1), prv(h1): (f, 2), h2: (g, 1), nxt(h2): (f, 0), prv(h2): (f, 1),
    }
    vertex_map = [new_tri.vertex_index[corners.get(o[0], o[0])] for o in tri.vertices]
    boundary = tuple(edge_map[tri.edge_index[h]] for h in (nxt(h1), prv(h1), nxt(h2), prv(h2)))
    return new_tri, edge_map, vertex_map, new_tri.edge_index[(f, 1)], boundary


def surface_fields(tri):
    """The stored fields of a Triangulation (``face_count``, ``edges``,
    ``face_edge_ids``, ``face_vertex_ids``, ``genus``), comparable with
    ``==``."""
    return {f.name: getattr(tri, f.name) for f in dataclasses.fields(tri)}


def corner_orbits(face_count, pairs):
    """Vertex orbits of a gluing, found by breadth-first search on the
    corner identification graph (no union-find): sorted tuples, in
    sorted order."""
    adj = {(f, s): set() for f in range(face_count) for s in range(3)}
    for (f, s), (g, t) in pairs:
        for a, b in (((f, s), (g, (t + 1) % 3)), ((f, (s + 1) % 3), (g, t))):
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    orbits = []
    for corner in sorted(adj):
        if corner in seen:
            continue
        stack = [corner]
        orbit = set()
        while stack:
            c = stack.pop()
            if c in orbit:
                continue
            orbit.add(c)
            stack.extend(adj[c] - orbit)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


def fresh_copy(tri):
    """The same surface with its face tables derived afresh from its
    edge pairs alone: edge ids read off ``edges``, and vertex ids from
    ``corner_orbits``, each orbit taking the id that ``tri`` gives its
    least corner.  Nothing is derived from the copy yet."""
    edge_of = {h: k for k, pair in enumerate(tri.edges) for h in pair}
    vertex_of = {
        c: tri.face_vertex_ids[orbit[0][0]][orbit[0][1]]
        for orbit in corner_orbits(tri.face_count, tri.edges)
        for c in orbit
    }

    def rows(slot_of):
        return tuple(tuple(slot_of[(f, s)] for s in range(3)) for f in range(tri.face_count))

    return Triangulation(
        face_count=tri.face_count,
        edges=tri.edges,
        face_edge_ids=rows(edge_of),
        face_vertex_ids=rows(vertex_of),
        genus=tri.genus,
    )


# -- surface builder oracle -------------------------------------------------------
# The builder on (face, slot) tuples that the one on flat slots
# replaced: the reference for ``Triangulation.build_from_gluing``.


class _DictUnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            ra, rb = min(ra, rb), max(ra, rb)
            self.parent[rb] = ra


def reference_build_from_gluing(face_count, pairs):
    """``Triangulation.build_from_gluing`` on ``(f, s)`` tuples: the
    gluing and the vertex union-find are dicts keyed by half-edges.
    Reference for the builder on flat slots ``3 f + s``."""
    if 3 * face_count != 2 * len(pairs):
        raise NonInvolution(
            f"{face_count} faces have {3 * face_count} half-edges, "
            f"but {len(pairs)} gluing pairs cover {2 * len(pairs)}"
        )
    half_edges = [(f, s) for f in range(face_count) for s in range(3)]
    gluing: dict = {}
    for pair in pairs:
        (h1, h2) = (tuple(pair[0]), tuple(pair[1]))
        for h in (h1, h2):
            if not (0 <= h[0] < face_count and 0 <= h[1] < 3):
                raise NonInvolution(f"half-edge {h} out of range")
        if h1 == h2:
            raise NonInvolution(f"half-edge {h1} glued to itself")
        if h1 in gluing or h2 in gluing:
            raise NonInvolution(f"half-edge repeated in pair ({h1}, {h2})")
        gluing[h1] = h2
        gluing[h2] = h1

    uf = _DictUnionFind(half_edges)  # corners share the (face, slot) key space
    for h1, h2 in gluing.items():
        uf.union(h1, (h2[0], (h2[1] + 1) % 3))
    vertex_orbits: dict = {}
    for corner in half_edges:  # in sorted order, so each orbit is sorted
        vertex_orbits.setdefault(uf.find(corner), []).append(corner)
    vertex_slots = [0] * (3 * face_count)
    for idx, orbit in enumerate(sorted(vertex_orbits.values())):
        for f, s in orbit:
            vertex_slots[3 * f + s] = idx

    edges = tuple(sorted(tuple(sorted((h, gluing[h]))) for h in gluing if h <= gluing[h]))
    edge_slots = [0] * (3 * face_count)
    for idx, ((f, s), (g, t)) in enumerate(edges):
        edge_slots[3 * f + s] = edge_slots[3 * g + t] = idx

    faces_uf = _DictUnionFind(range(face_count))
    for (f, _s), (g, _t) in gluing.items():
        faces_uf.union(f, g)
    if len({faces_uf.find(f) for f in range(face_count)}) != 1:
        raise DisconnectedSurface("gluing does not connect all faces")

    chi = len(vertex_orbits) - len(edges) + face_count

    return Triangulation(
        face_count=face_count,
        edges=edges,
        face_edge_ids=surface._rows(edge_slots),
        face_vertex_ids=surface._rows(vertex_slots),
        genus=(2 - chi) // 2,
    )


# -- writer oracle ----------------------------------------------------------------
# The generic recursive JSON emitter the surface-file writer replaced:
# the reference for ``cli.surface_file_text``, which writes the fixed
# schema directly.


def _emit(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{pad}  {_emit(k)}: {_emit(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in value) or _is_gluing_pair(value)
        if flat:
            return "[" + ", ".join(_emit(v) for v in value) + "]"
        rows = [f"{pad}  {_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)}")


def _is_gluing_pair(value):
    return (
        len(value) == 2
        and all(isinstance(v, (list, tuple)) and len(v) == 2 for v in value)
        and all(isinstance(x, (int, np.integer)) for v in value for x in v)
    )


def reference_surface_file_text(m, extra=None):
    """Surface file text through the generic emitter."""
    tri = m.triangulation
    doc = {
        "background": m.background.name_lower,
        "faces": tri.face_count,
        "gluing": [[list(h1), list(h2)] for h1, h2 in tri.edges],
        "lengths": {tri.edge_label(e): float(m.lengths[e]) for e in range(tri.edge_count)},
        "radii": {tri.vertex_label(v): float(m.radii[v]) for v in range(tri.vertex_count)},
    }
    for key, values in (extra or {}).items():
        doc[key] = {tri.vertex_label(v): float(values[v]) for v in range(tri.vertex_count)}
    return _emit(doc) + "\n"


def scrambled_metric(triangulation, background, rng, flips=4, **kw):
    """Valid metric that is typically not weighted Delaunay: sample one,
    flip to Delaunay, then undo random legal flips."""
    m = random_metric(triangulation, background, rng, **kw)
    m, _ = delaunay.flip_to_delaunay(m)
    for _ in range(flips):
        weights = delaunay.edge_weights(m)
        candidates = [
            e
            for e in range(m.triangulation.edge_count)
            if weights[e] > 1e-6 and not m.triangulation.is_self_glued_quad(e)
        ]
        if not candidates:
            break
        e = int(candidates[rng.integers(len(candidates))])
        try:
            m, _ = delaunay.flip_edge(m, e)
        except FlipGeometryInvalid:  # the new faces would not be valid
            continue
        # a flip keeps ids; draw the next edge in canonical order
        m, _ = delaunay._canonical_metric(m)
    return m


def oracle_corpus(rng):
    """(name, metric) pairs for exact-equality tests of the kernels: every
    background on a sphere, a torus and the genus-2 octagon (loop edges,
    one vertex), with ideal vertices and with one exactly tangent edge."""
    corpus = []
    for bg in ALL_BACKGROUNDS:
        for name, tri in (
            ("octahedron", octahedron()),
            ("torus", grid_torus(3)),
            ("genus2", Triangulation.genus_two_octagon()),
        ):
            corpus.append((f"{bg.name_lower}-{name}", random_metric(tri, bg, rng)))
            if bg is not Background.EUCLIDEAN:
                m = random_metric(tri, bg, rng, ideal_fraction=0.4)
                corpus.append((f"{bg.name_lower}-{name}-ideal", m))
        m = random_metric(octahedron(), bg, rng)
        i, j = m.triangulation.edge_endpoints(0)
        lengths = m.lengths.copy()
        lengths[0] = m.radii[i] + m.radii[j]
        tangent = DecoratedMetric(m.triangulation, bg, lengths, m.radii)
        corpus.append((f"{bg.name_lower}-tangent", tangent))
    return corpus


def outcome(fn, *args):
    """Result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as ex:  # noqa: BLE001 - the oracle compares any failure
        return (type(ex), str(ex))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def double_triangle():
    return Triangulation.double_triangle()


@pytest.fixture
def square_torus():
    return Triangulation.square_torus()


@pytest.fixture
def genus2():
    return Triangulation.genus_two_octagon()
