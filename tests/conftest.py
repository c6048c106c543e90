"""Shared fixtures: stock triangulations and random decorated metrics."""

import dataclasses
import math

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, DecoratedTriangle, Triangulation
from ddce import delaunay, metric as me, trig


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
        if not tri.violations():
            return tri


def lone_face_circle(tri):
    """``trig.face_circle`` of a lone triangle, each side reading the
    section of its edge as ``delaunay.face_geometries`` reads it on a
    surface: through the same per-face helper and ``trig.edge_section``."""
    bg, l, r = tri.background, tri.lengths, tri.radii
    return delaunay._face_geometry(
        tri, [trig.edge_section(bg, l[s], r[s], r[(s + 1) % 3]) for s in range(3)]
    )


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
    """Every field of a Triangulation, comparable with ``==``."""
    return {f.name: getattr(tri, f.name) for f in dataclasses.fields(tri)}


def fresh_copy(tri):
    """The same surface with its index tables not yet derived."""
    return Triangulation(**surface_fields(tri))


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
            m, _, _ = delaunay.flip_edge(m, e)
        except Exception:
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
