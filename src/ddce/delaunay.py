"""Weighted Delaunay predicates, the edge-flip algorithm, and
tessellation extraction.

An edge is *local Delaunay* when its decorated cotan weight is
non-negative; equivalently the face-circle centers of the two adjacent
triangles lie in the correct order across the edge (the d-sum form used
here), equivalently the face-circles meet at an angle of at most pi.
Flipping edges that violate the strict condition terminates and yields
a weighted Delaunay triangulation; removing all zero-weight edges from
it gives the weighted Delaunay tessellation, which depends only on the
decorated surface and not on the triangulation used to compute it.

Two configurations short-circuit the predicate to True: edges along
which a face is glued to itself (isosceles configuration) and edges
whose quadrilateral has a corner angle sum of at least pi (concave
quad).  Such edges never need flipping.  Fully self-glued quads (the
double of a triangle) are likewise declared Delaunay because their
diagonal swap is refused combinatorially.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import trig
from .errors import NotDelaunay
from .metric import DecoratedMetric, check_valid
from .surface import _UnionFind
from .trig import Background

#: relative tolerance of the flip strictness test
FLIP_TOL = 1e-12


def face_geometries(m: DecoratedMetric) -> list:
    """TriangleGeometry per face."""
    return [trig.face_circle(m.face_triangle(f)) for f in range(m.triangulation.face_count)]


def _edge_slot_data(m: DecoratedMetric, e: int, geoms):
    (f, s), (g, t) = m.triangulation.edge_sides(e)
    return geoms[f], s, geoms[g], t


def edge_weight(m: DecoratedMetric, e: int, geoms=None) -> float:
    """Decorated cotan weight of edge ``e``:
    (cot alpha^k + cot alpha^l) * tan/tanh/id(r_sec) / sin/sinh/id(l),
    evaluated in the equivalent product form
    (T(d^k) + T(d^l)) / (cos/cosh/id(r_sec) * sin/sinh/id(l))
    which stays finite when the vertex circles of the edge are tangent
    (cot alpha diverges but T(d) = T(r_sec) cot alpha does not)."""
    if geoms is None:
        geoms = face_geometries(m)
    gf, s, gg, t = _edge_slot_data(m, e, geoms)
    denom = trig.cfac(m.background, gf.r_section[s]) * trig.sfac(m.background, m.lengths[e])
    return (gf.d_tangent[s] + gg.d_tangent[t]) / denom


def edge_weights(m: DecoratedMetric, geoms=None) -> np.ndarray:
    if geoms is None:
        geoms = face_geometries(m)
    return np.array([edge_weight(m, e, geoms) for e in range(m.triangulation.edge_count)])


def _d_sum(m: DecoratedMetric, e: int, geoms) -> tuple:
    gf, s, gg, t = _edge_slot_data(m, e, geoms)
    a, b = gf.d_tangent[s], gg.d_tangent[t]
    return a + b, FLIP_TOL * (1.0 + abs(a) + abs(b))


def is_local_delaunay(m: DecoratedMetric, e: int, strict: bool = False, geoms=None) -> bool:
    """d-sum form of the local Delaunay test, with the isosceles,
    concave-quad, and self-glued-quad short circuits."""
    tri = m.triangulation
    if tri.is_self_glued_quad(e):
        return True
    if geoms is None:
        geoms = face_geometries(m)
    gf, s, gg, t = _edge_slot_data(m, e, geoms)
    # angle sums at the two edge endpoints within the quad
    if gf.angles[s] + gg.angles[(t + 1) % 3] >= math.pi:
        return True
    if gf.angles[(s + 1) % 3] + gg.angles[t] >= math.pi:
        return True
    dsum, tol = _d_sum(m, e, geoms)
    return dsum > tol if strict else dsum >= -tol


def flip_edge(m: DecoratedMetric, e: int):
    """Geometric edge flip: new diagonal length from the quad, then the
    combinatorial surgery.  Returns (metric, FlipResult, new_length)."""
    tri = m.triangulation
    h1, h2 = tri.edge_sides(e)
    f, s = h1
    g, t = h2
    t1 = _rotated_triangle(m, f, s)
    t2 = _rotated_triangle(m, g, t)
    new_len = trig.diagonal_length(m.background, t1, t2)
    fr = tri.flip(e)
    new_tri = fr.triangulation
    lengths = np.zeros(new_tri.edge_count)
    for old_e in range(tri.edge_count):
        lengths[fr.edge_map[old_e]] = m.lengths[old_e]
    lengths[fr.new_edge] = new_len
    radii = np.zeros(new_tri.vertex_count)
    for old_v in range(tri.vertex_count):
        radii[fr.vertex_map[old_v]] = m.radii[old_v]
    return DecoratedMetric(new_tri, m.background, lengths, radii), fr, new_len


def _rotated_triangle(m: DecoratedMetric, f: int, s: int) -> trig.DecoratedTriangle:
    tri = m.triangulation
    edges = tri.face_edges(f)
    verts = tri.face_vertices(f)
    lengths = tuple(m.lengths[edges[(s + k) % 3]] for k in range(3))
    radii = tuple(m.radii[verts[(s + k) % 3]] for k in range(3))
    return trig.DecoratedTriangle(m.background, lengths, radii)


@dataclass(frozen=True)
class FlipRecord:
    edge_label: str
    new_length: float
    support_min: float | None = None


@dataclass
class FlipLog:
    """Flip trace plus the composed vertex relabeling map (vertex orbit
    index of the input metric -> vertex orbit index of the output)."""

    records: list = field(default_factory=list)
    initial_support_min: float | None = None
    sweeps: int = 0
    vertex_map: list = field(default_factory=list)

    @property
    def flip_count(self) -> int:
        return len(self.records)


def flip_to_delaunay(m: DecoratedMetric, track_support: bool | None = None):
    """Flip until every edge is local Delaunay (FIFO queue over the
    violating edges, re-enqueueing the four quad boundary edges after
    each flip).  The decorated surface is unchanged; only the
    triangulation and the induced edge lengths move.

    Returns ``(metric, FlipLog)``.  For spherical metrics the log
    records the support-function minimum after every flip, the
    monotone quantity behind the termination proof.
    """
    check_valid(m, "input of flip_to_delaunay")
    if track_support is None:
        track_support = m.background is Background.SPHERICAL
    geoms = face_geometries(m)
    log = FlipLog(vertex_map=list(range(m.triangulation.vertex_count)))
    if track_support:
        log.initial_support_min = support_minimum(m, geoms)
    max_flips = max(200, 40 * m.triangulation.edge_count)

    queue = deque(range(m.triangulation.edge_count))
    queued = set(queue)
    while True:
        log.sweeps += 1
        while queue:
            e = queue.popleft()
            queued.discard(e)
            if is_local_delaunay(m, e, strict=False, geoms=geoms):
                continue
            if log.flip_count >= max_flips:
                raise RuntimeError("flip algorithm exceeded the safety bound; geometry inconsistent")
            label = m.triangulation.edge_label(e)
            m, fr, new_len = flip_edge(m, e)
            queue = deque(fr.edge_map[x] for x in queue)
            queued = set(queue)
            log.vertex_map = [fr.vertex_map[x] for x in log.vertex_map]
            for f in set(h[0] for h in fr.triangulation.edges[fr.new_edge]):
                geoms[f] = trig.face_circle(m.face_triangle(f))
            for b in fr.quad_boundary_edges:
                if b not in queued:
                    queue.append(b)
                    queued.add(b)
            support = support_minimum(m, geoms) if track_support else None
            log.records.append(FlipRecord(label, new_len, support))
        # re-verify: a drained queue can in principle miss a new diagonal
        stale = [
            e
            for e in range(m.triangulation.edge_count)
            if not is_local_delaunay(m, e, strict=False, geoms=geoms)
        ]
        if not stale:
            return m, log
        queue = deque(stale)
        queued = set(queue)


@dataclass(frozen=True)
class Tessellation:
    """Weighted Delaunay tessellation report: edges kept (weight above
    tolerance) and maximal groups of faces joined across removed
    edges.  Never mutated or flipped; re-triangulating means keeping
    the current triangulation."""

    triangulation: object
    kept_edges: tuple
    removed_edges: tuple
    face_groups: tuple

    @property
    def kept_labels(self) -> tuple:
        return tuple(self.triangulation.edge_label(e) for e in self.kept_edges)


def extract_tessellation(m: DecoratedMetric, tol: float = 1e-9, geoms=None) -> Tessellation:
    """Drop all edges with |weight| <= tol and group faces across them.
    Raises NotDelaunay if any weight is below -tol."""
    if geoms is None:
        geoms = face_geometries(m)
    tri = m.triangulation
    weights = edge_weights(m, geoms)
    offending = [tri.edge_label(e) for e in range(tri.edge_count) if weights[e] < -tol]
    if offending:
        raise NotDelaunay(f"negative edge weights at {offending}")
    kept = tuple(e for e in range(tri.edge_count) if weights[e] > tol)
    removed = tuple(e for e in range(tri.edge_count) if weights[e] <= tol)
    uf = _UnionFind(range(tri.face_count))
    for e in removed:
        (f, _), (g, _) = tri.edge_sides(e)
        uf.union(f, g)
    groups: dict = {}
    for f in range(tri.face_count):
        groups.setdefault(uf.find(f), []).append(f)
    face_groups = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    return Tessellation(tri, kept, removed, face_groups)


# -- spherical support function -------------------------------------------------

def _face_support_max(geom) -> float:
    """Maximum of <x, C> over the realized face, where C is the affine
    representative of the face-circle.  1/max is the face minimum of
    the support function.  Candidates: the vertices, critical points on
    the edge arcs, and the direction of C itself when it lies inside
    the face (there 1/<x, C> equals the face-circle radius cosine)."""
    lift = geom.face_lift
    if abs(lift[3]) < 1e-14:
        return math.inf  # great-circle face circle: support minimum 0
    c_aff = lift[:3] / lift[3]
    best = max(float(np.dot(p, c_aff)) for p in geom.positions)
    for s in range(3):
        a, b = geom.positions[s], geom.positions[(s + 1) % 3]
        l = geom.lengths[s]
        fa, fb = float(np.dot(a, c_aff)), float(np.dot(b, c_aff))
        t = math.atan2(fb - fa * math.cos(l), fa * math.sin(l)) / l
        if 0.0 < t < 1.0:
            x = (math.sin((1.0 - t) * l) * a + math.sin(t * l) * b) / math.sin(l)
            best = max(best, float(np.dot(x, c_aff)))
    center = c_aff / np.linalg.norm(c_aff)
    inside = True
    for s in range(3):
        a, b = geom.positions[s], geom.positions[(s + 1) % 3]
        apex = geom.positions[(s + 2) % 3]
        n = np.cross(a, b)
        if float(np.dot(apex, n)) < 0:
            n = -n
        if float(np.dot(center, n)) < 0:
            inside = False
            break
    if inside:
        best = max(best, float(np.linalg.norm(c_aff)))
    return best


def support_minimum(m: DecoratedMetric, geoms=None) -> float:
    """Minimum over the surface of the piecewise support function of the
    lifted face-circles (spherical background only).  Each flip of a
    strictly non-Delaunay edge increases this quantity, which bounds
    the number of flips."""
    if m.background is not Background.SPHERICAL:
        raise ValueError("the support function is defined for spherical metrics")
    if geoms is None:
        geoms = face_geometries(m)
    return min(1.0 / _face_support_max(g) for g in geoms)
