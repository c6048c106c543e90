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
from .errors import (
    BadParameters, DegenerateTriangle, FlipBoundExceeded, NotDelaunay, ResultInvalid
)
from .metric import DecoratedMetric, check_valid, validate
from .surface import _UnionFind
from .trig import Background

#: relative tolerance of the flip strictness test
FLIP_TOL = 1e-12


def face_geometries(m: DecoratedMetric) -> list:
    """TriangleGeometry per face, from the scalar kernel face by face.

    The metric is checked once as a whole: any diagnostic of
    ``metric.validate`` raises DegenerateTriangle naming them all.  Each
    edge's orthogonal section is then evaluated once
    (``trig.edge_section``) and read by both faces at the edge.  Callers
    that read arrays rather than per-face objects use ``face_arrays``,
    which gives the same floats.  A valid metric whose kernel call
    overflows (a hyperbolic length above about 710) or divides by zero
    (hyperbolic sides of 356 or more, where a corner angle rounds to 0)
    raises ResultInvalid naming the first such edge, else face."""
    _gate(m)
    bg, tri = m.background, m.triangulation
    lengths, radii = m.lengths.tolist(), m.radii.tolist()
    sections, geoms = [], []
    try:
        for length, (i, j) in zip(lengths, tri.edge_endpoint_ids):
            sections.append(trig.edge_section(bg, length, radii[i], radii[j]))
        for (a, b, c), (u, v, w) in zip(tri.face_edge_ids, tri.face_vertex_ids):
            geoms.append(trig.face_circle(
                bg, (lengths[a], lengths[b], lengths[c]), (radii[u], radii[v], radii[w]),
                (sections[a], sections[b], sections[c]),
            ))
    except (OverflowError, ZeroDivisionError) as ex:  # name the first edge, else face
        e = len(sections)
        at = f"edge {tri.edge_label(e)}" if e < tri.edge_count else f"face {len(geoms)}"
        fails = "overflows" if isinstance(ex, OverflowError) else "divides by zero"
        raise ResultInvalid(f"{at}: the face kernel {fails} ({ex})", [str(ex)]) from None
    return geoms


def face_arrays(m: DecoratedMetric) -> trig.FaceArrays:
    """What ``face_geometries`` computes, as ``F x 3`` arrays from the
    array kernel ``trig.face_circles``, behind the same gate.  On a
    metric that ``metric.validate`` has already seen, such as an output
    of ``decoration_from_heights``, the gate is a lookup."""
    _gate(m)
    tri = m.triangulation
    return trig.face_circles(
        m.background, m.lengths, m.radii,
        tri.face_edge_array, tri.face_vertex_array, tri.edge_endpoint_array,
    )


def _gate(m: DecoratedMetric) -> None:
    bad = validate(m)
    if bad:
        raise DegenerateTriangle("; ".join(bad))


def weight_denominators(m: DecoratedMetric, faces: trig.FaceArrays) -> np.ndarray:
    """cos/cosh/1(r_sec) * sin/sinh/id(l) of every edge: the denominator
    of the decorated cotan weight's product form, which ``edge_weights``
    and ``solver.angle_jacobian`` share.  ``faces`` holds the face
    geometries of ``m``; the section radius is read at each edge's side
    0, as both faces at an edge hold the same one bit for bit."""
    bg = m.background
    if bg is Background.EUCLIDEAN:
        return m.lengths  # 1 * l
    sin, cos = trig.SIN_COS[bg]
    rho = faces.r_section.ravel()[m.triangulation.edge_side_array[:, 0]]
    return trig.each(cos, rho) * trig.each(sin, m.lengths)


def edge_weights(m: DecoratedMetric, geoms: trig.FaceArrays | None = None) -> np.ndarray:
    """Decorated cotan weight of every edge:
    (cot alpha^k + cot alpha^l) * tan/tanh/id(r_sec) / sin/sinh/id(l),
    with alpha the angle at which a face-circle meets the edge,
    evaluated in the equivalent product form
    (T(d^k) + T(d^l)) / (cos/cosh/1(r_sec) * sin/sinh/id(l))
    which stays finite when the vertex circles of the edge are tangent
    (cot alpha diverges but T(d) = sin/sinh/id(r_sec) cot alpha does not).

    ``geoms`` holds the face geometries of ``m``; without them ``m`` is
    checked and evaluated by ``face_arrays``."""
    if geoms is None:
        geoms = face_arrays(m)
    sides = m.triangulation.edge_side_array
    d = geoms.d_tangent.ravel()
    return (d[sides[:, 0]] + d[sides[:, 1]]) / weight_denominators(m, geoms)


def is_local_delaunay(m: DecoratedMetric, e: int, geoms=None) -> bool:
    """d-sum form of the local Delaunay test, with the isosceles,
    concave-quad, and self-glued-quad short circuits: the d-sum may
    fall below zero by ``FLIP_TOL`` relative to its terms."""
    tri = m.triangulation
    if tri.is_self_glued_quad(e):
        return True
    if geoms is None:
        geoms = face_geometries(m)
    (f, s), (g, t) = tri.edges[e]
    gf, gg = geoms[f], geoms[g]
    # angle sums at the two edge endpoints within the quad
    if gf.angles[s] + gg.angles[(t + 1) % 3] >= math.pi:
        return True
    if gf.angles[(s + 1) % 3] + gg.angles[t] >= math.pi:
        return True
    a, b = gf.d_tangent[s], gg.d_tangent[t]
    return a + b >= -FLIP_TOL * (1.0 + abs(a) + abs(b))


def flip_edge(m: DecoratedMetric, e: int):
    """Geometric edge flip: new diagonal length from the quad, then the
    combinatorial surgery.  Returns (metric, FlipResult, new_length);
    every edge and vertex keeps its id, so only ``lengths[e]`` moves."""
    (f, s), (g, t) = m.triangulation.edges[e]
    t1, t2 = _rotated_triangle(m.face_triangle(f), s), _rotated_triangle(m.face_triangle(g), t)
    return _flip(m, e, t1, t2)


def _flip(m: DecoratedMetric, e: int, t1, t2):
    """``flip_edge`` given the quad triangles (a, b, c) and (b, a, d) of
    ``e``, each rotated to start at its side of ``e``."""
    new_len = trig.diagonal_length(m.background, t1, t2)
    fr = m.triangulation.flip(e)
    lengths = m.lengths.copy()
    lengths[e] = new_len
    lengths.flags.writeable = False  # the metric keeps it as it is
    return DecoratedMetric(fr.triangulation, m.background, lengths, m.radii), fr, new_len


def _rotated_triangle(t, s: int) -> trig.DecoratedTriangle:
    """Triangle ``t`` (a DecoratedTriangle or TriangleGeometry) with its
    slot ``s`` moved to slot 0."""
    return trig.DecoratedTriangle(
        t.background, t.lengths[s:] + t.lengths[:s], t.radii[s:] + t.radii[:s]
    )


@dataclass(frozen=True)
class FlipRecord:
    edge_label: str
    new_length: float
    support_min: float | None = None


@dataclass
class FlipLog:
    """Flip trace plus the vertex relabeling map (vertex orbit index of
    the input metric -> vertex orbit index of the output): flips keep
    ids, so this is the one canonical relabeling after the last flip.

    ``geoms`` is the TriangleGeometry of every face of the output
    metric, indexed by its face ids: field for field what
    ``face_geometries`` computes on that metric.  That holds bit for
    bit because an edge's section, and which side ``trig.face_circle``
    lets read the complemented foot, depend only on its length and
    endpoint radii, not on labels.  It describes the returned metric
    only; any later change of lengths, radii or triangulation makes it
    stale.

    ``sweeps`` is always 1: the one worklist pass of
    ``flip_to_delaunay``.  It stays for the benchmark's counters.
    """

    records: list = field(default_factory=list)
    initial_support_min: float | None = None
    sweeps: int = 0
    vertex_map: list = field(default_factory=list)
    geoms: list = field(default_factory=list)

    @property
    def flip_count(self) -> int:
        return len(self.records)


def flip_to_delaunay(m: DecoratedMetric, track_support: bool | None = None):
    """Flip until every edge is local Delaunay: one FIFO worklist that
    starts with every edge.  ``is_local_delaunay`` reads only an edge's
    two faces, so a flip can change the check of just the five edges of
    the two faces it rebuilds: it re-enqueues the four quad sides, and
    checks the new diagonal at once, enqueueing it only if it fails
    (flipping a violating edge makes it local Delaunay, so in exact
    arithmetic it never does).  An empty queue thus means every edge
    passed on the current geometry.  The decorated surface is
    unchanged; only the triangulation and the induced edge lengths
    move.

    Returns ``(metric, FlipLog)``.  For spherical metrics the log
    records the support-function minimum after every flip, the
    monotone quantity behind the termination proof.  Faces outside a
    flipped quad keep their ids and slots, so only the two rebuilt
    faces get a new geometry and a new support value per flip, and
    their triangles were checked by ``trig.diagonal_length``.  A flip
    step reads the floats it holds: the two quad triangles are the
    held geometries of its faces, rotated to the flipped edge, and the
    rebuilt faces take their lengths and radii from those and the new
    diagonal, so no step reads the metric's arrays.  Of their five
    edges only the new diagonal gets its section evaluated
    (``trig.edge_section``): each quad side keeps its length and
    endpoint radii, and its section is read off the face geometries it
    had before the flip (``_held_section``).  So a call evaluates
    ``E + flip_count`` sections and ``F + 2 flip_count`` face circles.

    Flips keep every edge and vertex id and the queue visits edges in
    canonical order; after flips the output is relabeled canonically
    once, and without any the input is returned as it is.  An invalid
    input raises ``check_valid``'s ResultInvalid.
    """
    check_valid(m, "input of flip_to_delaunay")
    geoms = face_geometries(m)
    if track_support is None:
        track_support = m.background is Background.SPHERICAL
    tri = m.triangulation
    log = FlipLog(sweeps=1, vertex_map=list(range(tri.vertex_count)))
    supports = []  # per-face support minima, refreshed on rebuilt faces
    if track_support:
        log.initial_support_min = support_minimum(m, geoms, per_face=supports)
    max_flips = max(200, 40 * tri.edge_count)

    queue = deque(sorted(range(tri.edge_count), key=tri.edges.__getitem__))  # canonical order
    queued = set(queue)
    while queue:
        e = queue.popleft()
        queued.discard(e)
        if is_local_delaunay(m, e, geoms=geoms):
            continue
        if log.flip_count >= max_flips:
            raise FlipBoundExceeded(
                "flip algorithm exceeded the safety bound; geometry inconsistent"
            )
        before = m.triangulation
        label = before.edge_label(e)
        (f, s), (g, t) = before.edges[e]
        t1, t2 = _rotated_triangle(geoms[f], s), _rotated_triangle(geoms[g], t)
        m, fr, new_len = _flip(m, e, t1, t2)
        # Triangulation.flip's layout: f = (a, d, c) on edges (ad, e, ca),
        # g = (d, b, c) on edges (db, bc, e)
        (_, l_bc, l_ca), (r_a, r_b, r_c) = t1.lengths, t1.radii
        (_, l_ad, l_db), r_d = t2.lengths, t2.radii[2]
        bc, ca, ad, db = fr.quad_boundary_edges
        held = {b: _held_section(before, geoms, b) for b in fr.quad_boundary_edges}
        diagonal = trig.edge_section(m.background, new_len, r_d, r_c)
        geoms[f] = trig.face_circle(
            m.background, (l_ad, new_len, l_ca), (r_a, r_d, r_c), (held[ad], diagonal, held[ca])
        )
        geoms[g] = trig.face_circle(
            m.background, (l_db, l_bc, new_len), (r_d, r_b, r_c), (held[db], held[bc], diagonal)
        )
        for b in fr.quad_boundary_edges:
            if b not in queued:
                queue.append(b)
                queued.add(b)
        if not is_local_delaunay(m, e, geoms=geoms):  # the new diagonal, at once
            queue.append(e)
            queued.add(e)
        support = None
        if track_support:
            supports[f] = 1.0 / _face_support_max(geoms[f])
            supports[g] = 1.0 / _face_support_max(geoms[g])
            support = min(supports)
        log.records.append(FlipRecord(label, new_len, support))
    log.geoms = geoms  # indexed by face, which relabeling leaves alone
    if log.records:
        m, log.vertex_map = _canonical_metric(m)
    return m, log


def _held_section(tri, geoms, b: int) -> tuple:
    """The ``trig.edge_section`` of edge ``b`` as a face side holds it:
    ``trig.face_circle`` keeps the section's foot as it is on the side
    that starts at the endpoint with the smaller radius (on both on a
    tie), so ``geoms``, current on ``tri``, hold it bit for bit."""
    (f, s), (g, t) = tri.edges[b]
    held = geoms[f]
    if held.radii[s] > held.radii[(s + 1) % 3]:
        held, s = geoms[g], t
    return held.x_section[s], held.r_section[s]


def _canonical_metric(m: DecoratedMetric):
    """``m`` on canonical labels, and the map of its vertex ids to them."""
    tri, edge_map, vertex_map = m.triangulation.canonical()
    lengths = np.empty(tri.edge_count)
    lengths[edge_map] = m.lengths
    radii = np.empty(tri.vertex_count)
    radii[vertex_map] = m.radii
    return DecoratedMetric(tri, m.background, lengths, radii), vertex_map


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


def extract_tessellation(m: DecoratedMetric, tol: float = 1e-9, geoms=None) -> Tessellation:
    """Drop all edges with |weight| <= tol and group faces across them;
    ``geoms`` goes to ``edge_weights``.  Raises NotDelaunay if any
    weight is below -tol, and BadParameters if ``tol`` is not finite
    and non-negative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise BadParameters(f"tol must be finite and non-negative, got {tol!r}")
    tri = m.triangulation
    weights = edge_weights(m, geoms)
    offending = [tri.edge_label(e) for e in range(tri.edge_count) if weights[e] < -tol]
    if offending:
        raise NotDelaunay(f"negative edge weights at {offending}")
    kept = tuple(e for e in range(tri.edge_count) if weights[e] > tol)
    removed = tuple(e for e in range(tri.edge_count) if weights[e] <= tol)
    uf = _UnionFind(tri.face_count)
    for e in removed:
        (f, _), (g, _) = tri.edges[e]
        uf.union(f, g)
    groups: dict = {}
    for f in range(tri.face_count):
        groups.setdefault(uf.find(f), []).append(f)
    face_groups = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    return Tessellation(tri, kept, removed, face_groups)


# -- spherical support function -------------------------------------------------

def _face_support_max(geom) -> float:
    """Maximum of <x, C> over the face, where C = c / cos R_f is the
    affine representative of the face-circle with center c and radius
    R_f <= pi/2, so that <x, C> = cos |x c| / cos R_f.  1/max is the
    face minimum of the support function.

    Closed form in the face kernel's data.  For side s let d_s be the
    signed distance from c to the side (``d_tangent[s]`` is tan d_s)
    and x_s the distance from corner s to the foot of c, which is the
    center of the side's orthogonal section (``x_section[s]``).  Two
    right-angled triangles have their hypotenuse from c to corner P_s:
    one with legs d_s and x_s, through the foot, and one with legs R_f
    and r_s, through a point where the face-circle crosses vertex
    circle s at right angles.  So cos |c P_s| = cos x_s cos d_s =
    cos R_f cos r_s, and

        cos R_f = cos x_s cos d_s / cos r_s   (taken at corner 0),

    while at the foot on side s, <x, C> = cos d_s / cos R_f =
    cos r_s / cos x_s.  A foot never leaves its side
    (0 <= x_s <= l_s, as r_s + r_{s+1} <= l_s), so all three feet are
    points of the face.  The maximum is 1 / cos R_f when c lies in the
    face (every d_s >= 0).  Otherwise the face point nearest c is the
    foot on a side that separates c from the face, and the maximum is
    the largest of the three foot values.  A great-circle face-circle
    (cos R_f about 0) gives inf."""
    x, r, t = geom.x_section, geom.radii, geom.d_tangent
    cos_rf = math.cos(x[0]) / (math.cos(r[0]) * math.hypot(1.0, t[0]))
    if cos_rf < 1e-14:
        return math.inf  # support minimum 0
    if t[0] >= 0.0 and t[1] >= 0.0 and t[2] >= 0.0:
        return 1.0 / cos_rf
    return max(math.cos(r[s]) / math.cos(x[s]) for s in range(3))


def support_minimum(m: DecoratedMetric, geoms=None, per_face=None) -> float:
    """Minimum over the surface of the piecewise support function of the
    lifted face-circles (spherical background only).  Each flip of a
    strictly non-Delaunay edge increases this quantity, which bounds
    the number of flips.  A list passed as ``per_face`` receives the
    minimum on each face, in face order."""
    if m.background is not Background.SPHERICAL:
        raise ValueError("the support function is defined for spherical metrics")
    if geoms is None:
        geoms = face_geometries(m)
    values = [1.0 / _face_support_max(g) for g in geoms]
    if per_face is not None:
        per_face[:] = values
    return min(values)
