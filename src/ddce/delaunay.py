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
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import trig
from .errors import BadParameters, FlipBoundExceeded, NotDelaunay
from .metric import DecoratedMetric, check_valid, face_geometry, scalar_face_geometries
from .trig import Background

#: relative tolerance of the flip strictness test
FLIP_TOL = 1e-12


def face_geometries(m: DecoratedMetric) -> list:
    """TriangleGeometry per face, from the scalar kernel face by face
    (``metric.scalar_face_geometries``).

    The metric is checked once as a whole: an invalid one raises
    ``metric.check_valid``'s ResultInvalid, whose ``diagnostics`` are
    those of ``metric.validate``.  Callers that read arrays rather than
    per-face objects read ``DecoratedMetric.faces``, which holds the
    same floats.  A valid metric on which the kernel fails raises the
    ResultInvalid of ``scalar_face_geometries``, which names the first
    edge, else face, where it fails."""
    check_valid(m, "input of face_geometries")
    return scalar_face_geometries(m)


def weight_denominators(m: DecoratedMetric) -> np.ndarray:
    """cos/cosh/1(r_sec) * sin/sinh/id(l) of every edge: the denominator
    of the decorated cotan weight's product form, which ``edge_weights``
    and ``solver.angle_jacobian`` share.  The section radius is read off
    ``m.faces`` at each edge's side 0, as both faces at an edge hold the
    same one bit for bit."""
    bg = m.background
    if bg is Background.EUCLIDEAN:
        return m.lengths  # 1 * l
    rho = m.faces.r_section.ravel()[m.triangulation.edge_side_array[:, 0]]
    return bg.arrays.C(rho) * bg.arrays.S(m.lengths)


def edge_weights(m: DecoratedMetric) -> np.ndarray:
    """Decorated cotan weight of every edge:
    (cot alpha^k + cot alpha^l) * tan/tanh/id(r_sec) / sin/sinh/id(l),
    with alpha the angle at which a face-circle meets the edge,
    evaluated in the equivalent product form
    (T(d^k) + T(d^l)) / (cos/cosh/1(r_sec) * sin/sinh/id(l))
    which stays finite when the vertex circles of the edge are tangent
    (cot alpha diverges but T(d) = sin/sinh/id(r_sec) cot alpha does not).
    The face geometry is that of ``m.faces``, read behind its
    ``check_valid`` gate."""
    sides = m.triangulation.edge_side_array
    d = m.faces.d_tangent.ravel()
    return (d[sides[:, 0]] + d[sides[:, 1]]) / weight_denominators(m)


def is_local_delaunay(m: DecoratedMetric, e: int, geoms=None) -> bool:
    """d-sum form of the local Delaunay test, with the isosceles,
    concave-quad, and self-glued-quad short circuits: the d-sum may
    fall below zero by ``FLIP_TOL`` relative to its terms.  An edge id
    that ``Triangulation.check_edge`` refuses raises BadParameters."""
    tri = m.triangulation
    e = tri.check_edge(e)
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
    combinatorial surgery.  Returns ``(metric, new_length)``; every edge
    and vertex keeps its id, so only ``lengths[e]`` moves.  The quad's
    lengths and radii are read by id off ``Triangulation.quad``.  An
    edge id that ``Triangulation.check_edge`` refuses raises
    BadParameters, and an invalid input ``check_valid``'s
    ResultInvalid, since ``trig.diagonal_length`` checks only what the
    flip creates."""
    e = m.triangulation.check_edge(e)
    check_valid(m, "input of flip_edge")
    return _flip(m, e, m.lengths.tolist(), m.radii.tolist())[:2]


def _flip(m: DecoratedMetric, e: int, lengths: list, radii: list):
    """``flip_edge`` given the floats of ``m`` as lists, with the
    ``Triangulation.quad`` of ``e`` that it read as a third item: the
    new diagonal first, so a self-glued quad raises what
    ``trig.diagonal_length`` raises on it before the surgery refuses
    it."""
    quad = (bc, ca, ad, db), (_, _, c, d) = m.triangulation.quad(e)
    new_len = trig.diagonal_length(
        m.background, (lengths[e], lengths[bc], lengths[ca], lengths[ad], lengths[db]),
        (radii[c], radii[d]),
    )
    new_lengths = m.lengths.copy()
    new_lengths[e] = new_len
    new_lengths.flags.writeable = False  # the metric keeps it as it is
    flipped = DecoratedMetric(m.triangulation.flip(e), m.background, new_lengths, m.radii)
    return flipped, new_len, quad


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
    The face geometry of the output metric is on the metric itself
    (``DecoratedMetric.faces``).

    ``sweeps`` is always 1: the one worklist pass of
    ``flip_to_delaunay``.  It stays for the benchmark's counters.
    """

    records: list = field(default_factory=list)
    initial_support_min: float | None = None
    sweeps: int = 0
    vertex_map: list = field(default_factory=list)

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
    ``trig.diagonal_length`` checked what each flip created.  A flip
    step reads data by id from three lists, the metric's lengths, radii
    and edge sections (``DecoratedMetric.sections``), of which it sets
    ``lengths[e]`` and ``sections[e]`` after each flip: the quad's
    through the one ``Triangulation.quad`` read of ``_flip`` (as
    ``flip_edge``), which also gives the four quad sides, and the two
    rebuilt faces' from the new triangulation's rows, through the
    per-face helper of ``face_geometries`` (``metric.face_geometry``).
    Of their five edges only the new diagonal gets its section
    evaluated (``trig.edge_section``, at the quad's apex radii): each
    quad side keeps its length and endpoint radii, so its entry stands.
    So no flipped triangulation derives its endpoint table, and a call
    evaluates ``flip_count`` sections, ``E`` more on an input whose
    ``sections`` were not read yet, and ``F + 2 flip_count`` face
    circles.

    Flips keep every edge and vertex id and the queue visits edges in
    canonical order; after flips the output is relabeled canonically
    once, and without any the input is returned as it is.  The
    returned metric keeps the pass's per-face geometries, indexed by
    face, which relabeling leaves alone; its ``faces`` stacks them on
    first read (unless the input's ``faces`` was already read).  They
    equal what ``face_geometries`` computes on it bit for bit, because
    an edge's section, and which side ``trig.face_circle`` lets read
    the complemented foot, depend only on its length and endpoint
    radii, not on labels.  An invalid input raises ``check_valid``'s
    ResultInvalid.
    """
    check_valid(m, "input of flip_to_delaunay")
    geoms = face_geometries(m)
    if track_support is None:
        track_support = m.background is Background.SPHERICAL
    tri = m.triangulation
    # lengths[e] and sections[e] follow each flip
    lengths, radii, sections = m.lengths.tolist(), m.radii.tolist(), list(m.sections)
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
        label = m.triangulation.edge_label(e)
        m, new_len, (sides, (_, _, c, d)) = _flip(m, e, lengths, radii)
        lengths[e] = new_len
        sections[e] = trig.edge_section(m.background, new_len, radii[c], radii[d])
        after = m.triangulation
        (f, _), (g, _) = after.edges[e]  # the two rebuilt faces
        geoms[f] = face_geometry(m.background, after, f, lengths, radii, sections)
        geoms[g] = face_geometry(m.background, after, g, lengths, radii, sections)
        for b in sides:
            if b not in queued:
                queue.append(b)
                queued.add(b)
        if not is_local_delaunay(m, e, geoms=geoms):  # the new diagonal, at once
            queue.append(e)
            queued.add(e)
        support = None
        if track_support:
            supports[f] = 1.0 / _face_support_max(geoms[f], radii, after.face_vertex_ids[f])
            supports[g] = 1.0 / _face_support_max(geoms[g], radii, after.face_vertex_ids[g])
            support = min(supports)
        log.records.append(FlipRecord(label, new_len, support))
    if log.records:
        m, log.vertex_map = _canonical_metric(m)
    if "faces" not in vars(m):
        vars(m)["_flip_geometries"] = geoms  # stacked by m.faces on first read
    return m, log


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


def extract_tessellation(m: DecoratedMetric, tol: float = 1e-9) -> Tessellation:
    """Drop all edges with |weight| <= tol and group faces across them.
    Raises NotDelaunay if any weight is below -tol, and BadParameters
    if ``tol`` is not a finite and non-negative number (a bool is
    not)."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise BadParameters(f"tol must be finite and non-negative, got {tol!r}")
    tri = m.triangulation
    weights = edge_weights(m)
    offending = [tri.edge_label(e) for e in range(tri.edge_count) if weights[e] < -tol]
    if offending:
        raise NotDelaunay(f"negative edge weights at {offending}")
    kept = tuple(e for e in range(tri.edge_count) if weights[e] > tol)
    removed = tuple(e for e in range(tri.edge_count) if weights[e] <= tol)
    # each group is a walk across removed edges from its least face, so
    # the groups come out in the order of their least faces
    across = set(removed)
    reached = [False] * tri.face_count
    groups = []
    for start in range(tri.face_count):
        if reached[start]:
            continue
        reached[start] = True
        group = [start]
        for f in group:  # the walk appends to the list it runs over
            for e in tri.face_edge_ids[f]:
                if e in across:
                    for g, _ in tri.edges[e]:
                        if not reached[g]:
                            reached[g] = True
                            group.append(g)
        groups.append(tuple(sorted(group)))
    return Tessellation(tri, kept, removed, tuple(groups))


# -- spherical support function -------------------------------------------------

def _face_support_max(geom, radii, corners) -> float:
    """Maximum of <x, C> over the face, where C = c / cos R_f is the
    affine representative of the face-circle with center c and radius
    R_f <= pi/2, so that <x, C> = cos |x c| / cos R_f.  1/max is the
    face minimum of the support function.

    Closed form in the face kernel's data.  For side s let d_s be the
    signed distance from c to the side (``d_tangent[s]`` is tan d_s)
    and x_s the distance from corner s to the foot of c, which is the
    center of the side's orthogonal section (``x_section[s]``); r_s is
    the radius of corner s, read off the metric's ``radii`` at the
    face's vertex ids ``corners``.  Two right-angled triangles have
    their hypotenuse from c to corner P_s:
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
    x, t = geom.x_section, geom.d_tangent
    r = [radii[v] for v in corners]
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
        raise BadParameters("the support function is defined for spherical metrics")
    if geoms is None:
        geoms = face_geometries(m)
    radii = m.radii.tolist()
    values = [
        1.0 / _face_support_max(g, radii, corners)
        for g, corners in zip(geoms, m.triangulation.face_vertex_ids)
    ]
    if per_face is not None:
        per_face[:] = values
    return min(values)
