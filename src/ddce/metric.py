"""Decorated metrics on a whole surface and their conformal structure.

A decorated metric assigns a length to every edge orbit and a
vertex-circle radius to every vertex orbit of a triangulated surface.
Vertices with radius zero are *ideal* (flag ``eps = 0``), vertices with
positive radius *hyperideal* (``eps = 1``).  A metric is valid when
every vertex radius is admissible, the two vertex circles of every
edge are disjoint (tangency allowed), and the side lengths of every
face make one (``trig.face_defect``).  ``validate`` states each
condition once, on the vertex, edge or face it constrains, and
reports one line per violated condition.

Two metrics are discretely conformally equivalent (DCE) when they are
related by logarithmic scale factors ``u`` acting on the Minkowski
lifts of the vertex circles.  The equivalence class is captured by the
fundamental invariant: per-edge lambda-lengths together with the eps
flags.  Lambda-lengths of edges with two hyperideal endpoints satisfy
``cosh(lambda) = I`` for the inversive distance ``I``; at ideal
vertices they are measured against auxiliary horocycles and therefore
carry a gauge.  The canonical gauge used by ``heights_from_decoration``
puts every ideal height at zero; a different gauge can be supplied
explicitly wherever heights enter.

Heights reparametrize conformal classes: ``h_i`` is the truncated
distance from the apex of the hyperideal pyramid (spherical), prism
(hyperbolic), or horoprism (Euclidean) over a face to the vertex ``i``.
A conformal change keeps the invariant and moves only the heights:
scaling by ``e^u`` multiplies ``tau(-eps_i, h_i)`` by ``e^-u_i``, so an
ideal or Euclidean height moves to ``h_i - u_i``, and
``conformal_change`` is ``decoration_from_heights`` at the moved
heights.
The maps between heights and decoration weights (``omega_map`` /
``omega_inverse``) share the single primitive

    tau_y(x) = (exp(x) + y exp(-x)) / 2,   y in {-1, 0, 1}.

A ``Heights`` is one chart: it owns the background, the gauge radius
and the ideal/hyperideal flags of its heights, and the maps that read
it take them from there; an ``Invariant`` owns its triangulation.
Where two of them meet (``lambda_lengths``, ``decoration_from_heights``)
data that disagree raise NotComparable.

The height maps (``decoration_from_heights``, ``omega_map``,
``omega_inverse``) evaluate a whole surface per call: numpy or plain
float arithmetic with every transcendental a scalar ``math`` call, so
the floats are those of a vertex-by-vertex and edge-by-edge
evaluation, bit for bit.  ``decoration_from_heights`` rejects an
invalid input at one gate, the ``validate`` of its result, which names
every failing vertex, edge and face; the omega maps raise at the first
failing vertex.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import trig
from .errors import (
    BadParameters,
    DDCEError,
    HeightsOutOfDomain,
    NotComparable,
    ResultInvalid,
    ScaleOutOfDomain,
    WeightOutOfRange,
)
from .surface import Triangulation
from .trig import Background


def tau(y: int, x: float) -> float:
    """(e^x + y e^-x) / 2 with y in {-1, 0, 1}."""
    if y == 0:
        return math.exp(x) / 2.0
    return (math.exp(x) + y * math.exp(-x)) / 2.0


def stable_acosh(x: float) -> float:
    """acosh via log1p, accurate for arguments just above 1."""
    t = x - 1.0
    if t < 0:
        raise BadParameters(f"acosh argument {x} below 1")
    return math.log1p(t + math.sqrt(t * (t + 2.0)))


def _acosh_snapped(x: float) -> float:
    """acosh(max(1, x)), snapping to 0 when x - 1 is below the rounding
    noise of x itself: tangency is a supported boundary case and should
    evaluate to an exact zero lambda-length."""
    t = max(1.0, x) - 1.0
    if t <= 4.0 * 2.220446049250313e-16 * abs(x):
        return 0.0
    return stable_acosh(max(1.0, x))


def _each_or_nan(fn, x) -> np.ndarray:
    """``trig.each(fn, x)``, with NaN wherever the scalar call overflows
    (raises OverflowError): an exponential that has no float value."""
    try:
        return trig.each(fn, x)
    except OverflowError:
        return trig.each(partial(_nan_on_overflow, fn), x)


def _nan_on_overflow(fn, x: float) -> float:
    try:
        return fn(x)
    except OverflowError:
        return math.nan


def default_reference_radius(background: Background) -> float:
    """Free gauge radius of the apex sphere: sinh R = 1 (hyperbolic),
    cosh R = sqrt(2) (spherical), chosen to make tau arithmetic exact."""
    if background is Background.HYPERBOLIC:
        return math.asinh(1.0)
    if background is Background.SPHERICAL:
        return math.acosh(math.sqrt(2.0))
    raise BadParameters("reference radius is defined for curved backgrounds only")


@dataclass(frozen=True, eq=False)
class DecoratedMetric:
    """Per-edge lengths and per-vertex radii on a triangulation, held as
    read-only float arrays, so that ``validate`` need look only once.
    An array that is already read-only, float64 and owns its data is
    kept as it is, so flips share their parent's radii; anything else
    is copied.  Equality and hashing are by identity, as for
    ``Triangulation``; ``Invariant`` and ``Heights`` likewise."""

    triangulation: Triangulation
    background: Background
    lengths: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        for name in ("lengths", "radii"):
            values = getattr(self, name)
            if not (
                type(values) is np.ndarray and values.dtype == np.float64
                and values.flags.owndata and not values.flags.writeable
            ):
                values = np.array(values, dtype=float)
                values.flags.writeable = False
                object.__setattr__(self, name, values)
        if self.lengths.shape != (self.triangulation.edge_count,):
            raise BadParameters("length array does not match edge orbits")
        if self.radii.shape != (self.triangulation.vertex_count,):
            raise BadParameters("radius array does not match vertex orbits")

    @cached_property
    def _diagnostics(self) -> tuple:
        """What ``validate`` reports, computed on first read."""
        return tuple(_diagnose(self))

    @cached_property
    def faces(self) -> trig.FaceArrays:
        """The face geometry that whole-surface arithmetic reads: the
        angles, section radii and face-circle tangents of every face (the
        lengths and radii are the metric's own).  Computed on first read
        behind ``check_valid``: the array kernel ``trig.face_circles``,
        or, on a metric that ``delaunay.flip_to_delaunay`` returned, the
        per-face list its flip pass held, stacked.  A third way fills it ahead of
        the first read: ``fill_faces`` evaluates the metrics of a
        transition's rows in one ``face_circles`` call.  All of them give
        the floats of ``delaunay.face_geometries`` bit for bit.  Where the
        array kernel overflows, ``scalar_face_geometries`` takes over, and
        it raises the same overflow as a ResultInvalid that names the edge
        or face."""
        check_valid(self, "input of faces")
        held = vars(self).pop("_flip_geometries", None)
        if held is None:
            tri = self.triangulation
            try:
                return trig.face_circles(
                    self.background, self.lengths, self.radii,
                    tri.face_edge_array, tri.face_vertex_array, tri.edge_endpoint_array,
                )
            except OverflowError:  # the scalar kernel overflows too, and names where
                held = scalar_face_geometries(self)
        return trig.FaceArrays.stack(held)

    @property
    def eps(self) -> np.ndarray:
        """1 for hyperideal vertices (r > 0), 0 for ideal ones."""
        return (self.radii > 0).astype(int)


@dataclass(frozen=True, eq=False)
class Invariant:
    """Fundamental discrete conformal invariant data: lambda-lengths per
    edge plus ideal/hyperideal flags.  Carries no background tag; the
    same invariant is shared by metrics in all three geometries."""

    triangulation: Triangulation
    lam: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "eps", np.asarray(self.eps, dtype=int))


@dataclass(frozen=True, eq=False)
class Heights:
    """Apex heights per vertex: one chart of the height space, with the
    background and gauge radius R of the apex sphere they refer to and
    the ideal/hyperideal flags of their vertices.  The maps that read
    heights take these from here (``omega_map``,
    ``decoration_from_heights``, ``transition.cusp_heights``), or check
    them against the metric they meet (``lambda_lengths``)."""

    h: np.ndarray
    background: Background
    reference_radius: float
    eps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        object.__setattr__(self, "eps", np.asarray(self.eps, dtype=int))


def _same_ids(tri: Triangulation, other: Triangulation) -> bool:
    """Whether two triangulations have the same edges and vertices under
    the same ids (equal ``edges`` and ``face_vertex_ids``), so that data
    keyed by id on one hold for the other; the same object first."""
    return other is tri or (other.edges, other.face_vertex_ids) == (tri.edges, tri.face_vertex_ids)


# -- validation ----------------------------------------------------------------

def validate(m: DecoratedMetric) -> list:
    """Diagnostics for every violated condition, one line each on the
    object it constrains; empty iff the metric is valid.  The
    conditions: a vertex radius is admissible (``>= 0``, spherical
    ``< pi/2``); the vertex circles of an edge are disjoint
    (``r_i + r_j <= l``, tangency allowed; loop edges read
    ``2 r_i <= l_ii``); the side lengths of a face make one
    (``trig.face_defect``, which words its line).  A length of 0 or
    less, or a spherical one of pi or more, fails a face condition.
    Where a length or radius is not finite, only that is reported.
    Computed on the first call; later calls return a new list of the
    same strings."""
    return list(m._diagnostics)


def _diagnose(m: DecoratedMetric) -> list:
    tri = m.triangulation
    # count_nonzero and nonzero()[0] in place of any(), all() and
    # flatnonzero, which cost several times more on the small arrays of
    # the command line's surfaces
    nonfinite_l, nonfinite_r = ~np.isfinite(m.lengths), ~np.isfinite(m.radii)
    if np.count_nonzero(nonfinite_l) or np.count_nonzero(nonfinite_r):
        # every other condition is meaningless on NaN or infinite data
        return [
            f"edge {tri.edge_label(e)}: length {m.lengths[e]} not finite"
            for e in nonfinite_l.nonzero()[0]
        ] + [
            f"vertex {tri.vertex_label(v)}: radius {m.radii[v]} not finite"
            for v in nonfinite_r.nonzero()[0]
        ]
    # one vectorised gate per condition; messages are built only for the
    # flagged vertices, edges and faces, in index order
    r, l = m.radii, m.lengths
    spherical = m.background is Background.SPHERICAL
    bad_radius = ~((0 <= r) & (r < math.pi / 2)) if spherical else r < 0
    ends = tri.edge_endpoint_array
    out = [
        f"vertex {tri.vertex_label(v)}: spherical radius {r[v]} outside [0, pi/2)"
        if spherical
        else f"vertex {tri.vertex_label(v)}: negative radius {r[v]}"
        for v in bad_radius.nonzero()[0]
    ]
    with np.errstate(over="ignore"):  # radii whose sum overflows to inf exceed any length
        intersect = r[ends[:, 0]] + r[ends[:, 1]] > l
    for e in intersect.nonzero()[0]:
        i, j = tri.edge_endpoints(e)
        out.append(
            f"edge {tri.edge_label(e)}: vertex circles intersect "
            f"(r_i + r_j = {float(r[i]) + float(r[j])} > l = {l[e]})"
        )
    lengths = l[tri.face_edge_array]
    for f in trig.degenerate_rows(m.background, lengths).nonzero()[0]:
        out.append(f"face {f}: {trig.face_defect(m.background, *lengths[f].tolist())}")
    return out


def check_valid(m: DecoratedMetric, context: str = "metric") -> None:
    bad = validate(m)
    if bad:
        raise ResultInvalid(f"{context} is not a valid decorated metric", bad)


# -- the scalar face kernel on a surface ------------------------------------------

def face_geometry(bg: Background, tri, f: int, lengths, radii, sections):
    """``trig.face_circle`` of face ``f`` of ``tri``, with the lengths,
    radii and edge sections of its sides and corners read by id."""
    a, b, c = tri.face_edge_ids[f]
    u, v, w = tri.face_vertex_ids[f]
    return trig.face_circle(
        bg, (lengths[a], lengths[b], lengths[c]), (radii[u], radii[v], radii[w]),
        (sections[a], sections[b], sections[c]),
    )


def scalar_face_geometries(m: DecoratedMetric) -> list:
    """TriangleGeometry per face of ``m``, unchecked: each edge's
    orthogonal section is evaluated once (``trig.edge_section``) and
    read by both faces at the edge (``face_geometry``).

    This is the one rule for a face kernel that fails on a metric: a
    call that overflows or divides by zero raises ResultInvalid naming
    the first such edge, else face.  A hyperbolic length above about
    710 overflows, and so do Euclidean sides above about 1e154, whose
    corner angle is not a number (``trig.interior_angles``); hyperbolic
    sides of 356 or more make a corner angle round to 0, and
    ``trig.face_circle`` divides by its sine.  ``DecoratedMetric.faces``
    and ``solver.cone_angles`` fall back to it where the array kernel
    overflows, so they name the same edge or face."""
    bg, tri = m.background, m.triangulation
    lengths, radii = m.lengths.tolist(), m.radii.tolist()
    sections, geoms = [], []
    try:
        for length, (i, j) in zip(lengths, tri.edge_endpoint_ids):
            sections.append(trig.edge_section(bg, length, radii[i], radii[j]))
        for f in range(tri.face_count):
            geoms.append(face_geometry(bg, tri, f, lengths, radii, sections))
    except (OverflowError, ZeroDivisionError, ResultInvalid) as ex:  # name the first edge, else face
        e = len(sections)
        at = f"edge {tri.edge_label(e)}" if e < tri.edge_count else f"face {len(geoms)}"
        fails = "divides by zero" if isinstance(ex, ZeroDivisionError) else "overflows"
        raise ResultInvalid(f"{at}: the face kernel {fails} ({ex})", [str(ex)]) from None
    return geoms


def fill_faces(metrics: list) -> None:
    """Fill the ``faces`` cache of metrics on one triangulation and
    background, none of them read yet, with one ``trig.face_circles``
    call over their disjoint union: metric ``k`` holds the edges,
    vertices and faces of the surface offset by ``k`` times their
    counts, and its ``faces`` are the ``k``-th block of ``F`` rows of
    the result.  The kernel maps its operations value by value, so each
    metric gets the floats of its own ``faces`` bit for bit.  Where a
    metric is invalid or the pass raises, no cache is filled, and each
    metric's ``faces`` raises its own error when read."""
    if not metrics:
        return
    tri, bg, k = metrics[0].triangulation, metrics[0].background, len(metrics)
    V, E = tri.vertex_count, tri.edge_count
    step = np.arange(k).reshape(-1, 1, 1)  # metric k's ids follow those of the metrics before it
    tables = [(ids + n * step).reshape(-1, ids.shape[1]) for ids, n in (
        (tri.face_edge_array, E), (tri.face_vertex_array, V), (tri.edge_endpoint_array, V))]
    lengths = np.concatenate([m.lengths for m in metrics])
    radii = np.concatenate([m.radii for m in metrics])
    try:
        for m in metrics:
            check_valid(m, "input of faces")
        faces = trig.face_circles(bg, lengths, radii, *tables)
    except (DDCEError, ArithmeticError):
        return
    blocks = (x.reshape(k, -1, 3) for x in (faces.angles, faces.r_section, faces.d_tangent))
    for m, *arrays in zip(metrics, *blocks):
        vars(m)["faces"] = trig.FaceArrays(*arrays)


# -- conformal change ----------------------------------------------------------

def conformal_change(m: DecoratedMetric, u) -> DecoratedMetric:
    """Metric obtained by applying logarithmic scale factors at the
    vertices: the metric that ``decoration_from_heights`` builds from
    the invariant of ``m`` at its heights moved by ``u`` (see
    ``_scaled_heights``).  The fundamental invariant is kept (up to
    horocycle gauge at ideal vertices, whose canonical lambda-lengths
    shift by ``u``).  Vertices with ``u_i == 0.0`` keep their radii, and
    edges between two such vertices their lengths, bit for bit; a
    tangent edge gets exactly ``r_i + r_j`` of the returned radii.

    Raises ScaleOutOfDomain when a spherical circle would pass a
    hemisphere, and ResultInvalid when the moved heights leave the
    domain of ``decoration_from_heights`` or an exponential overflows.
    """
    check_valid(m, "input of conformal_change")
    tri = m.triangulation
    u = np.asarray(u, dtype=float)
    if u.shape != (tri.vertex_count,):
        raise BadParameters("scale factor array does not match vertex orbits")
    try:
        inv = lambda_lengths(m)
        moved = decoration_from_heights(
            tri, inv, Heights(_scaled_heights(m, u.tolist()), m.background, 0.0, inv.eps)
        )
    except (HeightsOutOfDomain, OverflowError) as ex:
        raise ResultInvalid("conformal change leaves the metric space", [str(ex)]) from None
    keep, hyper = u == 0.0, inv.eps == 1
    i, j = tri.edge_endpoint_array.T
    radii = np.where(keep, m.radii, moved.radii)
    tangent = hyper[i] & hyper[j] & (inv.lam == 0.0)
    lengths = np.where(tangent, radii[i] + radii[j], moved.lengths)
    result = DecoratedMetric(tri, m.background, np.where(keep[i] & keep[j], m.lengths, lengths), radii)
    diagnostics = validate(result)
    if diagnostics:
        raise ResultInvalid("conformally changed metric is invalid", diagnostics)
    return result


# -- heights and lambda-lengths -------------------------------------------------

def _scaled_heights(m: DecoratedMetric, u: list) -> np.ndarray:
    """Apex heights of ``m`` with its vertex circles scaled by ``e^u``,
    in the canonical gauge, as one pass of scalar ``math`` arithmetic
    over plain floats, vertex by vertex.

    The scaling multiplies ``tau(-eps, h)`` by ``e^-u``: a hyperideal
    height is ``asinh(e^-u / sinh r)`` (hyperbolic) or
    ``acosh(e^-u / sin r)`` (spherical); a Euclidean one is
    ``-log r - u`` and an ideal one ``0 - u``.  At ``u = 0`` these are
    the heights of ``m`` themselves, bit for bit, since
    ``e^-0.0 = 1.0`` and ``x - 0.0 = x``.  Raises ScaleOutOfDomain
    naming the spherical vertex with the least ``e^-u / sin r`` when
    that is below 1, and OverflowError where ``e^-u`` or ``sinh r``
    overflows."""
    bg = m.background
    radii = m.radii.tolist()
    h = []
    for r, x in zip(radii, u):
        if r <= 0:
            h.append(0.0 - x)
        elif bg is Background.SPHERICAL:
            h.append(math.exp(-x) / math.sin(r))  # cosh h, its acosh taken below
        elif bg is Background.HYPERBOLIC:
            h.append(math.asinh(math.exp(-x) / math.sinh(r)))
        else:
            h.append(-math.log(r) - x)
    if bg is Background.SPHERICAL:
        over = [v for v, r in enumerate(radii) if r > 0 and h[v] < 1.0]
        if over:
            worst = min(over, key=h.__getitem__)
            raise ScaleOutOfDomain(
                f"vertex {m.triangulation.vertex_label(worst)}: e^-u / sin r = {h[worst]} < 1"
            )
        h = [stable_acosh(c) if r > 0 else c for r, c in zip(radii, h)]
    return np.array(h, dtype=float)


def heights_from_decoration(m: DecoratedMetric) -> Heights:
    """Apex heights determined by the radii.  Ideal vertices are gauged
    to height zero (canonical auxiliary horosphere).

    Raises ResultInvalid naming the vertex with the largest radius when
    a hyperbolic radius is too large for ``sinh`` (above about 710)."""
    bg = m.background
    try:
        h = _scaled_heights(m, [0.0] * m.triangulation.vertex_count)
    except OverflowError:
        # at u = 0 the only overflow is sinh r, and the largest r overflows
        v = int(np.argmax(m.radii))
        raise ResultInvalid(
            f"vertex {m.triangulation.vertex_label(v)}: sinh of radius {m.radii[v]} overflows", []
        ) from None
    reference_radius = default_reference_radius(bg) if bg is not Background.EUCLIDEAN else 0.0
    return Heights(h, bg, reference_radius, m.eps)


def lambda_lengths(m: DecoratedMetric, heights: Heights | None = None) -> Invariant:
    """Fundamental invariant of a decorated metric.

    Edges with two hyperideal endpoints use acosh of the inversive
    distance directly; edges with an ideal endpoint go through the
    heights relation, by default in the canonical (zero ideal heights)
    gauge.  Passing explicit ``heights``, one per vertex orbit, keeps
    lambda-lengths in a caller-maintained horocycle gauge instead.

    Raises NotComparable when explicit ``heights`` refer to another
    background than ``m``, or carry eps flags other than those of
    ``m``.  Raises ResultInvalid when an edge's inversive distance or
    lambda exponential is not finite, which includes a denominator that
    underflows to zero (radii near 1e-300 make their product 0).
    """
    check_valid(m, "input of lambda_lengths")
    tri = m.triangulation
    bg = m.background
    heights = heights or heights_from_decoration(m)
    if heights.h.shape != (tri.vertex_count,):
        raise BadParameters("height array does not match vertex orbits")
    if heights.background is not bg:
        raise NotComparable(f"{heights.background.name_lower} heights for a {bg.name_lower} metric")
    if not np.array_equal(heights.eps, m.eps):
        raise NotComparable("heights carry other ideal/hyperideal flags than the metric")
    eps = m.eps.tolist()
    h = heights.h.tolist()
    radii = m.radii.tolist()
    lam = np.zeros(tri.edge_count)
    for e, ((i, j), l) in enumerate(zip(tri.edge_endpoint_ids, m.lengths.tolist())):
        hyperideal = eps[i] == 1 and eps[j] == 1
        try:
            if hyperideal:
                t = trig.inversive_distance(bg, l, radii[i], radii[j])
            elif bg is Background.SPHERICAL:
                t = tau(-eps[i], h[i]) * tau(-eps[j], h[j])
                t -= math.cos(l) * tau(eps[i], h[i]) * tau(eps[j], h[j])
            elif bg is Background.HYPERBOLIC:
                t = math.cosh(l) * tau(-eps[i], h[i]) * tau(-eps[j], h[j])
                t -= tau(eps[i], h[i]) * tau(eps[j], h[j])
            else:
                rho_i, rho_j = math.exp(-h[i]), math.exp(-h[j])
                t = (l * l - eps[i] * rho_i**2 - eps[j] * rho_j**2) / (2.0 * rho_i * rho_j)
        except (ZeroDivisionError, OverflowError):  # a product of radii is 0, cosh l overflows
            t = math.inf
        if not math.isfinite(t):
            what = "inversive distance" if hyperideal else "lambda exponential"
            raise ResultInvalid(f"edge {tri.edge_label(e)}: {what} {t} is not finite", [])
        if eps[i] * eps[j] == 1:
            lam[e] = _acosh_snapped(t)
        else:
            if t <= 0:
                raise ResultInvalid(
                    f"edge {tri.edge_label(e)}: non-positive lambda exponential {t}", []
                )
            lam[e] = math.log(2.0 * t)
    return Invariant(tri, lam, m.eps)


def decoration_from_heights(
    triangulation: Triangulation, invariant: Invariant, heights: Heights
) -> DecoratedMetric:
    """Decorated metric realizing the invariant at the given heights.

    Inverts the heights/lambda relation on every edge and the
    radius/height identity on every vertex as whole-surface arithmetic,
    by the array kernel's rule (README "Numerics"): numpy does the
    gathers, ``+ - * /``, ``sqrt`` and comparisons, and every ``exp``,
    ``**``, ``cosh``/``sinh``, ``acos``, ``log1p``, ``asin`` and
    ``asinh`` is the scalar ``math`` call mapped with ``trig.each``, in
    the per-edge formulas' order of operations.  So every float is that
    of an edge-by-edge evaluation, and an exponential the formulas
    never form (``e^-h`` at an ideal vertex, ``e^-lambda`` on an edge
    with an ideal end) is never taken.  Tangent vertex circles (two
    hyperideal ends, lambda exactly 0) get length ``r_i + r_j``.

    Raises NotComparable when the invariant lives on a triangulation
    with other edges or vertices under the same ids (equal ``edges``
    and ``face_vertex_ids``), or when the heights carry other
    ideal/hyperideal flags than the invariant.  Raises
    HeightsOutOfDomain in two places only: at the first hyperideal
    vertex with height <= 0, and at the closing ``validate``
    of the result, which names every failing vertex, edge and face.  An
    edge whose inversion leaves the domain (spherical ``|cos l| < 1``
    and ``lambda < h_i + h_j``, hyperbolic ``cosh l > 1``, Euclidean
    ``l^2 > 0``) gets a NaN length; an exponential that overflows is
    NaN and a denominator that underflows to 0 gives an infinite or
    NaN length, so all of them end at that gate.
    """
    bg = heights.background
    tri = triangulation
    h, lam = heights.h, invariant.lam
    if not _same_ids(tri, invariant.triangulation):
        raise NotComparable("the invariant lives on another triangulation")
    if h.shape != (tri.vertex_count,):
        raise BadParameters("height array does not match vertex orbits")
    if lam.shape != (tri.edge_count,):
        raise BadParameters("lambda array does not match edge orbits")
    if heights.eps is not invariant.eps and not np.array_equal(heights.eps, invariant.eps):
        raise NotComparable("heights carry other ideal/hyperideal flags than the invariant")
    hyper = invariant.eps == 1
    curved = bg is not Background.EUCLIDEAN
    if curved and np.count_nonzero(hyper & (h <= 0)):
        v = int((hyper & (h <= 0)).nonzero()[0][0])
        raise HeightsOutOfDomain(f"vertex {tri.vertex_label(v)}: hyperideal height {h[v]} <= 0")
    V, E = tri.vertex_count, tri.edge_count
    i, j = tri.edge_endpoint_array.T
    ee = hyper[i] & hyper[j]
    tangent = ee & (lam == 0.0)
    spherical = bg is Background.SPHERICAL
    with np.errstate(all="ignore"):  # inf and NaN propagate as with Python floats
        # e^h (curved tau), e^-h (tau at hyperideal vertices, Euclidean
        # rho), e^lam and e^-lam (tau on edges between hyperideal
        # vertices); one that the per-edge formulas never form is e^-inf
        args = np.full(2 * (V + E), -math.inf)
        if curved:
            args[:V] = h
        np.negative(h, out=args[V:2 * V], where=hyper if curved else True)
        args[2 * V:-E] = lam
        np.negative(lam, out=args[-E:], where=ee)
        exps = _each_or_nan(math.exp, args)
        e_h, e_mh, e_lam, e_mlam = exps[:V], exps[V:2 * V], exps[2 * V:-E], exps[-E:]
        tau_lam = (e_lam + e_mlam) / 2.0
        if curved:
            plus, minus = (e_h + e_mh) / 2.0, (e_h - e_mh) / 2.0  # tau(eps, h), tau(-eps, h)
            fn, arc = (math.cosh, math.asin) if spherical else (math.sinh, math.asinh)
            # 0 at ideal vertices, NaN where cosh or sinh overflows
            radii = trig.each(arc, 1.0 / _each_or_nan(fn, np.where(hyper, h, math.inf)))
            if spherical:
                x = (minus[i] * minus[j] - tau_lam) / (plus[i] * plus[j])
                out = ~(np.abs(x) < 1.0) | (lam >= h[i] + h[j])
            else:
                x = (tau_lam + plus[i] * plus[j]) / (minus[i] * minus[j])
                out = ~(x > 1.0)
        else:
            radii = np.where(hyper, e_mh, 0.0)
            rho_sq = _each_or_nan(partial(pow, exp=2), e_mh)
            eps_rho_sq, two_rho = hyper.astype(float) * rho_sq, 2.0 * e_mh
            x = eps_rho_sq[i] + eps_rho_sq[j] + two_rho[i] * e_mh[j] * tau_lam
            out = ~(x > 0.0)
        x[out] = math.nan  # also on tangent edges, whose lengths are set below
        if curved:
            if not spherical:  # stable_acosh
                x = x - 1.0
                x = x + np.sqrt(x * (x + 2.0))
            lengths = trig.each(math.acos if spherical else math.log1p, x)
        else:
            lengths = np.sqrt(x)
        if np.count_nonzero(tangent):  # exactly r_i + r_j, which the inversion can miss by an ulp
            lengths = np.where(tangent, radii[i] + radii[j], lengths)

    lengths.flags.writeable = radii.flags.writeable = False  # fresh: the metric keeps them
    result = DecoratedMetric(tri, bg, lengths, radii)
    bad = validate(result)
    if bad:
        raise HeightsOutOfDomain("resulting lengths invalid: " + "; ".join(bad))
    return result


# -- heights <-> weights --------------------------------------------------------

def omega_map(heights: Heights) -> np.ndarray:
    """Decoration weights of the invariant surface induced by apex
    heights, for the background and apex sphere radius R of the
    heights: ``tau(+-eps_v, h_v) / n`` with ``n = sinh R`` (hyperbolic,
    sign +) or ``cosh R`` (spherical, sign -).  The whole surface is one
    pass of scalar ``math`` arithmetic over plain floats, vertex by
    vertex, so an exponential that overflows raises OverflowError at
    the first such vertex.  Euclidean heights raise BadParameters, as
    in ``omega_inverse``."""
    bg, radius = heights.background, heights.reference_radius
    if bg is Background.HYPERBOLIC:
        norm, sign = math.sinh(radius), 1
    elif bg is Background.SPHERICAL:
        norm, sign = math.cosh(radius), -1
    else:
        raise BadParameters("omega maps are defined for curved backgrounds only")
    return np.array(
        [tau(sign * e, hv) / norm for e, hv in zip(heights.eps.tolist(), heights.h.tolist())],
        dtype=float,
    )


def _check_squared_weight(v: int, omega_v, t: float) -> None:
    # t is a Python float, so t * t overflows to inf without a numpy warning
    if not math.isfinite(t * t):
        raise WeightOutOfRange(
            f"vertex {v}: weight {omega_v} outside the image of the height map "
            "(squared weight not finite)"
        )


def omega_inverse(
    background: Background, reference_radius: float, omega, eps
) -> Heights:
    """Inverse of omega_map on its image.  The whole surface is one pass
    of scalar ``math`` arithmetic over plain floats, vertex by vertex:
    the first vertex off the image, in index order, raises
    WeightOutOfRange."""
    omega = np.asarray(omega, dtype=float)
    eps = np.asarray(eps, dtype=int)
    if background is Background.HYPERBOLIC:  # t = sinh(R) omega, h = log(t + sqrt(t^2 - eps))
        scale, sign, off_image = math.sinh(reference_radius), -1, "outside the image of the height map"
    elif background is Background.SPHERICAL:  # t = cosh(R) omega, h = log(t + sqrt(t^2 + eps))
        scale, sign, off_image = math.cosh(reference_radius), 1, "not positive"
    else:
        raise BadParameters("omega maps are defined for curved backgrounds only")
    h = []
    for v, (w, e) in enumerate(zip(omega.tolist(), eps.tolist())):
        t = w * scale
        if w <= 0 or (sign < 0 and e == 1 and t <= 1.0):
            raise WeightOutOfRange(f"vertex {v}: weight {w} {off_image}")
        _check_squared_weight(v, w, t)
        h.append(math.log(t + math.sqrt(t * t + sign * e)))
    return Heights(np.array(h, dtype=float), background, reference_radius, eps)


# -- scale factors ---------------------------------------------------------------

def radius_scale_factor(background: Background, r_old: float, r_new: float) -> float:
    """log(sfac(r_new) / sfac(r_old)), the scale factor of a hyperideal
    vertex read off its radii, on Python floats.  Where the quotient
    leaves the normal floats (underflow to a subnormal or 0, overflow
    to inf) it is the difference of the two logs instead.  A ``sinh``
    that overflows raises OverflowError."""
    a, b = trig.sfac(background, r_new), trig.sfac(background, r_old)
    ratio = a / b
    if sys.float_info.min <= ratio <= sys.float_info.max:
        return math.log(ratio)
    return math.log(a) - math.log(b)


def scale_factors(m: DecoratedMetric, m_new: DecoratedMetric) -> np.ndarray:
    """Logarithmic scale factors turning ``m`` into ``m_new``.

    For hyperideal vertices the factor is read off the radii.  Ideal
    vertices have no radius to compare, so their factors are recovered
    from the shifts of canonically gauged lambda-lengths on incident
    edges (least squares; triangulations always contain odd cycles, so
    the system determines the factors).  Whether the result actually
    reproduces ``m_new`` is the caller's DCE test via conformal_change.
    Raises NotComparable unless both triangulations have the same
    edges and vertices under the same ids (equal ``edges`` and
    ``face_vertex_ids``), since factors and lambda-lengths are paired by
    id, and ResultInvalid naming the vertex when a hyperbolic radius is
    too large for ``sinh``.
    """
    tri = m.triangulation
    if not _same_ids(tri, m_new.triangulation):
        raise NotComparable("metrics live on different triangulations")
    if m.background is not m_new.background:
        raise NotComparable("metrics have different backgrounds")
    eps = m.eps
    if not np.array_equal(eps, m_new.eps):
        raise NotComparable("ideal/hyperideal flags differ")

    u = np.zeros(tri.vertex_count)
    bg = m.background
    for v, (r_old, r_new) in enumerate(zip(m.radii.tolist(), m_new.radii.tolist())):
        if eps[v] == 1:
            try:
                u[v] = radius_scale_factor(bg, r_old, r_new)
            except OverflowError:
                raise ResultInvalid(
                    f"vertex {tri.vertex_label(v)}: sinh of radius {max(r_old, r_new)} overflows", []
                ) from None

    ideal = (eps == 0).nonzero()[0]
    if ideal.size:
        # per edge, the shift of its lambda-length is the sum of the
        # factors at its ideal ends (twice one factor on an ideal loop)
        rows = (tri.edge_endpoint_array[:, :, None] == ideal).sum(axis=1).astype(float)
        shift = lambda_lengths(m_new).lam - lambda_lengths(m).lam
        some = rows.any(axis=1)  # the edges with an ideal end
        u[ideal] = np.linalg.lstsq(rows[some], shift[some], rcond=None)[0]
    return u
