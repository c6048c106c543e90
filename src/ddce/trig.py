"""Face kernel for the three constant-curvature backgrounds.

A decorated triangle is a spherical, Euclidean, or hyperbolic triangle
together with a circle of radius ``r >= 0`` about each vertex such that
the circles are pairwise disjoint (``r_a + r_b < l_ab`` on every edge).
This module computes, for a single triangle:

* interior angles (law of cosines, in half-angle form),
* inversive distances of vertex-circle pairs,
* the orthogonal section of an edge, the circle centered on the edge
  that meets both of its vertex circles at right angles,
* the face-circle, the unique circle orthogonal to all three
  vertex circles, through the per-edge quantities derived from it:
  the orthogonal-section radius ``r_sec`` and the tangent (tan /
  identity / tanh) of the signed distance from the face-circle center
  to the edge, positive when the center lies on the triangle's side,
* the geodesic diagonal swap used by edge flips, from plain floats:
  a quad's five lengths (the shared edge once) and the radii of the
  two corners the new diagonal joins, in the layout that
  ``surface.Triangulation.quad`` names by id.

Every quantity is a closed form in the side lengths and radii.  The
face-circle data come from the right-angled triangles that the
face-circle center, a corner and the feet of its perpendiculars form.
In the hyperbolic plane the face-circle may be a horocycle or a
hypercycle instead of a compact circle; the tangents stay finite.

A section depends on its edge alone, so it is evaluated once per edge
(``edge_section``, from the endpoint with the smaller radius), and
both kernels take edge sections in and choose each side's reading
themselves: a side that runs from the smaller circle reads the foot
``x`` as it is, the other side reads the complemented foot ``l - x``,
and both read the same radius.  ``face_circle`` does not check its
triangle: ``delaunay``'s gate, ``metric.check_valid``, checks each
metric once, and ``diagonal_length`` only what a flip creates, its new
diagonal and two new faces.  The condition on a face's side lengths is
stated once, by ``face_defect``, which ``interior_angles``,
``diagonal_length`` and ``metric.validate`` read and which words it;
``degenerate_rows`` is its array form, which ``angle_array`` and
``metric.validate`` read.

The array kernel (``face_circles``, and ``angle_array`` for the angles
alone) computes the same floats for every edge and face of a surface
at once.  There numpy does only gathers, ``+ - * /``, ``sqrt`` and
comparisons, which IEEE 754 rounds exactly as Python's float
operations do.  Every transcendental, ``**`` and clamp stays the
scalar ``math`` or builtin call, mapped over the values (``each``) in
the scalar kernel's order of operations, and the clamps keep the NaN
behaviour of the builtin ``min`` and ``max``.  A function of a vertex
radius is mapped once per vertex and gathered at the edge ends.  The
three-term ``math.fsum`` of a section gap is ``_sum3``: error-free
transformations that IEEE arithmetic makes exact, and one add rounded
to odd, which round the sum as ``fsum`` does.  So its floats equal the
scalar kernel's bit for bit; numpy's transcendental ufuncs would not
(README "Numerics").  On a 12x12 hyperbolic torus (432 edges) the gaps
take about 40 us where a ``fsum`` map took 305 us, and ``face_circles``
1075 us where it took 1424 us.  It serves the readers of arrays
(``metric.DecoratedMetric.faces``, ``solver.cone_angles``) at every
surface size, with no face-count cutoff: below about 30 faces its
fixed cost of numpy calls makes it slower than a scalar loop, by some
55-85 us per call at 2-8 faces (``face_circles`` 70-128 us on the
fixtures; ``_sum3`` 16 us where the ``fsum`` map took 8-15 us).  The
scalar kernel serves the callers that keep one object per
face (``delaunay.face_geometries``, the two faces a flip rebuilds) and
a surface on which the array kernel overflows, whose first failing
edge or face it names (``metric.scalar_face_geometries``); the tests
compare the array kernel against it.

The two forms of face geometry have one use each.  Per-face lists of
``TriangleGeometry`` serve the flip pass, whose readers
(``delaunay.is_local_delaunay``, ``delaunay.support_minimum``) take one
edge's two faces, or one face, at a time.  ``FaceArrays`` serve
whole-surface arithmetic (``delaunay.edge_weights``,
``solver.angle_jacobian``, the rows of ``transition.build_transition``),
which reads them off the metric (``DecoratedMetric.faces``) and is
passed no geometry.  A metric computes its ``FaceArrays`` once, on
first read: with the array kernel, or, for the output of a flip pass,
by stacking the pass's per-face list (``FaceArrays.stack``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import BadParameters, DegenerateTriangle, FlipGeometryInvalid, ResultInvalid, ZeroRadius

#: tolerance for triangle-inequality degeneracy checks
DEGENERACY_TOL = 1e-12


class Background(enum.Enum):
    """Constant-curvature model geometry, tagged by curvature sign."""

    SPHERICAL = 1
    EUCLIDEAN = 0
    HYPERBOLIC = -1

    @classmethod
    def from_name(cls, name: str) -> "Background":
        try:
            return cls[name.upper()]
        except (AttributeError, KeyError):  # not a string, or no such name
            raise BadParameters(f"unknown background {name!r}") from None

    @property
    def name_lower(self) -> str:
        return self.name.lower()


# -- interior angles ----------------------------------------------------------

def face_defect(background: Background, a: float, b: float, c: float) -> str:
    """Why side lengths ``(a, b, c)`` make no face, or ``""`` when they
    make one: a gap ``l_s + l_{s+1} - l_{s+2}`` at or below
    ``DEGENERACY_TOL * max(1, a, b, c)``, or a spherical perimeter of
    2 pi or more.  A length <= 0 makes some gap <= 0, and a spherical
    side of pi or more with every gap above the tolerance makes the
    perimeter 2 pi or more.  Every gap of a row with a NaN is NaN, so
    such a row passes."""
    tol = DEGENERACY_TOL * max(1.0, a, b, c)
    g0, g1, g2 = a + b - c, b + c - a, c + a - b  # slots 0, 1, 2
    if g0 <= tol or g1 <= tol or g2 <= tol:
        return f"triangle inequality violated (gap {min(g0, g1, g2):.3e})"
    if background is Background.SPHERICAL and a + b + c >= 2 * math.pi:
        return f"perimeter {a + b + c} not below 2*pi"
    return ""


def interior_angles(background: Background, lengths) -> tuple:
    """Angles at corners 0, 1, 2.  Corner ``s`` lies between the edges of
    slots ``s`` and ``s + 2``; the half-angle form of the law of cosines
    stays accurate near degenerate triangles.  Lengths that make no face
    (``face_defect``) raise DegenerateTriangle; a NaN length gives NaN
    angles.  Lengths that are numbers but whose products ``f f`` overflow
    to inf on both sides of a quotient (Euclidean sides above about
    1e154) raise ResultInvalid: their corner angle is not a number."""
    a, b, c = lengths
    defect = face_defect(background, a, b, c)
    if defect.startswith("perimeter"):
        raise DegenerateTriangle(f"spherical lengths {tuple(lengths)} out of range")
    if defect:
        raise DegenerateTriangle(f"lengths {tuple(lengths)} degenerate")
    bg = background
    sp = (a + b + c) / 2.0
    if bg is Background.SPHERICAL:
        fa, fb, fc, fs = math.sin(sp - a), math.sin(sp - b), math.sin(sp - c), math.sin(sp)
    elif bg is Background.HYPERBOLIC:
        fa, fb, fc, fs = math.sinh(sp - a), math.sinh(sp - b), math.sinh(sp - c), math.sinh(sp)
    else:
        fa, fb, fc, fs = sp - a, sp - b, sp - c, sp
    # one check serves all three corners, which use the same four values
    # (either all NaN, from NaN lengths, or all numbers)
    if fa <= 0 or fb <= 0 or fc <= 0 or fs <= 0:
        raise DegenerateTriangle("triangle inequality violated beyond tolerance")
    # corner s: tan^2 of its half angle is f(sp - l_s) f(sp - l_{s+2}) over
    # f(sp) f(sp - l_{s+1}), the slots adjacent to s over the opposite one
    t0, t1, t2 = (fa * fc) / (fs * fb), (fb * fa) / (fs * fc), (fc * fb) / (fs * fa)
    if math.isnan(t0 + t1 + t2) and not math.isnan(fa + fb + fc + fs):  # inf / inf
        raise ResultInvalid("a corner angle is not a number", [])
    return (
        2.0 * math.atan(math.sqrt(t0)),
        2.0 * math.atan(math.sqrt(t1)),
        2.0 * math.atan(math.sqrt(t2)),
    )


# -- inversive distance -------------------------------------------------------

def inversive_distance(background: Background, length: float, r_i: float, r_j: float) -> float:
    """Moebius invariant of the two vertex circles of an edge; > 1 for
    disjoint circles, = 1 at tangency."""
    if r_i <= 0 or r_j <= 0:
        raise ZeroRadius("inversive distance needs both radii positive")
    if background is Background.SPHERICAL:
        return (math.cos(r_i) * math.cos(r_j) - math.cos(length)) / (math.sin(r_i) * math.sin(r_j))
    if background is Background.HYPERBOLIC:
        return (math.cosh(length) - math.cosh(r_i) * math.cosh(r_j)) / (
            math.sinh(r_i) * math.sinh(r_j)
        )
    return (length * length - r_i * r_i - r_j * r_j) / (2.0 * r_i * r_j)


# -- orthogonal sections ------------------------------------------------------

def section_foot_radius(background: Background, length: float, r_a: float, r_b: float) -> tuple:
    """Foot distance ``x`` from the first endpoint and radius ``rho`` of
    the circle centered on the edge that meets both vertex circles
    orthogonally.  On the sphere, valid radii (below pi/2, with
    ``r_a + r_b <= length``) put the foot within pi/2 of the first
    endpoint and make ``rho <= pi/2``.

    The radius is evaluated in a Heron-like product of half-gap terms:
    rho is second-order small near tangency and for small triangles,
    where the naive arc-cosine route loses all relative accuracy.  Each
    gap is rounded once (``math.fsum``), so a closing gap keeps its
    relative accuracy too.
    """
    g0 = math.fsum((length, -r_a, -r_b)) / 2.0
    g1 = math.fsum((length, -r_a, r_b)) / 2.0
    g2 = math.fsum((length, r_a, -r_b)) / 2.0
    g3 = math.fsum((length, r_a, r_b)) / 2.0
    if background is Background.SPHERICAL:
        # cos r_b - cos r_a cos l, summed from terms that do not cancel
        # on small triangles
        cos_a = math.cos(r_a)
        num = 2.0 * (
            cos_a * math.sin(length / 2.0) ** 2
            - math.sin((r_b + r_a) / 2.0) * math.sin((r_b - r_a) / 2.0)
        )
        den = cos_a * math.sin(length)
        x = math.atan2(num, den)
        sines = math.sin(g0) * math.sin(g1) * math.sin(g2) * math.sin(g3)
        sin2 = 4.0 * sines / (den * den + num * num)
        return x, math.asin(min(1.0, math.sqrt(max(0.0, sin2))))
    if background is Background.HYPERBOLIC:
        # cosh r_a cosh l - cosh r_b, likewise
        cosh_a = math.cosh(r_a)
        num = 2.0 * (
            cosh_a * math.sinh(length / 2.0) ** 2
            + math.sinh((r_a + r_b) / 2.0) * math.sinh((r_a - r_b) / 2.0)
        )
        den = cosh_a * math.sinh(length)
        x = math.atanh(max(-1.0 + 1e-16, min(1.0 - 1e-16, num / den)))
        cosh_b = math.cosh(r_b)
        lower = cosh_b - cosh_a * math.exp(-length)
        upper = cosh_a * math.exp(length) - cosh_b
        sinhs = math.sinh(g0) * math.sinh(g1) * math.sinh(g2) * math.sinh(g3)
        return x, math.asinh(math.sqrt(max(0.0, 4.0 * sinhs / (lower * upper))))
    x = (length * length + r_a * r_a - r_b * r_b) / (2.0 * length)
    return x, math.sqrt(max(0.0, 4.0 * (g0 * g1 * g2 * g3))) / length


def edge_section(background: Background, length: float, r_i: float, r_j: float) -> tuple:
    """Orthogonal section ``(x, rho)`` of an edge with endpoint radii
    ``r_i`` and ``r_j``, in either order: ``section_foot_radius``
    evaluated from the endpoint with the smaller radius, whose foot is
    at most half the length away.  It depends on the edge alone, so one
    evaluation serves both faces at the edge (``face_circle``)."""
    if r_j < r_i:
        r_i, r_j = r_j, r_i
    return section_foot_radius(background, length, r_i, r_j)


def sfac(background: Background, t: float) -> float:
    """sin / identity / sinh of ``t`` by background."""
    if background is Background.SPHERICAL:
        return math.sin(t)
    if background is Background.HYPERBOLIC:
        return math.sinh(t)
    return t


# -- face circle --------------------------------------------------------------

#: T = tan/tanh and C = cos/cosh of ``face_circle`` on the curved
#: backgrounds (the Euclidean plane has T(t) = t and C(t) = 1)
_T_C = {
    Background.SPHERICAL: (math.tan, math.cos),
    Background.HYPERBOLIC: (math.tanh, math.cosh),
}

#: sin/sinh (``sfac``) and cos/cosh of the curved backgrounds
SIN_COS = {
    Background.SPHERICAL: (math.sin, math.cos),
    Background.HYPERBOLIC: (math.sinh, math.cosh),
}

@dataclass(frozen=True)
class TriangleGeometry:
    """Derived per-face cache: interior angles and, for each edge slot,
    the quantities feeding cotan weights and Delaunay predicates.

    ``r_section[s]`` is the radius of the circle centered on edge ``s``
    that meets both of its vertex circles orthogonally (zero when they
    are tangent), and ``x_section[s]`` the distance from corner ``s``
    along the edge to its center, where the face-circle center projects
    onto the edge.  Both come from the edge's one ``edge_section``, so
    the two faces at an edge hold the same radius bit for bit.
    ``d_tangent[s]`` is tan/identity/tanh (by background) of the signed
    distance from the face-circle center to the edge; positive means the
    center lies on the same side of the edge as the triangle.  In the
    hyperbolic plane a face-circle that is a horocycle or hypercycle has
    no center, and ``|d_tangent[s]|`` is 1 or above 1 on every edge.
    On the sphere the center is the one whose face-circle radius is at
    most pi/2.
    """

    background: Background
    lengths: tuple
    radii: tuple
    angles: tuple
    r_section: tuple
    x_section: tuple
    d_tangent: tuple


def face_circle(background: Background, lengths, radii, sections) -> TriangleGeometry:
    """Angles and per-edge face-circle data of a decorated triangle with
    side lengths ``(l01, l12, l20)`` and vertex radii ``(r0, r1, r2)``.

    ``sections[s]`` is the ``edge_section`` of the edge at slot ``s``,
    evaluated from its endpoint with the smaller radius.  Slot ``s``
    reads its foot as it is when ``radii[s] <= radii[s + 1]``, else as
    the complemented foot ``lengths[s] - x``, well conditioned because
    ``x <= lengths[s] / 2``; both faces at an edge read the same radius.
    So the section of edge ``s = (i -> j)`` is centered at distance
    ``x_ij`` from ``i``, where the face-circle center projects onto the
    edge; on the edge to the third corner ``k`` it projects at
    ``x_ik = l_ki - x_ki`` from ``i``.  The right-angled triangles at
    ``i`` then give, with T = tan/id/tanh and C = cos/1/cosh by
    background (Glickenstein 2011; Glickenstein-Thomas 2017),

        T(d_ij) = C(x_ij) * (T(x_ik) - T(x_ij) * cos theta_i) / sin theta_i,

    which stays finite when vertex circles are tangent.  The triangle
    is not checked here: callers pass validated data
    (``delaunay.face_geometries`` gates the whole metric), and only
    ``interior_angles`` still raises DegenerateTriangle, on degenerate
    side lengths.

    The three slots are written out over unpacked floats, with no
    per-slot indexing; each slot takes the operations of the relation
    above in its order, so every float and every exception (an
    OverflowError of ``cosh``, a ZeroDivisionError) is that of a
    slot-by-slot loop.  ``section_foot_radius`` is written the same way.
    """
    a0, a1, a2 = angles = interior_angles(background, lengths)
    l0, l1, l2 = lengths
    r0, r1, r2 = radii
    (f0, rho0), (f1, rho1), (f2, rho2) = sections
    x0 = f0 if r0 <= r1 else l0 - f0
    x1 = f1 if r1 <= r2 else l1 - f1
    x2 = f2 if r2 <= r0 else l2 - f2
    # slot s - 1 runs from k to i: x_ik of slot s is l_{s-1} - x_{s-1}
    if background is Background.EUCLIDEAN:  # T(t) = t, C(t) = 1
        d = (
            (l2 - x2 - x0 * math.cos(a0)) / math.sin(a0),
            (l0 - x0 - x1 * math.cos(a1)) / math.sin(a1),
            (l1 - x1 - x2 * math.cos(a2)) / math.sin(a2),
        )
    else:
        T, C = _T_C[background]
        d = (
            C(x0) * (T(l2 - x2) - T(x0) * math.cos(a0)) / math.sin(a0),
            C(x1) * (T(l0 - x0) - T(x1) * math.cos(a1)) / math.sin(a1),
            C(x2) * (T(l1 - x1) - T(x2) * math.cos(a2)) / math.sin(a2),
        )
    return TriangleGeometry(
        background, (l0, l1, l2), (r0, r1, r2), angles, (rho0, rho1, rho2), (x0, x1, x2), d
    )


# -- array kernel -------------------------------------------------------------

_PREV = np.array([2, 0, 1])  # slot s - 1 of slots 0, 1, 2
_NEXT = np.array([1, 2, 0])
#: slots s - 1, s and s + 1 of slots 0, 1, 2 as the three-column windows
#: at offsets 0, 1 and 2, gathered at once
_CYCLE = np.array([2, 0, 1, 2, 0])


def _max(a, b):
    """Builtin ``max(a, b)`` value by value: ``b`` where ``b > a``, else
    ``a``, so a NaN ``b`` loses and a NaN ``a`` wins, as in Python."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Builtin ``min(a, b)`` value by value, NaN handling as ``_max``."""
    return np.where(b < a, b, a)


def each(fn, a, *more) -> np.ndarray:
    """The scalar ``fn`` mapped over the values of equal-shape arrays, in
    array order: ``fn(a[k], more[0][k], ...)`` for every ``k``.  On 1-D
    arrays the result is a new array that owns its data; otherwise it is
    that array reshaped."""
    if more:  # unpacking a generator costs more than mapping a few values
        flat = map(fn, a.ravel().tolist(), *[b.ravel().tolist() for b in more])
    else:
        flat = map(fn, a.ravel().tolist())
    out = np.fromiter(flat, float, a.size)
    return out if a.ndim == 1 else out.reshape(a.shape)


def degenerate_rows(background: Background, lengths: np.ndarray) -> np.ndarray:
    """Which rows of an ``F x 3`` length array ``interior_angles``
    rejects (raising DegenerateTriangle, or giving NaN on a NaN row):
    the rows with a ``face_defect``, in the same floats, or a NaN."""
    # on the three columns: a reduction over each row of the F x 3 array
    # (axis 1) is about ten times slower.  np.minimum and np.maximum keep
    # a NaN, and a NaN fails the comparison; a sum that overflows to inf
    # is a gap above any tolerance, as in face_defect.
    a, b, c = lengths.T
    with np.errstate(over="ignore"):
        ab = a + b
        gap = np.minimum(np.minimum(ab - c, b + c - a), c + a - b)  # slots 0, 1, 2
        ok = gap > DEGENERACY_TOL * np.maximum(np.maximum(np.maximum(a, b), c), 1.0)
        if background is Background.SPHERICAL:
            ok &= ab + c < 2 * math.pi
    return ~ok


def angle_array(background: Background, lengths: np.ndarray) -> np.ndarray:
    """``interior_angles`` of every row of an ``F x 3`` array of side
    lengths, bit for bit, as an ``F x 3`` array.  Where some row is
    among the ``degenerate_rows``, every row goes through
    ``interior_angles``, which raises for the first degenerate row.  A
    corner angle that is not a positive number is rejected: it raises
    ResultInvalid naming the first such face.  It rounds to 0 where
    ``sinh(sp) * sinh(sp - b)`` overflows (hyperbolic sides of 356 or
    more), a face at which the scalar kernel ``face_circle`` divides by
    zero, and it is NaN where both products of its quotient overflow
    (Euclidean sides above about 1e154), a face at which
    ``interior_angles`` raises."""
    if np.count_nonzero(degenerate_rows(background, lengths)):
        return np.array([interior_angles(background, tuple(row)) for row in lengths.tolist()])
    a, b, c = lengths.T
    f = np.empty((len(lengths), 4))
    # a sum or product that overflows gives inf, and inf / inf an angle
    # that is NaN, which the check below rejects as interior_angles does
    with np.errstate(over="ignore", invalid="ignore"):
        f[:, 3] = (a + b + c) / 2.0
        f[:, :3] = f[:, 3:] - lengths  # sp - l_s, then sp
        # each f is positive on rows that pass: sp - l_s is half a gap above
        # 1e-12 up to rounding, and sp < pi on the sphere, so interior_angles'
        # second check cannot fail here; a sinh that overflows raises its
        # OverflowError, as in interior_angles
        if background is Background.SPHERICAL:
            f = each(math.sin, f)
        elif background is Background.HYPERBOLIC:
            f = each(math.sinh, f)
        # corner s: f of slots s and s - 1 over f(sp) and f of slot s + 1
        fc = f[:, _CYCLE]
        angles = 2.0 * each(math.atan, np.sqrt((fc[:, 1:4] * fc[:, :3]) / (f[:, 3:] * fc[:, 2:])))
    bad = ~(angles > 0.0)  # 0, or NaN
    if np.count_nonzero(bad):
        face, slot = np.argwhere(bad)[0]
        what = "rounds to 0" if angles[face, slot] == 0.0 else "is not a number"
        raise ResultInvalid(f"face {face}: a corner angle {what}", [])
    return angles


def _sum3(a, b, c) -> np.ndarray:
    """``math.fsum((a, b, c))`` value by value, bit for bit, errors
    included, on arrays that broadcast together.  Two TwoSums split
    ``a + b + c`` into ``hi + lo1 + lo2`` exactly, ``lo1 + lo2`` is
    rounded to odd, and one rounded add gives the correctly rounded sum
    (Boldo and Melquiond, "Emulation of FMA and correctly rounded sums:
    proved algorithms using rounding to odd", IEEE TC 57(4), 2008).
    Every step is a ``+ -`` that IEEE 754 rounds as Python does, or the
    exact ``nextafter``, and an exact zero sum is +0.0, as in ``fsum``.
    Where the result is not finite (an infinite or NaN input, or an
    exact sum that overflows), ``fsum`` itself gives the value or raises
    its OverflowError or ValueError.  Where only a partial sum of
    ``fsum`` overflows (``1e308 + 1e308 - 1e308``), ``fsum`` raises and
    this gives the rounded sum; of the section gaps ``l -+ r_a -+ r_b``
    (no negative term) none has such a partial unless
    ``l + r_a + r_b`` overflows, so ``_section_arrays`` raises the same
    OverflowError as the scalar kernel."""

    def two_sum(x, y):  # s + err == x + y exactly (Knuth)
        s = x + y
        t = s - x
        return s, (x - (s - t)) + (y - t)

    hi, lo1 = two_sum(b, c)
    hi, lo2 = two_sum(a, hi)
    lo, err = two_sum(lo2, lo1)
    inexact = err != 0.0
    if np.count_nonzero(inexact):  # rare: no edge of a random 12x12 torus has one
        # round lo to odd: where its last bit is even, the other
        # neighbour of the exact value has an odd one
        odd = inexact & (lo.view(np.int64) & 1 == 0)
        lo = np.where(odd, np.nextafter(lo, np.copysign(np.inf, err)), lo)
    out = hi + lo
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < out.size:
        bad = ~finite
        rows = zip(*(x[bad].tolist() for x in np.broadcast_arrays(a, b, c)))
        out[bad] = [math.fsum(row) for row in rows]
    return out


#: signs of ``r_a`` (row 0) and ``r_b`` (row 1) in the four section gaps
_GAP_SIGNS = np.array([[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]])[:, :, None]


def _section_arrays(background: Background, length, radii, ends) -> tuple:
    """``section_foot_radius`` of every edge, bit for bit, as arrays
    ``(x, rho)``: ``length`` holds one value per edge, and row ``e`` of
    ``ends`` (``E x 2``) indexes ``radii`` at edge ``e``'s first and
    second endpoint.  The four gaps ``fsum((l, -+r_a, -+r_b)) / 2`` are
    ``_sum3`` of the same terms, which rounds as ``math.fsum`` does, and
    cos/cosh is mapped once per vertex and gathered at the endpoints:
    the scalar kernel's calls on the same inputs."""
    r_a, r_b = r = radii[ends].T
    gaps = _sum3(length, *(_GAP_SIGNS * r[:, None])) / 2.0
    if background is Background.EUCLIDEAN:
        x = (length * length + r_a * r_a - r_b * r_b) / (2.0 * length)
        rho = np.sqrt(_max(0.0, 4.0 * (gaps[0] * gaps[1] * gaps[2] * gaps[3]))) / length
        return x, rho
    sin, cos = SIN_COS[background]
    if background is Background.SPHERICAL:
        plus, minus = (r_b + r_a) / 2.0, (r_b - r_a) / 2.0
    else:
        plus, minus = (r_a + r_b) / 2.0, (r_a - r_b) / 2.0
    s_half, s_plus, s_minus, s_l, s0, s1, s2, s3 = each(
        sin, np.concatenate(((length / 2.0, plus, minus, length), gaps))
    )
    c_a, c_b = each(cos, radii)[ends].T
    s_half = np.fromiter(map(pow, s_half.tolist(), repeat(2)), float, s_half.size)  # ** 2
    den = c_a * s_l
    if background is Background.SPHERICAL:
        num = 2.0 * (c_a * s_half - s_plus * s_minus)
        x = each(math.atan2, num, den)
        sin2 = 4.0 * (s0 * s1 * s2 * s3) / (den * den + num * num)
        return x, each(math.asin, _min(1.0, np.sqrt(_max(0.0, sin2))))
    num = 2.0 * (c_a * s_half + s_plus * s_minus)
    x = each(math.atanh, _max(-1.0 + 1e-16, _min(1.0 - 1e-16, num / den)))
    e_minus, e_plus = each(math.exp, np.array((-length, length)))
    sinh2 = 4.0 * (s0 * s1 * s2 * s3) / ((c_b - c_a * e_minus) * (c_a * e_plus - c_b))
    return x, each(math.asinh, np.sqrt(_max(0.0, sinh2)))


@dataclass(frozen=True, eq=False)
class FaceArrays:
    """The fields of ``TriangleGeometry`` for every face of a surface, as
    ``F x 3`` float arrays (row ``f`` holds face ``f`` in slot order)."""

    background: Background
    lengths: np.ndarray
    radii: np.ndarray
    angles: np.ndarray
    r_section: np.ndarray
    x_section: np.ndarray
    d_tangent: np.ndarray

    @classmethod
    def stack(cls, background: Background, geoms) -> "FaceArrays":
        """The arrays of a list of per-face geometries."""
        return cls(background, *(
            np.array([getattr(g, name) for g in geoms], dtype=float).reshape(-1, 3)
            for name in ("lengths", "radii", "angles", "r_section", "x_section", "d_tangent")
        ))


def face_circles(
    background: Background, lengths, radii, face_edges, face_vertices, edge_ends
) -> FaceArrays:
    """``face_circle`` of every face of a surface at once, bit for bit.

    ``lengths`` and ``radii`` hold one value per edge and per vertex;
    ``face_edges`` and ``face_vertices`` (``F x 3``) and ``edge_ends``
    (``E x 2``) index them as the ``Triangulation`` arrays
    ``face_edge_array``, ``face_vertex_array`` and
    ``edge_endpoint_array`` do.  As ``delaunay.face_geometries`` does
    face by face, every edge gets one ``edge_section``, from its
    endpoint with the smaller radius, and each face side reads it as
    ``face_circle`` does.

    numpy does only gathers, ``+ - * /``, ``sqrt`` and comparisons,
    which round exactly as the scalar float operations do; every
    transcendental, ``**`` and clamp is the scalar call of the per-face
    kernel mapped over the values, in the same order of operations, and
    the clamps keep the NaN behaviour of ``min`` and ``max``.  A
    function of a vertex radius (the section's cos/cosh) is mapped once
    per vertex and gathered at the edge ends, and the three-term
    ``math.fsum`` of each section gap is ``_sum3``: error-free
    transformations that IEEE arithmetic makes exact, which round as
    ``fsum`` does.  So every float equals the scalar kernel's.  Only
    degenerate faces are checked, before anything else is evaluated:
    the first raises ``interior_angles``' DegenerateTriangle.  Other
    data should pass ``metric.validate``.
    """
    L = lengths[face_edges]
    angles = angle_array(background, L)
    r = radii[edge_ends]
    # each edge from its endpoint with the smaller radius, as in edge_section
    ends = np.where(r[:, 1:] < r[:, :1], edge_ends[:, ::-1], edge_ends)
    x, rho = _section_arrays(background, lengths, radii, ends)
    R = radii[face_vertices]
    foot = x[face_edges]
    X = np.where(R <= R[:, _NEXT], foot, L - foot)  # as in face_circle
    x_ik = (L - X)[:, _PREV]  # slot s - 1 runs from k to i
    cos_t, sin_t = each(math.cos, angles), each(math.sin, angles)
    if background is Background.EUCLIDEAN:
        d = (x_ik - X * cos_t) / sin_t
    else:
        T, C = _T_C[background]
        t_ik, t_ij = each(T, np.array((x_ik, X)))
        d = each(C, X) * (t_ik - t_ij * cos_t) / sin_t
    return FaceArrays(background, L, R, angles, rho[face_edges], X, d)


# -- diagonal swap ------------------------------------------------------------

def _cos_rule_forward(background: Background, b1: float, b2: float, gamma: float) -> float:
    """Third side of a triangle with sides b1, b2 enclosing angle gamma."""
    if background is Background.SPHERICAL:
        c = math.cos(b1) * math.cos(b2) + math.sin(b1) * math.sin(b2) * math.cos(gamma)
        return math.acos(max(-1.0, min(1.0, c)))
    if background is Background.HYPERBOLIC:
        c = math.cosh(b1) * math.cosh(b2) - math.sinh(b1) * math.sinh(b2) * math.cos(gamma)
        return math.acosh(max(1.0, c))
    c2 = b1 * b1 + b2 * b2 - 2.0 * b1 * b2 * math.cos(gamma)
    return math.sqrt(max(0.0, c2))


def diagonal_length(background: Background, lengths, radii) -> float:
    """Length of the new diagonal ``cd`` of the quadrilateral of two
    faces ``(a, b, c)`` and ``(b, a, d)`` that share the edge ``ab``
    (``surface.Triangulation.quad``'s layout).

    ``lengths`` is ``(l_ab, l_bc, l_ca, l_ad, l_db)`` and ``radii`` is
    ``(r_c, r_d)``, the radii at the two apexes, which the new diagonal
    joins.  The quad's five lengths and four radii are taken to be
    those of a valid metric (``delaunay.flip_edge`` checks it), so only
    what the flip creates is checked: raises FlipGeometryInvalid when
    the quad is concave at ``a`` or ``b``, when the flipped faces
    ``(a, d, c)`` and ``(d, b, c)`` make no face (``face_defect``), or
    when the vertex circles of the new diagonal intersect.
    """
    l_ab, l_bc, l_ca, l_ad, l_db = lengths
    r_c, r_d = radii
    ang1 = interior_angles(background, (l_ab, l_bc, l_ca))
    ang2 = interior_angles(background, (l_ab, l_ad, l_db))
    gamma = ang1[0] + ang2[1]  # angle at corner a between the two outer edges
    gamma_b = ang1[1] + ang2[0]
    if gamma >= math.pi or gamma_b >= math.pi:
        # concave quad: the opposite diagonal leaves the quadrilateral
        raise FlipGeometryInvalid(
            f"quad is concave at a shared-edge endpoint (angles {gamma}, {gamma_b})"
        )
    new_len = _cos_rule_forward(background, l_ca, l_ad, gamma)
    r_cd = r_c + r_d
    bad = [
        f"face {name}: {defect}"
        for name, defect in (
            ("(a, d, c)", face_defect(background, l_ad, new_len, l_ca)),
            ("(d, b, c)", face_defect(background, l_db, l_bc, new_len)),
        )
        if defect
    ]
    if r_cd > new_len:  # tangency (equality) is a supported boundary case
        bad.append(f"new diagonal: vertex circles intersect (r_d + r_c = {r_cd} > l = {new_len})")
    if bad:
        raise FlipGeometryInvalid("flip produces invalid triangles: " + "; ".join(bad))
    return new_len
