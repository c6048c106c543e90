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
* the geodesic diagonal swap used by edge flips.

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
triangle: ``delaunay``'s gate, ``metric.validate``, checks each metric
once, and ``diagonal_length`` the two faces a flip rebuilds.  The
constraints on side lengths are stated once per form, by
``interior_angles`` for one triangle and by ``degenerate_rows`` for an
array of them, which ``angle_array`` and ``metric.validate`` read;
``DecoratedTriangle.violations`` words them.

The array kernel (``face_circles``, and ``angle_array`` for the angles
alone) computes the same floats for every edge and face of a surface
at once.  There numpy does only gathers, ``+ - * /``, ``sqrt`` and
comparisons, which IEEE 754 rounds exactly as Python's float
operations do.  Every transcendental, ``**``, ``math.fsum`` and clamp
stays the scalar ``math`` or builtin call, mapped over the values
(``each``) in the scalar kernel's order of operations, and the clamps
keep the NaN behaviour of the builtin ``min`` and ``max``.  So its
floats equal the scalar kernel's bit for bit; numpy's transcendental
ufuncs would not (README "Numerics").  It serves the callers that read
arrays (``delaunay.face_arrays``, ``solver.cone_angles``, the rows of
``transition.build_transition``) at every surface size, with no
face-count cutoff: below about 30 faces its fixed cost of numpy calls
makes it slower than a scalar loop, by some 40 us per call at 2-8
faces.  The scalar kernel serves the callers that keep one object per
face (``delaunay.face_geometries``, the two faces a flip rebuilds), and
the tests compare the array kernel against it.

The two forms of face geometry have one use each.  Per-face lists of
``TriangleGeometry`` serve the flip pass, whose readers
(``delaunay.is_local_delaunay``, ``delaunay.support_minimum``) take one
edge's two faces, or one face, at a time.  ``FaceArrays`` serve
whole-surface arithmetic (``delaunay.edge_weights``,
``solver.angle_jacobian``), which takes no list: a caller that holds a
flip pass's list stacks it once (``FaceArrays.stack``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DegenerateTriangle, FlipGeometryInvalid, ZeroRadius

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
            raise ValueError(f"unknown background {name!r}") from None

    @property
    def name_lower(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class DecoratedTriangle:
    """A triangle with lengths ``(l01, l12, l20)`` and vertex radii
    ``(r0, r1, r2)``; slot ``s`` is the edge from corner ``s`` to
    corner ``s + 1``."""

    background: Background
    lengths: tuple
    radii: tuple

    def violations(self) -> list:
        """Every violated constraint, as human-readable strings."""
        bg = self.background
        out = []
        a, b, c = self.lengths
        scale = max(1.0, a, b, c)
        if not all(map(math.isfinite, (*self.lengths, *self.radii))):
            out.append(f"lengths {tuple(self.lengths)} / radii {tuple(self.radii)} not all finite")
        for s in range(3):
            if self.lengths[s] <= 0:
                out.append(f"slot {s}: length {self.lengths[s]} not positive")
        for s in range(3):
            gap = self.lengths[s] + self.lengths[(s + 1) % 3] - self.lengths[(s + 2) % 3]
            if gap <= DEGENERACY_TOL * scale:
                out.append(f"slot {(s + 2) % 3}: triangle inequality violated (gap {gap:.3e})")
        if bg is Background.SPHERICAL:
            for s in range(3):
                if not (0 < self.lengths[s] < math.pi):
                    out.append(f"slot {s}: spherical length {self.lengths[s]} outside (0, pi)")
            if a + b + c >= 2 * math.pi:
                out.append(f"perimeter {a + b + c} not below 2*pi")
            for s in range(3):
                if not (0 <= self.radii[s] < math.pi / 2):
                    out.append(f"corner {s}: spherical radius outside [0, pi/2)")
        else:
            for s in range(3):
                if self.radii[s] < 0:
                    out.append(f"corner {s}: negative radius")
        for s in range(3):
            # tangency (equality) is a supported boundary case
            if self.radii[s] + self.radii[(s + 1) % 3] > self.lengths[s]:
                out.append(
                    f"slot {s}: vertex circles intersect "
                    f"(r+r = {self.radii[s] + self.radii[(s + 1) % 3]} > l = {self.lengths[s]})"
                )
        return out


# -- interior angles ----------------------------------------------------------

def interior_angles(background: Background, lengths) -> tuple:
    """Angles at corners 0, 1, 2.  Corner ``s`` lies between the edges of
    slots ``s`` and ``s + 2``; the half-angle form of the law of cosines
    stays accurate near degenerate triangles."""
    a, b, c = lengths
    tol = DEGENERACY_TOL * max(1.0, a, b, c)
    # slot s has gap l_s + l_{s+1} - l_{s+2}
    if a + b - c <= tol or a <= 0 or b + c - a <= tol or b <= 0 or c + a - b <= tol or c <= 0:
        raise DegenerateTriangle(f"lengths {tuple(lengths)} degenerate")
    bg = background
    sp = (a + b + c) / 2.0
    if bg is Background.SPHERICAL:
        if max(lengths) >= math.pi or a + b + c >= 2 * math.pi:
            raise DegenerateTriangle(f"spherical lengths {tuple(lengths)} out of range")
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
    return (
        2.0 * math.atan(math.sqrt((fa * fc) / (fs * fb))),
        2.0 * math.atan(math.sqrt((fb * fa) / (fs * fc))),
        2.0 * math.atan(math.sqrt((fc * fb) / (fs * fa))),
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
    flat = map(fn, a.ravel().tolist(), *(b.ravel().tolist() for b in more))
    out = np.fromiter(flat, float, a.size)
    return out if a.ndim == 1 else out.reshape(a.shape)


def degenerate_rows(background: Background, lengths: np.ndarray) -> np.ndarray:
    """Which rows of an ``F x 3`` length array ``interior_angles``
    rejects (raising DegenerateTriangle, or giving NaN on a NaN row): a
    gap at or below ``DEGENERACY_TOL * max(1, longest)``, a spherical
    side of pi or perimeter of 2 pi or more, or a NaN.  A length <= 0
    makes some gap <= 0; a spherical side >= pi with every gap above
    the tolerance makes the perimeter >= 2 pi."""
    # on the three columns: a reduction over each row of the F x 3 array
    # (axis 1) is about ten times slower.  np.minimum and np.maximum keep
    # a NaN, and a NaN fails the comparison.
    a, b, c = lengths.T
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
    ``interior_angles``, which raises for the first degenerate row."""
    if degenerate_rows(background, lengths).any():
        return np.array([interior_angles(background, tuple(row)) for row in lengths.tolist()])
    a, b, c = lengths.T
    f = np.empty((len(lengths), 4))
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
    # corner s: f of slots s and s + 2 over f(sp) and f of slot s + 1
    fl, fs = f[:, :3], f[:, 3:]
    return 2.0 * each(math.atan, np.sqrt((fl * fl[:, _PREV]) / (fs * fl[:, _NEXT])))


def _section_arrays(background: Background, length, r_a, r_b) -> tuple:
    """``section_foot_radius`` of every edge, bit for bit, as arrays
    ``(x, rho)``; the arguments are arrays of one value per edge."""
    neg_a, neg_b = -r_a, -r_b
    sums = zip(
        np.concatenate((length, length, length, length)).tolist(),
        np.concatenate((neg_a, neg_a, r_a, r_a)).tolist(),
        np.concatenate((neg_b, r_b, neg_b, r_b)).tolist(),
    )
    gaps = np.fromiter(map(math.fsum, sums), float, 4 * length.size).reshape(4, -1) / 2.0
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
    c_a = each(cos, r_a)
    s_half = np.fromiter(map(pow, s_half.tolist(), repeat(2)), float, s_half.size)  # ** 2
    den = c_a * s_l
    if background is Background.SPHERICAL:
        num = 2.0 * (c_a * s_half - s_plus * s_minus)
        x = each(math.atan2, num, den)
        sin2 = 4.0 * (s0 * s1 * s2 * s3) / (den * den + num * num)
        return x, each(math.asin, _min(1.0, np.sqrt(_max(0.0, sin2))))
    num = 2.0 * (c_a * s_half + s_plus * s_minus)
    x = each(math.atanh, _max(-1.0 + 1e-16, _min(1.0 - 1e-16, num / den)))
    c_b = each(cos, r_b)
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
    transcendental, ``**``, ``math.fsum`` and clamp is the scalar call
    of the per-face kernel mapped over the values, in the same order of
    operations, and the clamps keep the NaN behaviour of ``min`` and
    ``max``.  So every float equals the scalar kernel's.  Only
    degenerate faces are checked, before anything else is evaluated:
    the first raises ``interior_angles``' DegenerateTriangle.  Other
    data should pass ``metric.validate``.
    """
    L = lengths[face_edges]
    angles = angle_array(background, L)
    r_i, r_j = radii[edge_ends].T
    swap = r_j < r_i
    x, rho = _section_arrays(
        background, lengths, np.where(swap, r_j, r_i), np.where(swap, r_i, r_j)
    )
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


def diagonal_length(background: Background, t1: DecoratedTriangle, t2: DecoratedTriangle) -> float:
    """Length of the opposite diagonal of the quadrilateral formed by two
    triangles sharing their slot-0 edge.

    ``t1`` is the triangle ``(a, b, c)`` and ``t2`` the triangle
    ``(b, a, d)`` on the other side, so the shared edge data must agree
    exactly.  Raises FlipGeometryInvalid when the flipped triangles
    ``(a, d, c)`` and ``(d, b, c)`` would violate metric constraints.
    """
    if background is not t1.background or background is not t2.background:
        raise FlipGeometryInvalid("background mismatch between quad triangles")
    if t1.lengths[0] != t2.lengths[0] or t1.radii[0] != t2.radii[1] or t1.radii[1] != t2.radii[0]:
        raise FlipGeometryInvalid("shared edge data of the quad disagrees")
    ang1 = interior_angles(background, t1.lengths)
    ang2 = interior_angles(background, t2.lengths)
    gamma = ang1[0] + ang2[1]  # angle at corner a between the two outer edges
    gamma_b = ang1[1] + ang2[0]
    if gamma >= math.pi or gamma_b >= math.pi:
        # concave quad: the opposite diagonal leaves the quadrilateral
        raise FlipGeometryInvalid(
            f"quad is concave at a shared-edge endpoint (angles {gamma}, {gamma_b})"
        )
    b1 = t1.lengths[2]  # |ca|
    b2 = t2.lengths[1]  # |ad|
    new_len = _cos_rule_forward(background, b1, b2, gamma)
    if background is Background.SPHERICAL and not (0.0 < new_len < math.pi):
        raise FlipGeometryInvalid(f"flipped diagonal length {new_len} outside (0, pi)")
    r_a, r_b, r_c = t1.radii
    r_d = t2.radii[2]
    flipped1 = DecoratedTriangle(background, (b2, new_len, b1), (r_a, r_d, r_c))
    flipped2 = DecoratedTriangle(background, (t2.lengths[2], t1.lengths[1], new_len), (r_d, r_b, r_c))
    bad = flipped1.violations() + flipped2.violations()
    if bad:
        raise FlipGeometryInvalid("flip produces invalid triangles: " + "; ".join(bad))
    return new_len
