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
both face entries take edge sections in and choose each side's reading
themselves: a side that runs from the smaller circle reads the foot
``x`` as it is, the other side reads the complemented foot ``l - x``,
and both read the same radius.  ``face_circle`` does not check its
triangle: ``delaunay``'s gate, ``metric.check_valid``, checks each
metric once, and ``diagonal_length`` only what a flip creates, its new
diagonal and two new faces.  The condition on a face's side lengths is
``face_defect``, which ``interior_angles``, ``diagonal_length`` and
``metric.validate`` read and which words it; ``degenerate_rows`` is
its array form, which ``angle_array`` and ``metric.validate`` read.

Each formula is written once, for one face and for a whole surface.
The face condition (``_face_gaps``), the corner angles
(``_corner_angles``), the orthogonal section (``_section``) and the
face-circle tangent of a side (``_tangent``) are each one function
over operands that are Python floats (one face, edge or side) or
equal-shape arrays (every face, edge or side of a surface).  Besides
``+ - * /`` and comparisons, a formula takes its operations from a
table that its entry picks once per call: ``background.floats``, the
``math`` calls and builtins, or ``background.arrays``
(``_evaluators``).  There numpy does only gathers, comparisons,
``+ - * /`` and ``sqrt``, which IEEE 754 rounds exactly as Python's
float operations do; every transcendental, ``**`` and clamp is the
same ``math`` or builtin call mapped over the values (``each``), the
clamps keep the NaN behaviour of the builtin ``min`` and ``max``, and
the three-term ``math.fsum`` of a section gap is ``_sum3``: error-free
transformations that IEEE arithmetic makes exact, and one add rounded
to odd, which round the sum as ``fsum`` does.  So both evaluators
give the same floats bit for bit, and a fix to a formula is made
once; numpy's transcendental ufuncs would not give them (README
"Numerics").  A formula runs its operations in one order on both, so
on floats every exception (an OverflowError of ``cosh`` or of ``**``,
a ZeroDivisionError) is the one of the first call that fails.

The entries keep their own plumbing.  The per-face entries
(``face_defect``, ``interior_angles``, ``section_foot_radius`` and
``edge_section``, ``face_circle``) raise the errors of one face.  The
whole-surface entries (``degenerate_rows``, ``angle_array``,
``face_circles``) gather the faces' lengths and radii, read every
side's foot, evaluate a tangent on ``F x 3`` arrays at once, hand a
surface with a degenerate row to ``interior_angles`` and name the
first face whose corner angle is not a positive number.  They call no
per-face entry on a valid surface, so a count of ``face_circle`` or
``interior_angles`` calls counts per-face evaluations alone.

The two forms of face geometry have one use each.  Per-face lists of
``TriangleGeometry`` serve the flip pass, whose readers
(``delaunay.is_local_delaunay``, ``delaunay.support_minimum``) take one
edge's two faces, or one face, at a time; it rebuilds the two faces of
each flip with ``face_circle``.  ``FaceArrays`` serve whole-surface
arithmetic (``delaunay.edge_weights``, ``solver.angle_jacobian``, the
rows of ``transition.build_transition``), which reads them off the
metric (``DecoratedMetric.faces``) and is passed no geometry.  They
hold only the three arrays that arithmetic reads (``angles``,
``r_section``, ``d_tangent``): the lengths and radii are the metric's
own, and the section feet are read by the flip pass alone.  A metric
computes its ``FaceArrays`` once, on first read: with ``face_circles``
at every surface size, or, for the output of a flip pass, by stacking
the pass's per-face list (``FaceArrays.stack``).  The rows of
``transition.build_transition`` share one triangulation, and one
``face_circles`` call over their disjoint union fills all of their
``FaceArrays`` at once (``metric.fill_faces``).  On a surface where
``face_circles`` overflows, ``metric.scalar_face_geometries`` runs the
per-face entries and names the first failing edge or face.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .errors import BadParameters, DegenerateTriangle, FlipGeometryInvalid, ResultInvalid, ZeroRadius

#: tolerance for triangle-inequality degeneracy checks
DEGENERACY_TOL = 1e-12


class Background(enum.Enum):
    """Constant-curvature model geometry, tagged by curvature sign.

    Each member holds the operations its formulas take besides
    ``+ - * /`` (``floats`` on Python floats, ``arrays`` on equal-shape
    float arrays), set once at import; see ``_evaluators``."""

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


# -- evaluators ---------------------------------------------------------------

def each(fn, a) -> np.ndarray:
    """The scalar ``fn`` mapped over the values of an array, in array
    order.  On a 1-D array the result is a new array that owns its data;
    otherwise it is that array reshaped."""
    out = np.fromiter(map(fn, a.ravel().tolist()), float, a.size)
    return out if a.ndim == 1 else out.reshape(a.shape)


def _max(a, *more):
    """Builtin ``max(a, *more)`` value by value: each next value wins
    where it is above the current one, so a NaN that comes later loses
    and a NaN that comes first wins, as in Python."""
    for b in more:
        a = np.where(b > a, b, a)
    return a


def _min(a, *more):
    """Builtin ``min(a, *more)`` value by value, NaN handling as ``_max``."""
    for b in more:
        a = np.where(b < a, b, a)
    return a


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
    ``l + r_a + r_b`` overflows, so the array kernel raises the same
    OverflowError as the scalar one."""

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


class _Ops:
    """One evaluator's operations, as attributes (``_evaluators``).  A
    plain class, not ``types.SimpleNamespace``: Python 3.11 specializes
    reads of its attributes, about 20 ns faster each (timeit)."""

    def __init__(self, **ops):
        for name, op in ops.items():
            setattr(self, name, op)


def _evaluators(background: Background) -> tuple:
    """The float and array operations of ``background``'s formulas (see
    the module docstring).  ``S``, ``C`` and ``T`` are sin/cos/tan or
    sinh/cosh/tanh, and None on the Euclidean plane, where the formulas
    take their own branch; ``S4`` and ``atan3`` are ``S`` of four
    values and ``atan`` of three, and ``fsum4`` is ``math.fsum`` of four
    triples, which the array evaluator maps in one call each;
    ``atan2`` maps two per-edge arrays pairwise (``each`` maps one);
    ``largest`` is ``max`` where a NaN may win."""
    curved = {
        Background.SPHERICAL: (math.sin, math.cos, math.tan),
        Background.HYPERBOLIC: (math.sinh, math.cosh, math.tanh),
    }.get(background)
    S, C, T = curved or (None, None, None)
    named = ("asin", "atanh", "asinh", "exp", "cos", "sin")
    atan, atan2, fsum = math.atan, math.atan2, math.fsum
    floats = _Ops(
        spherical=background is Background.SPHERICAL, S=S, C=C, T=T,
        S4=curved and (lambda w, x, y, z: (S(w), S(x), S(y), S(z))),
        atan3=lambda x, y, z: (atan(x), atan(y), atan(z)),
        fsum4=lambda p, q, r, s: (fsum(p), fsum(q), fsum(r), fsum(s)),
        sqrt=math.sqrt, max=max, min=min, largest=max, pow=pow, atan2=atan2,
        **{name: getattr(math, name) for name in named},
    )
    mapped = lambda fn: fn and partial(each, fn)  # noqa: E731
    arrays = _Ops(
        spherical=floats.spherical, S=mapped(S), C=mapped(C), T=mapped(T),
        S4=curved and (lambda *xs: each(S, np.array(xs))),
        atan3=lambda *xs: each(atan, np.array(xs)),
        fsum4=lambda *rows: _sum3(*np.array(rows).transpose(1, 0, 2)),
        sqrt=np.sqrt, max=_max, min=_min, largest=lambda *xs: reduce(np.maximum, xs),
        pow=lambda x, n: each(lambda v: pow(v, n), x),  # not partial(pow, exp=n): 3x slower per value
        atan2=lambda y, x: np.fromiter(map(atan2, y.tolist(), x.tolist()), float, y.size),
        **{name: mapped(getattr(math, name)) for name in named},
    )
    return floats, arrays


for _bg in Background:
    _bg.floats, _bg.arrays = _evaluators(_bg)


# -- face condition -----------------------------------------------------------

_TWO_PI = 2 * math.pi


def _face_gaps(ops, a, b, c) -> tuple:
    """The face condition of side lengths ``(a, b, c)``: the gaps
    ``l_s + l_{s+1} - l_{s+2}`` of slots 0, 1, 2, the tolerance
    ``DEGENERACY_TOL * max(1, a, b, c)`` that each must exceed, and
    whether a spherical perimeter reaches 2 pi."""
    tol = DEGENERACY_TOL * ops.largest(1.0, a, b, c)
    ab = a + b
    return ab - c, b + c - a, c + a - b, tol, ops.spherical and ab + c >= _TWO_PI


def face_defect(background: Background, a: float, b: float, c: float) -> str:
    """Why side lengths ``(a, b, c)`` make no face, or ``""`` when they
    make one: a gap ``l_s + l_{s+1} - l_{s+2}`` at or below
    ``DEGENERACY_TOL * max(1, a, b, c)``, or a spherical perimeter of
    2 pi or more.  A length <= 0 makes some gap <= 0, and a spherical
    side of pi or more with every gap above the tolerance makes the
    perimeter 2 pi or more.  Every gap of a row with a NaN is NaN, so
    such a row passes."""
    g0, g1, g2, tol, too_long = _face_gaps(background.floats, a, b, c)
    if g0 <= tol or g1 <= tol or g2 <= tol:
        return f"triangle inequality violated (gap {min(g0, g1, g2):.3e})"
    if too_long:
        return f"perimeter {a + b + c} not below 2*pi"
    return ""


def degenerate_rows(background: Background, lengths: np.ndarray) -> np.ndarray:
    """Which rows of an ``F x 3`` length array ``interior_angles``
    rejects (raising DegenerateTriangle, or giving NaN on a NaN row):
    the rows with a ``face_defect``, in the same floats, or a NaN."""
    # on the three columns: a reduction over each row of the F x 3 array
    # (axis 1) is about ten times slower.  np.minimum keeps a NaN, and a
    # NaN fails the comparison; a sum that overflows to inf is a gap
    # above any tolerance, as in face_defect.
    with np.errstate(over="ignore"):
        g0, g1, g2, tol, too_long = _face_gaps(background.arrays, *lengths.T)
    return ~(np.minimum(np.minimum(g0, g1), g2) > tol) | too_long


# -- interior angles ----------------------------------------------------------

def _corner_angles(ops, a, b, c) -> tuple:
    """Angles at corners 0, 1, 2 of side lengths ``(a, b, c)`` that make
    a face, in the half-angle form of the law of cosines.  Each factor
    ``f`` is positive: ``sp - l_s`` is half a gap above 1e-12 up to
    rounding, and ``sp < pi`` on the sphere."""
    sp = (a + b + c) / 2.0
    fa, fb, fc, fs = sp - a, sp - b, sp - c, sp
    if ops.S4 is not None:  # sin/sinh; the identity on the Euclidean plane
        fa, fb, fc, fs = ops.S4(fa, fb, fc, fs)
    # corner s: tan^2 of its half angle is f(sp - l_s) f(sp - l_{s+2}) over
    # f(sp) f(sp - l_{s+1}), the slots adjacent to s over the opposite one
    t0, t1, t2 = (fa * fc) / (fs * fb), (fb * fa) / (fs * fc), (fc * fb) / (fs * fa)
    sqrt = ops.sqrt
    u0, u1, u2 = ops.atan3(sqrt(t0), sqrt(t1), sqrt(t2))
    return 2.0 * u0, 2.0 * u1, 2.0 * u2


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
    angles = _corner_angles(background.floats, a, b, c)
    # NaN from numbers is inf / inf; a row with a NaN, or every side
    # infinite (whose gaps are NaN), makes every factor f NaN
    if math.isnan(sum(angles)) and all(map(math.isfinite, lengths)):
        raise ResultInvalid("a corner angle is not a number", [])
    return angles


def angle_array(background: Background, lengths: np.ndarray) -> np.ndarray:
    """``interior_angles`` of every row of an ``F x 3`` array of side
    lengths, bit for bit, as an ``F x 3`` array.  Where some row is
    among the ``degenerate_rows``, every row goes through
    ``interior_angles``, which raises for the first degenerate row.  A
    corner angle that is not a positive number is rejected: it raises
    ResultInvalid naming the first such face.  It rounds to 0 where
    ``sinh(sp) * sinh(sp - b)`` overflows (hyperbolic sides of 356 or
    more), a face at which ``face_circle`` divides by zero, and it is
    NaN where both products of its quotient overflow (Euclidean sides
    above about 1e154), a face at which ``interior_angles`` raises."""
    if np.count_nonzero(degenerate_rows(background, lengths)):
        return np.array([interior_angles(background, tuple(row)) for row in lengths.tolist()])
    # a sum or product that overflows gives inf, and inf / inf an angle
    # that is NaN, which the check below rejects as interior_angles does;
    # a sinh that overflows raises its OverflowError, as in interior_angles
    with np.errstate(over="ignore", invalid="ignore"):
        angles = np.array(_corner_angles(background.arrays, *lengths.T)).T
    bad = ~(angles > 0.0)  # 0, or NaN
    if np.count_nonzero(bad):
        face, slot = np.argwhere(bad)[0]
        what = "rounds to 0" if angles[face, slot] == 0.0 else "is not a number"
        raise ResultInvalid(f"face {face}: a corner angle {what}", [])
    return angles


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

def _section(ops, length, r_a, r_b, cos_a, cos_b) -> tuple:
    """Foot ``x`` and radius ``rho`` of the orthogonal section of edges
    of length ``length`` and endpoint radii ``r_a``, ``r_b``, from the
    first endpoint (``section_foot_radius``).  ``cos_a`` and ``cos_b``
    are ``C`` of the endpoint radii when the entry has them (the array
    kernel maps ``C`` once per vertex), else None, and the formula calls
    ``C`` where the per-face order of operations does.  The operations
    run in one order on both evaluators, so a float that overflows
    raises the OverflowError of the same call."""
    n_a, n_b = -r_a, -r_b
    g0, g1, g2, g3 = ops.fsum4(
        (length, n_a, n_b), (length, n_a, r_b), (length, r_a, n_b), (length, r_a, r_b)
    )
    g0, g1, g2, g3 = g0 / 2.0, g1 / 2.0, g2 / 2.0, g3 / 2.0
    if ops.S is None:  # Euclidean
        x = (length * length + r_a * r_a - r_b * r_b) / (2.0 * length)
        return x, ops.sqrt(ops.max(0.0, 4.0 * (g0 * g1 * g2 * g3))) / length
    S, sqrt, max, min = ops.S, ops.sqrt, ops.max, ops.min
    if cos_a is None:
        cos_a = ops.C(r_a)
    if ops.spherical:
        # cos r_b - cos r_a cos l, summed from terms that do not cancel
        # on small triangles
        num = 2.0 * (
            cos_a * ops.pow(S(length / 2.0), 2) - S((r_b + r_a) / 2.0) * S((r_b - r_a) / 2.0)
        )
        den = cos_a * S(length)
        x = ops.atan2(num, den)
        s0, s1, s2, s3 = ops.S4(g0, g1, g2, g3)
        sin2 = 4.0 * (s0 * s1 * s2 * s3) / (den * den + num * num)
        return x, ops.asin(min(1.0, sqrt(max(0.0, sin2))))
    # cosh r_a cosh l - cosh r_b, likewise
    num = 2.0 * (cos_a * ops.pow(S(length / 2.0), 2) + S((r_a + r_b) / 2.0) * S((r_a - r_b) / 2.0))
    den = cos_a * S(length)
    x = ops.atanh(max(-1.0 + 1e-16, min(1.0 - 1e-16, num / den)))
    if cos_b is None:
        cos_b = ops.C(r_b)
    lower = cos_b - cos_a * ops.exp(-length)
    upper = cos_a * ops.exp(length) - cos_b
    s0, s1, s2, s3 = ops.S4(g0, g1, g2, g3)
    return x, ops.asinh(sqrt(max(0.0, 4.0 * (s0 * s1 * s2 * s3) / (lower * upper))))


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
    return _section(background.floats, length, r_a, r_b, None, None)


def edge_section(background: Background, length: float, r_i: float, r_j: float) -> tuple:
    """Orthogonal section ``(x, rho)`` of an edge with endpoint radii
    ``r_i`` and ``r_j``, in either order: ``section_foot_radius``
    evaluated from the endpoint with the smaller radius, whose foot is
    at most half the length away.  It depends on the edge alone, so one
    evaluation serves both faces at the edge (``face_circle``)."""
    if r_j < r_i:
        r_i, r_j = r_j, r_i
    return _section(background.floats, length, r_i, r_j, None, None)


def sfac(background: Background, t: float) -> float:
    """sin / identity / sinh of ``t`` by background."""
    S = background.floats.S
    return t if S is None else S(t)


# -- face circle --------------------------------------------------------------

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


@dataclass(frozen=True, eq=False)
class FaceArrays:
    """The fields of ``TriangleGeometry`` that whole-surface arithmetic
    reads, for every face of a surface, as ``F x 3`` float arrays (row
    ``f`` holds face ``f`` in slot order): ``angles`` for the cone-angle
    sums and the transition rows, ``d_tangent`` for the weights and the
    angle Jacobian, ``r_section`` for the weight denominators.  The
    lengths, radii and background are the metric's own."""

    angles: np.ndarray
    r_section: np.ndarray
    d_tangent: np.ndarray

    @classmethod
    def stack(cls, geoms) -> "FaceArrays":
        """The arrays of a list of per-face geometries."""
        return cls(*(
            np.array([getattr(g, name) for g in geoms], dtype=float).reshape(-1, 3)
            for name in ("angles", "r_section", "d_tangent")
        ))


def _tangent(ops, x, x_ik, angle):
    """``T(d_ij)`` of a face side ``i -> j`` (``face_circle``) from its
    foot ``x = x_ij``, the foot ``x_ik`` on the side to the third corner
    and the corner angle at ``i``, in the order of operations of the
    relation, so a float that overflows or divides by zero raises the
    error of the same call."""
    if ops.T is None:  # Euclidean: T(t) = t, C(t) = 1
        return (x_ik - x * ops.cos(angle)) / ops.sin(angle)
    T = ops.T
    return ops.C(x) * (T(x_ik) - T(x) * ops.cos(angle)) / ops.sin(angle)


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

    which stays finite when vertex circles are tangent (``_tangent``,
    slot by slot, so every float and every exception is that of a
    slot-by-slot loop).  The triangle is not checked here: callers pass
    validated data (``delaunay.face_geometries`` gates the whole
    metric), and only ``interior_angles`` still raises
    DegenerateTriangle, on degenerate side lengths.
    """
    a0, a1, a2 = angles = interior_angles(background, lengths)
    l0, l1, l2 = lengths
    r0, r1, r2 = radii
    (f0, rho0), (f1, rho1), (f2, rho2) = sections
    x0 = f0 if r0 <= r1 else l0 - f0
    x1 = f1 if r1 <= r2 else l1 - f1
    x2 = f2 if r2 <= r0 else l2 - f2
    # slot s - 1 runs from k to i: x_ik of slot s is l_{s-1} - x_{s-1}
    ops = background.floats
    d = _tangent(ops, x0, l2 - x2, a0), _tangent(ops, x1, l0 - x0, a1), _tangent(ops, x2, l1 - x1, a2)
    return TriangleGeometry(
        background, (l0, l1, l2), (r0, r1, r2), angles, (rho0, rho1, rho2), (x0, x1, x2), d
    )


_PREV = np.array([2, 0, 1])  # slot s - 1 of slots 0, 1, 2
_NEXT = np.array([1, 2, 0])


def face_circles(
    background: Background, lengths, radii, face_edges, face_vertices, edge_ends
) -> FaceArrays:
    """``face_circle`` of every face of a surface at once, bit for bit.

    ``lengths`` and ``radii`` hold one value per edge and per vertex;
    ``face_edges`` and ``face_vertices`` (``F x 3``) and ``edge_ends``
    (``E x 2``) index them as the ``Triangulation`` arrays
    ``face_edge_array``, ``face_vertex_array`` and
    ``edge_endpoint_array`` do.  As ``delaunay.face_geometries`` does
    face by face, every edge gets one section (``_section``), from its
    endpoint with the smaller radius, with ``cos``/``cosh`` of each
    vertex radius mapped once and gathered at the edge ends, and each
    face side reads it as ``face_circle`` does; every side's tangent is
    ``_tangent`` of ``F x 3`` arrays.  The formulas are those of the
    per-face kernel, on the array operations of ``_evaluators``, so
    every float equals the per-face kernel's.  Only degenerate faces
    are checked, before anything else is evaluated: the first raises
    ``interior_angles``' DegenerateTriangle.  Other data should pass
    ``metric.validate``.  Of the per-face fields it returns the three
    that ``FaceArrays`` holds.
    """
    L = lengths[face_edges]
    angles = angle_array(background, L)
    ops = background.arrays
    # each edge from its endpoint with the smaller radius, as in edge_section
    r = radii[edge_ends]
    ends = np.where(r[:, 1:] < r[:, :1], edge_ends[:, ::-1], edge_ends)
    cos_a, cos_b = (None, None) if ops.C is None else ops.C(radii)[ends].T
    x, rho = _section(ops, lengths, *radii[ends].T, cos_a, cos_b)
    R = radii[face_vertices]
    foot = x[face_edges]
    X = np.where(R <= R[:, _NEXT], foot, L - foot)  # as in face_circle
    d = _tangent(ops, X, (L - X)[:, _PREV], angles)
    return FaceArrays(angles, rho[face_edges], d)


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
