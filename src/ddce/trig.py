"""Per-triangle kernel for the three constant-curvature backgrounds.

A decorated triangle is a spherical, Euclidean, or hyperbolic triangle
together with a circle of radius ``r >= 0`` about each vertex such that
the circles are pairwise disjoint (``r_a + r_b < l_ab`` on every edge).
This module computes, for a single triangle:

* interior angles (law of cosines, in half-angle form),
* inversive distances of vertex-circle pairs,
* the face-circle, the unique circle orthogonal to all three
  vertex circles, together with the per-edge quantities derived
  from it: the interior intersection angle ``alpha`` with each edge,
  the orthogonal-section radius ``r_sec``, and the signed distance
  ``d`` from the face-circle center to the edge (positive when the
  center lies on the triangle's side),
* the geodesic diagonal swap used by edge flips.

Everything is computed through Minkowski lifts: circles of all three
geometries embed into R^{3,1} so that Minkowski inner products encode
radii, inversive distances, and intersection angles uniformly.  The
face-circle is the orthogonal complement of the three vertex lifts.
In the hyperbolic plane this complement may represent a horocycle or a
hypercycle instead of a compact circle; angles and cotangents remain
well defined, while the center distance ``d`` degenerates to +-inf.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, FlipGeometryInvalid, NoRealFaceCircle, ZeroRadius

#: tolerance for triangle-inequality degeneracy checks
DEGENERACY_TOL = 1e-12

_MET = np.array([1.0, 1.0, 1.0, -1.0])


class Background(enum.Enum):
    """Constant-curvature model geometry, tagged by curvature sign."""

    SPHERICAL = 1
    EUCLIDEAN = 0
    HYPERBOLIC = -1

    @property
    def curvature(self) -> int:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "Background":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown background {name!r}") from None

    @property
    def name_lower(self) -> str:
        return self.name.lower()


def mdot(x, y) -> float:
    """Minkowski inner product of signature (3, 1) on lift vectors."""
    return float(np.dot(x * _MET, y))


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

    def check(self) -> None:
        bad = self.violations()
        if bad:
            raise DegenerateTriangle("; ".join(bad))


# -- interior angles ----------------------------------------------------------

def _half_angle(num1, num2, den1, den2):
    if min(num1, num2, den1, den2) <= 0:
        raise DegenerateTriangle("triangle inequality violated beyond tolerance")
    return 2.0 * math.atan(math.sqrt((num1 * num2) / (den1 * den2)))


def interior_angles(background: Background, lengths) -> tuple:
    """Angles at corners 0, 1, 2.  Corner ``s`` lies between the edges of
    slots ``s`` and ``s + 2``; the half-angle form of the law of cosines
    stays accurate near degenerate triangles."""
    a, b, c = lengths
    scale = max(1.0, a, b, c)
    for s in range(3):
        gap = lengths[s] + lengths[(s + 1) % 3] - lengths[(s + 2) % 3]
        if gap <= DEGENERACY_TOL * scale or lengths[s] <= 0:
            raise DegenerateTriangle(f"lengths {tuple(lengths)} degenerate")
    bg = background
    if bg is Background.SPHERICAL:
        if max(lengths) >= math.pi or a + b + c >= 2 * math.pi:
            raise DegenerateTriangle(f"spherical lengths {tuple(lengths)} out of range")
        fn = math.sin
    elif bg is Background.HYPERBOLIC:
        fn = math.sinh
    else:
        fn = lambda t: t
    sp = (a + b + c) / 2.0
    angles = []
    for s in range(3):
        adj1 = lengths[s]
        adj2 = lengths[(s + 2) % 3]
        opp = lengths[(s + 1) % 3]
        angles.append(_half_angle(fn(sp - adj1), fn(sp - adj2), fn(sp), fn(sp - opp)))
    return tuple(angles)


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


# -- model realizations and lifts ---------------------------------------------

def realize_triangle(background: Background, lengths) -> tuple:
    """Place corners 0, 1, 2 counterclockwise in the model surface:
    the unit sphere in R^3, the plane R^2, or the hyperboloid
    {x^2 + y^2 - z^2 = -1, z > 0} in R^{2,1}."""
    angles = interior_angles(background, lengths)
    th0 = angles[0]
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


def circle_lift(background: Background, center, radius: float):
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


def geodesic_lift(background: Background, p, q, side_point):
    """Unit lift of the geodesic through ``p`` and ``q``, oriented so the
    inner product is positive on the side of ``side_point``."""
    if background is Background.SPHERICAL:
        n = np.cross(p, q)
        n = n / np.linalg.norm(n)
        if np.dot(n, side_point) < 0:
            n = -n
        return np.array([n[0], n[1], n[2], 0.0])
    if background is Background.HYPERBOLIC:
        m = np.cross(p, q)
        m[2] = -m[2]
        m = m / math.sqrt(m[0] * m[0] + m[1] * m[1] - m[2] * m[2])
        if m[0] * side_point[0] + m[1] * side_point[1] - m[2] * side_point[2] < 0:
            m = -m
        return np.array([0.0, m[0], m[1], m[2]])
    u = q - p
    u = u / np.linalg.norm(u)
    n = np.array([-u[1], u[0]])
    s = float(np.dot(n, p))
    if np.dot(n, side_point) - s < 0:
        n, s = -n, -s
    return np.array([n[0], n[1], s, s])


def walk(background: Background, p, q, distance: float):
    """Point at the given distance from ``p`` along the geodesic to ``q``."""
    if background is Background.SPHERICAL:
        cl = max(-1.0, min(1.0, float(np.dot(p, q))))
        l = math.acos(cl)
        e = (q - cl * p) / math.sin(l)
        return math.cos(distance) * p + math.sin(distance) * e
    if background is Background.HYPERBOLIC:
        ch = max(1.0, -(p[0] * q[0] + p[1] * q[1] - p[2] * q[2]))
        l = math.acosh(ch)
        e = (q - ch * p) / math.sinh(l)
        return math.cosh(distance) * p + math.sinh(distance) * e
    u = (q - p) / np.linalg.norm(q - p)
    return p + distance * u


# -- orthogonal sections ------------------------------------------------------

def section_foot_radius(background: Background, length: float, r_a: float, r_b: float) -> tuple:
    """Foot distance ``x`` from the first endpoint and radius ``rho`` of
    the circle centered on the edge that meets both vertex circles
    orthogonally.  On the sphere the raw solution may represent the
    antipodal center; the caller canonicalizes to ``rho <= pi/2``.

    The radius is evaluated in a Heron-like product of half-gap terms:
    rho is second-order small near tangency and for small triangles,
    where the naive arc-cosine route loses all relative accuracy.
    """
    gaps = (
        (length - r_a - r_b) / 2.0,
        (length - r_a + r_b) / 2.0,
        (length + r_a - r_b) / 2.0,
        (length + r_a + r_b) / 2.0,
    )
    if background is Background.SPHERICAL:
        num = math.cos(r_b) - math.cos(r_a) * math.cos(length)
        den = math.cos(r_a) * math.sin(length)
        x = math.atan2(num, den)
        if x <= 0:
            x += math.pi
        sin2 = (
            4.0 * math.prod(math.sin(g) for g in gaps) / (den * den + num * num)
        )
        rho = math.asin(min(1.0, math.sqrt(max(0.0, sin2))))
        if math.cos(x) / math.cos(r_a) < 0:
            rho = math.pi - rho
        return x, rho
    if background is Background.HYPERBOLIC:
        num = math.cosh(r_a) * math.cosh(length) - math.cosh(r_b)
        den = math.cosh(r_a) * math.sinh(length)
        x = math.atanh(max(-1.0 + 1e-16, min(1.0 - 1e-16, num / den)))
        lower = math.cosh(r_b) - math.cosh(r_a) * math.exp(-length)
        upper = math.cosh(r_a) * math.exp(length) - math.cosh(r_b)
        sinh2 = 4.0 * math.prod(math.sinh(g) for g in gaps) / (lower * upper)
        rho = math.asinh(math.sqrt(max(0.0, sinh2)))
        return x, rho
    x = (length * length + r_a * r_a - r_b * r_b) / (2.0 * length)
    rho = math.sqrt(max(0.0, 4.0 * math.prod(gaps))) / length
    return x, rho


def sfac(background: Background, t: float) -> float:
    """sin / identity / sinh of ``t`` by background."""
    if background is Background.SPHERICAL:
        return math.sin(t)
    if background is Background.HYPERBOLIC:
        return math.sinh(t)
    return t


def tfac(background: Background, t: float) -> float:
    """tan / identity / tanh of ``t`` by background."""
    if background is Background.SPHERICAL:
        return math.tan(t)
    if background is Background.HYPERBOLIC:
        return math.tanh(t)
    return t


def cfac(background: Background, t: float) -> float:
    """cos / 1 / cosh of ``t`` by background."""
    if background is Background.SPHERICAL:
        return math.cos(t)
    if background is Background.HYPERBOLIC:
        return math.cosh(t)
    return 1.0


# -- face circle --------------------------------------------------------------

@dataclass(frozen=True)
class TriangleGeometry:
    """Derived per-face cache: interior angles, the face-circle, and for
    each edge slot the quantities feeding cotan weights and Delaunay
    predicates.

    ``d_tangent[s]`` is tan/tanh/identity (by background) of the signed
    distance ``d_center[s]`` from the face-circle center to the edge;
    ``d_center[s]`` is +-inf when the face-circle is a horocycle or
    hypercycle and has no center in the plane.  ``d_foot[s]`` holds the
    distances from the edge's two endpoints to the foot of the center
    perpendicular.  Sign convention: positive means the center lies on
    the same side of the edge as the triangle.
    """

    background: Background
    lengths: tuple
    radii: tuple
    angles: tuple
    alpha: tuple
    cot_alpha: tuple
    r_section: tuple
    d_tangent: tuple
    d_center: tuple
    d_foot: tuple
    circle_kind: str
    circumradius: float
    face_lift: np.ndarray
    positions: tuple

    @property
    def angle_sum(self) -> float:
        return self.angles[0] + self.angles[1] + self.angles[2]


def _face_circle_lift(background: Background, positions, radii):
    rows = []
    for s in range(3):
        lift = circle_lift(background, positions[s], radii[s])
        rows.append(lift * _MET / np.linalg.norm(lift))
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
        raise NoRealFaceCircle(
            f"orthogonal complement has Minkowski norm^2 {norm2:.3e}; input not hyperideal"
        )
    return lift / math.sqrt(norm2)


def _classify_face_lift(background: Background, lift) -> tuple:
    if background is Background.SPHERICAL:
        return "circle", math.atan2(1.0, abs(lift[3]))
    if background is Background.HYPERBOLIC:
        q = lift[1] * lift[1] + lift[2] * lift[2] - lift[3] * lift[3]
        if q < -1e-12:
            return "circle", math.atanh(1.0 / abs(lift[0]))
        if q > 1e-12:
            return "hypercycle", math.inf
        return "horocycle", math.inf
    gap = lift[3] - lift[2]
    if abs(gap) < 1e-14:
        return "line", math.inf
    return "circle", 1.0 / abs(gap)


def face_circle(tri: DecoratedTriangle) -> TriangleGeometry:
    """Full geometric cache of a decorated triangle.

    Raises DegenerateTriangle for invalid side/radius data and
    NoRealFaceCircle when no circle is orthogonal to all three vertex
    circles (which signals a non-hyperideal decoration).
    """
    tri.check()
    bg = tri.background
    scale = max(1.0, *tri.lengths)
    angles = interior_angles(bg, tri.lengths)
    positions = realize_triangle(bg, tri.lengths)
    lift = _face_circle_lift(bg, positions, tri.radii)

    alpha = []
    cot_alpha = []
    r_section = []
    d_tangent = []
    d_center = []
    d_foot = []
    kind, radius = _classify_face_lift(bg, lift)
    for s in range(3):
        a, b, c = positions[s], positions[(s + 1) % 3], positions[(s + 2) % 3]
        l = tri.lengths[s]
        x, rho = section_foot_radius(bg, l, tri.radii[s], tri.radii[(s + 1) % 3])
        feet = (x, l - x)
        g_lift = geodesic_lift(bg, a, b, c)
        cos_part = mdot(lift, g_lift)
        if rho <= 1e-5 * max(tri.lengths):
            # (near-)tangent vertex circles: the two crossing points merge
            # and the face-circle touches the edge, so |d| equals its
            # radius up to O(rho^2).  The smooth branch loses all relative
            # accuracy here (its inner products cancel like rho^2).
            side = math.copysign(1.0, cos_part)
            alpha.append(0.0 if side > 0 else math.pi)
            cot_alpha.append(side * math.inf)
            r_section.append(0.0)
            d_center.append(side * radius)
            d_tangent.append(side * (1.0 if math.isinf(radius) else tfac(bg, radius)))
            d_foot.append(feet)
            continue
        if bg is Background.SPHERICAL and rho > math.pi / 2:
            rho = math.pi - rho
            feet = (math.pi - x, math.pi - (l - x))
            foot = -walk(bg, a, b, x)
        else:
            foot = walk(bg, a, b, x)
        o_lift = circle_lift(bg, foot, rho) / sfac(bg, rho)  # analytic unit norm
        sin_part = mdot(lift, o_lift)
        ang = math.atan2(abs(sin_part), math.copysign(1.0, sin_part) * cos_part)
        alpha.append(ang)
        cot = math.copysign(1.0, sin_part) * cos_part / abs(sin_part)
        cot_alpha.append(cot)
        dtan = cot * sfac(bg, rho)
        d_tangent.append(dtan)
        if bg is Background.SPHERICAL:
            d_center.append(math.atan(dtan))
        elif bg is Background.HYPERBOLIC:
            d_center.append(math.atanh(dtan) if abs(dtan) < 1.0 else math.copysign(math.inf, dtan))
        else:
            d_center.append(dtan)
        r_section.append(rho)
        d_foot.append(feet)

    return TriangleGeometry(
        background=bg,
        lengths=tuple(tri.lengths),
        radii=tuple(tri.radii),
        angles=angles,
        alpha=tuple(alpha),
        cot_alpha=tuple(cot_alpha),
        r_section=tuple(r_section),
        d_tangent=tuple(d_tangent),
        d_center=tuple(d_center),
        d_foot=tuple(d_foot),
        circle_kind=kind,
        circumradius=radius,
        face_lift=lift,
        positions=positions,
    )


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
