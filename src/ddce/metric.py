"""Decorated metrics on a whole surface and their conformal structure.

A decorated metric assigns a length to every edge orbit and a
vertex-circle radius to every vertex orbit of a triangulated surface.
Vertices with radius zero are *ideal* (flag ``eps = 0``), vertices with
positive radius *hyperideal* (``eps = 1``).

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
The maps between heights and decoration weights (``omega_map`` /
``omega_inverse``) share the single primitive

    tau_y(x) = (exp(x) + y exp(-x)) / 2,   y in {-1, 0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import trig
from .errors import (
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
        raise ValueError(f"acosh argument {x} below 1")
    return math.log1p(t + math.sqrt(t * (t + 2.0)))


def _acosh_snapped(x: float) -> float:
    """acosh(max(1, x)), snapping to 0 when x - 1 is below the rounding
    noise of x itself: tangency is a supported boundary case and should
    evaluate to an exact zero lambda-length."""
    t = max(1.0, x) - 1.0
    if t <= 4.0 * 2.220446049250313e-16 * abs(x):
        return 0.0
    return stable_acosh(max(1.0, x))


def default_reference_radius(background: Background) -> float:
    """Free gauge radius of the apex sphere: sinh R = 1 (hyperbolic),
    cosh R = sqrt(2) (spherical), chosen to make tau arithmetic exact."""
    if background is Background.HYPERBOLIC:
        return math.asinh(1.0)
    if background is Background.SPHERICAL:
        return math.acosh(math.sqrt(2.0))
    raise ValueError("reference radius is defined for curved backgrounds only")


@dataclass(frozen=True)
class DecoratedMetric:
    """Per-edge lengths and per-vertex radii on a triangulation."""

    triangulation: Triangulation
    background: Background
    lengths: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lengths", np.asarray(self.lengths, dtype=float))
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=float))
        if self.lengths.shape != (self.triangulation.edge_count,):
            raise ValueError("length array does not match edge orbits")
        if self.radii.shape != (self.triangulation.vertex_count,):
            raise ValueError("radius array does not match vertex orbits")

    @property
    def eps(self) -> np.ndarray:
        """1 for hyperideal vertices (r > 0), 0 for ideal ones."""
        return (self.radii > 0).astype(int)

    def face_triangle(self, f: int) -> trig.DecoratedTriangle:
        tri = self.triangulation
        lengths = tuple(self.lengths[e] for e in tri.face_edges(f))
        radii = tuple(self.radii[v] for v in tri.face_vertices(f))
        return trig.DecoratedTriangle(self.background, lengths, radii)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Heights:
    """Apex heights per vertex, with the background and gauge radius R of
    the apex sphere they refer to."""

    h: np.ndarray
    background: Background
    reference_radius: float
    eps: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        if self.eps is not None:
            object.__setattr__(self, "eps", np.asarray(self.eps, dtype=int))


# -- validation ----------------------------------------------------------------

def validate(m: DecoratedMetric) -> list:
    """Diagnostics for every violated constraint; empty iff the metric is
    valid.  Hyperideality is reported per edge orbit (loop edges read
    2 r_i < l_ii); triangle-level conditions per face."""
    tri = m.triangulation
    finite_l, finite_r = np.isfinite(m.lengths), np.isfinite(m.radii)
    if not (finite_l.all() and finite_r.all()):
        # every other condition is meaningless on NaN or infinite data
        return [
            f"edge {tri.edge_label(e)}: length {m.lengths[e]} not finite"
            for e in np.flatnonzero(~finite_l)
        ] + [
            f"vertex {tri.vertex_label(v)}: radius {m.radii[v]} not finite"
            for v in np.flatnonzero(~finite_r)
        ]
    out = []
    if m.background is Background.SPHERICAL:
        for v in range(tri.vertex_count):
            if not (0 <= m.radii[v] < math.pi / 2):
                out.append(f"vertex {tri.vertex_label(v)}: spherical radius {m.radii[v]} outside [0, pi/2)")
    else:
        for v in range(tri.vertex_count):
            if m.radii[v] < 0:
                out.append(f"vertex {tri.vertex_label(v)}: negative radius {m.radii[v]}")
    for e in range(tri.edge_count):
        i, j = tri.edge_endpoints(e)
        if m.radii[i] + m.radii[j] > m.lengths[e]:
            out.append(
                f"edge {tri.edge_label(e)}: vertex circles intersect "
                f"(r_i + r_j = {m.radii[i] + m.radii[j]} > l = {m.lengths[e]})"
            )
    for f in range(tri.face_count):
        t = m.face_triangle(f)
        for msg in t.violations():
            if "circles intersect" in msg:
                continue  # already reported per edge
            out.append(f"face {f}: {msg}")
    return out


def check_valid(m: DecoratedMetric, context: str = "metric") -> None:
    bad = validate(m)
    if bad:
        raise ResultInvalid(f"{context} is not a valid decorated metric", bad)


# -- conformal change ----------------------------------------------------------

def conformal_change(m: DecoratedMetric, u) -> DecoratedMetric:
    """Metric obtained by applying logarithmic scale factors at the
    vertices.  Inversive distances (and the whole fundamental
    invariant up to horocycle gauge at ideal vertices) are preserved;
    vertices with ``u_i == 0.0`` keep their data bit-for-bit."""
    check_valid(m, "input of conformal_change")
    tri = m.triangulation
    u = np.asarray(u, dtype=float)
    if u.shape != (tri.vertex_count,):
        raise ValueError("scale factor array does not match vertex orbits")
    bg = m.background
    scale = np.exp(u)

    new_radii = m.radii.copy()
    if bg is Background.SPHERICAL:
        sin_new = scale * np.sin(m.radii)
        if np.any(sin_new > 1.0):
            worst = int(np.argmax(sin_new))
            raise ScaleOutOfDomain(
                f"vertex {tri.vertex_label(worst)}: e^u sin r = {sin_new[worst]} > 1"
            )
        moved = u != 0.0
        new_radii[moved] = np.arcsin(sin_new[moved])
    elif bg is Background.HYPERBOLIC:
        moved = u != 0.0
        new_radii[moved] = np.arcsinh(scale[moved] * np.sinh(m.radii[moved]))
    else:
        moved = u != 0.0
        new_radii[moved] = scale[moved] * m.radii[moved]

    new_lengths = m.lengths.copy()
    bad = []
    for e in range(tri.edge_count):
        i, j = tri.edge_endpoints(e)
        if u[i] == 0.0 and u[j] == 0.0:
            continue
        l = m.lengths[e]
        if bg is Background.SPHERICAL:
            c = math.exp(u[i] + u[j]) * (
                math.cos(l) - math.cos(m.radii[i]) * math.cos(m.radii[j])
            ) + math.sqrt(
                (1.0 - scale[i] ** 2 * math.sin(m.radii[i]) ** 2)
                * (1.0 - scale[j] ** 2 * math.sin(m.radii[j]) ** 2)
            )
            if not (-1.0 < c < 1.0):
                bad.append(f"edge {tri.edge_label(e)}: cos of new length = {c}")
                continue
            new_lengths[e] = math.acos(c)
        elif bg is Background.HYPERBOLIC:
            c = math.exp(u[i] + u[j]) * (
                math.cosh(l) - math.cosh(m.radii[i]) * math.cosh(m.radii[j])
            ) + math.sqrt(
                (1.0 + scale[i] ** 2 * math.sinh(m.radii[i]) ** 2)
                * (1.0 + scale[j] ** 2 * math.sinh(m.radii[j]) ** 2)
            )
            if c < 1.0:
                bad.append(f"edge {tri.edge_label(e)}: cosh of new length = {c}")
                continue
            new_lengths[e] = stable_acosh(c)
        else:
            sq = (
                scale[i] ** 2 * m.radii[i] ** 2
                + scale[j] ** 2 * m.radii[j] ** 2
                + math.exp(u[i] + u[j]) * (l * l - m.radii[i] ** 2 - m.radii[j] ** 2)
            )
            if sq <= 0.0:
                bad.append(f"edge {tri.edge_label(e)}: squared new length = {sq}")
                continue
            new_lengths[e] = math.sqrt(sq)
    if bad:
        raise ResultInvalid("conformal change leaves the metric space", bad)

    result = DecoratedMetric(tri, bg, new_lengths, new_radii)
    diagnostics = validate(result)
    if diagnostics:
        raise ResultInvalid("conformally changed metric is invalid", diagnostics)
    return result


# -- heights and lambda-lengths -------------------------------------------------

def heights_from_decoration(m: DecoratedMetric, reference_radius: float | None = None) -> Heights:
    """Apex heights determined by the radii.  Ideal vertices are gauged
    to height zero (canonical auxiliary horosphere)."""
    bg = m.background
    if reference_radius is None and bg is not Background.EUCLIDEAN:
        reference_radius = default_reference_radius(bg)
    h = np.zeros(m.triangulation.vertex_count)
    for v in range(m.triangulation.vertex_count):
        r = m.radii[v]
        if r <= 0:
            continue
        if bg is Background.SPHERICAL:
            h[v] = stable_acosh(1.0 / math.sin(r))
        elif bg is Background.HYPERBOLIC:
            h[v] = math.asinh(1.0 / math.sinh(r))
        else:
            h[v] = -math.log(r)
    return Heights(h, bg, reference_radius if reference_radius is not None else 0.0, m.eps)


def lambda_lengths(m: DecoratedMetric, heights: Heights | None = None) -> Invariant:
    """Fundamental invariant of a decorated metric.

    Edges with two hyperideal endpoints use acosh of the inversive
    distance directly; edges with an ideal endpoint go through the
    heights relation, by default in the canonical (zero ideal heights)
    gauge.  Passing explicit ``heights`` keeps lambda-lengths in a
    caller-maintained horocycle gauge instead.
    """
    check_valid(m, "input of lambda_lengths")
    tri = m.triangulation
    bg = m.background
    eps = m.eps
    h = (heights.h if heights is not None else heights_from_decoration(m).h)
    lam = np.zeros(tri.edge_count)
    for e in range(tri.edge_count):
        i, j = tri.edge_endpoints(e)
        if eps[i] == 1 and eps[j] == 1:
            inv = trig.inversive_distance(bg, m.lengths[e], m.radii[i], m.radii[j])
            lam[e] = _acosh_snapped(inv)
            continue
        l = m.lengths[e]
        if bg is Background.SPHERICAL:
            t = tau(-eps[i], h[i]) * tau(-eps[j], h[j]) - math.cos(l) * tau(eps[i], h[i]) * tau(
                eps[j], h[j]
            )
        elif bg is Background.HYPERBOLIC:
            t = math.cosh(l) * tau(-eps[i], h[i]) * tau(-eps[j], h[j]) - tau(eps[i], h[i]) * tau(
                eps[j], h[j]
            )
        else:
            rho_i, rho_j = math.exp(-h[i]), math.exp(-h[j])
            t = (l * l - eps[i] * rho_i**2 - eps[j] * rho_j**2) / (2.0 * rho_i * rho_j)
        if eps[i] * eps[j] == 1:
            lam[e] = _acosh_snapped(t)
        else:
            if t <= 0:
                raise ResultInvalid(
                    f"edge {tri.edge_label(e)}: non-positive lambda exponential {t}", []
                )
            lam[e] = math.log(2.0 * t)
    return Invariant(tri, lam, eps)


def decoration_from_heights(
    triangulation: Triangulation, invariant: Invariant, heights: Heights
) -> DecoratedMetric:
    """Decorated metric realizing the invariant at the given heights.

    Inverts the heights/lambda relation edge by edge and the
    radius/height identity vertex by vertex, then validates the result.
    Raises HeightsOutOfDomain naming the violated admissibility
    condition.
    """
    bg = heights.background
    eps = invariant.eps
    h = heights.h
    tri = triangulation
    if h.shape != (tri.vertex_count,):
        raise ValueError("height array does not match vertex orbits")
    if invariant.lam.shape != (tri.edge_count,):
        raise ValueError("lambda array does not match edge orbits")

    if bg is not Background.EUCLIDEAN:
        for v in range(tri.vertex_count):
            if eps[v] == 1 and h[v] <= 0:
                raise HeightsOutOfDomain(
                    f"vertex {tri.vertex_label(v)}: hyperideal height {h[v]} <= 0"
                )

    lengths = np.zeros(tri.edge_count)
    for e in range(tri.edge_count):
        i, j = tri.edge_endpoints(e)
        lam = invariant.lam[e]
        ee = eps[i] * eps[j]
        if bg is Background.SPHERICAL:
            if lam >= h[i] + h[j]:
                raise HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: lambda = {lam} >= h_i + h_j = {h[i] + h[j]}"
                )
            c = (tau(-eps[i], h[i]) * tau(-eps[j], h[j]) - tau(ee, lam)) / (
                tau(eps[i], h[i]) * tau(eps[j], h[j])
            )
            if not (-1.0 < c < 1.0):
                raise HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: cosine of induced length is {c}"
                )
            lengths[e] = math.acos(c)
        elif bg is Background.HYPERBOLIC:
            ch = (tau(ee, lam) + tau(eps[i], h[i]) * tau(eps[j], h[j])) / (
                tau(-eps[i], h[i]) * tau(-eps[j], h[j])
            )
            if ch <= 1.0:
                raise HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: cosh of induced length is {ch}"
                )
            lengths[e] = stable_acosh(ch)
        else:
            rho_i, rho_j = math.exp(-h[i]), math.exp(-h[j])
            sq = eps[i] * rho_i**2 + eps[j] * rho_j**2 + 2.0 * rho_i * rho_j * tau(ee, lam)
            if sq <= 0.0:
                raise HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: squared induced length is {sq}"
                )
            lengths[e] = math.sqrt(sq)

    radii = np.zeros(tri.vertex_count)
    for v in range(tri.vertex_count):
        if eps[v] == 0:
            continue
        if bg is Background.SPHERICAL:
            radii[v] = math.asin(1.0 / math.cosh(h[v]))
        elif bg is Background.HYPERBOLIC:
            radii[v] = math.asinh(1.0 / math.sinh(h[v]))
        else:
            radii[v] = math.exp(-h[v])

    result = DecoratedMetric(tri, bg, lengths, radii)
    bad = validate(result)
    if bad:
        raise HeightsOutOfDomain("resulting lengths invalid: " + "; ".join(bad))
    return result


# -- heights <-> weights --------------------------------------------------------

def _omega_sign(background: Background, eps_v: int) -> int:
    # spherical relation couples h to -eps, hyperbolic to +eps
    return eps_v if background is Background.HYPERBOLIC else -eps_v


def omega_map(background: Background, reference_radius: float, heights: Heights) -> np.ndarray:
    """Decoration weights of the invariant surface induced by apex
    heights, for an apex sphere of radius R."""
    if heights.eps is None:
        raise ValueError("heights carry no eps flags")
    norm = (
        math.sinh(reference_radius)
        if background is Background.HYPERBOLIC
        else math.cosh(reference_radius)
    )
    omega = np.zeros_like(heights.h)
    for v, hv in enumerate(heights.h):
        omega[v] = tau(_omega_sign(background, heights.eps[v]), hv) / norm
    return omega


def omega_inverse(
    background: Background, reference_radius: float, omega, eps
) -> Heights:
    """Inverse of omega_map on its image; raises WeightOutOfRange off it."""
    omega = np.asarray(omega, dtype=float)
    eps = np.asarray(eps, dtype=int)
    h = np.zeros_like(omega)
    if background is Background.HYPERBOLIC:
        s = math.sinh(reference_radius)
        for v in range(omega.size):
            t = omega[v] * s
            if omega[v] <= 0 or (eps[v] == 1 and t <= 1.0):
                raise WeightOutOfRange(
                    f"vertex {v}: weight {omega[v]} outside the image of the height map"
                )
            h[v] = math.log(t + math.sqrt(t * t - eps[v]))
    elif background is Background.SPHERICAL:
        c = math.cosh(reference_radius)
        for v in range(omega.size):
            if omega[v] <= 0:
                raise WeightOutOfRange(f"vertex {v}: weight {omega[v]} not positive")
            t = omega[v] * c
            h[v] = math.log(t + math.sqrt(t * t + eps[v]))
    else:
        raise ValueError("omega maps are defined for curved backgrounds only")
    return Heights(h, background, reference_radius, eps)


# -- scale factors ---------------------------------------------------------------

def scale_factors(m: DecoratedMetric, m_new: DecoratedMetric) -> np.ndarray:
    """Logarithmic scale factors turning ``m`` into ``m_new``.

    For hyperideal vertices the factor is read off the radii.  Ideal
    vertices have no radius to compare, so their factors are recovered
    from the shifts of canonically gauged lambda-lengths on incident
    edges (least squares; triangulations always contain odd cycles, so
    the system determines the factors).  Whether the result actually
    reproduces ``m_new`` is the caller's DCE test via conformal_change.
    """
    tri = m.triangulation
    if m_new.triangulation is not tri and m_new.triangulation.gluing != tri.gluing:
        raise NotComparable("metrics live on different triangulations")
    if m.background is not m_new.background:
        raise NotComparable("metrics have different backgrounds")
    eps = m.eps
    if not np.array_equal(eps, m_new.eps):
        raise NotComparable("ideal/hyperideal flags differ")

    u = np.zeros(tri.vertex_count)
    bg = m.background
    for v in range(tri.vertex_count):
        if eps[v] == 1:
            u[v] = math.log(trig.sfac(bg, m_new.radii[v]) / trig.sfac(bg, m.radii[v]))

    ideal = np.where(eps == 0)[0]
    if ideal.size:
        col = {int(v): k for k, v in enumerate(ideal)}
        lam_old = lambda_lengths(m).lam
        lam_new = lambda_lengths(m_new).lam
        rows = []
        rhs = []
        for e in range(tri.edge_count):
            i, j = tri.edge_endpoints(e)
            if eps[i] == 1 and eps[j] == 1:
                continue
            row = np.zeros(ideal.size)
            delta = lam_new[e] - lam_old[e]
            if eps[i] == 0:
                row[col[i]] += 1.0
            if eps[j] == 0:
                row[col[j]] += 1.0
            rows.append(row)
            rhs.append(delta)
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        u[ideal] = sol
    return u
