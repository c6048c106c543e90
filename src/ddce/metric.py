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
A conformal change keeps the invariant and moves only the heights:
scaling by ``e^u`` multiplies ``tau(-eps_i, h_i)`` by ``e^-u_i``, so an
ideal or Euclidean height moves to ``h_i - u_i``, and
``conformal_change`` is ``decoration_from_heights`` at the moved
heights.
The maps between heights and decoration weights (``omega_map`` /
``omega_inverse``) share the single primitive

    tau_y(x) = (exp(x) + y exp(-x)) / 2,   y in {-1, 0, 1}.

The height maps (``decoration_from_heights``, ``omega_map``,
``omega_inverse``) evaluate a whole surface per call: numpy or plain
float arithmetic with every transcendental a scalar ``math`` call, so
the floats are those of a vertex-by-vertex and edge-by-edge
evaluation, bit for bit, and an invalid input raises the error of the
first failing vertex or edge in index order.
"""

from __future__ import annotations

import errno
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial

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


#: largest arguments at which math.exp, math.cosh and math.sinh, and
#: ``x ** 2``, are finite: at a finite argument above, they raise
#: OverflowError
_EXP_MAX = math.log(sys.float_info.max)
_COSH_MAX = math.acosh(sys.float_info.max)
_SQUARE_MAX = math.sqrt(sys.float_info.max)


def _each_below(fn, x, top):
    """``trig.each(fn, x)`` and the mask of the finite ``x`` above
    ``top``, where the scalar call would raise OverflowError: those are
    evaluated at 0 instead."""
    over = x > top
    if np.count_nonzero(over):
        over &= x < math.inf
        x = np.where(over, 0.0, x)
    return trig.each(fn, x), over


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
    """Per-edge lengths and per-vertex radii on a triangulation, held as
    read-only float arrays, so that ``validate`` need look only once.
    An array that is already read-only, float64 and owns its data is
    kept as it is, so flips share their parent's radii; anything else
    is copied."""

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
            raise ValueError("length array does not match edge orbits")
        if self.radii.shape != (self.triangulation.vertex_count,):
            raise ValueError("radius array does not match vertex orbits")

    @cached_property
    def _diagnostics(self) -> tuple:
        """What ``validate`` reports, computed on first read."""
        return tuple(_diagnose(self))

    @property
    def eps(self) -> np.ndarray:
        """1 for hyperideal vertices (r > 0), 0 for ideal ones."""
        return (self.radii > 0).astype(int)

    def face_triangle(self, f: int) -> trig.DecoratedTriangle:
        tri = self.triangulation
        l, r = self.lengths, self.radii
        ea, eb, ec = tri.face_edge_ids[f]
        va, vb, vc = tri.face_vertex_ids[f]
        return trig.DecoratedTriangle(
            self.background,
            (float(l[ea]), float(l[eb]), float(l[ec])),
            (float(r[va]), float(r[vb]), float(r[vc])),
        )


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
    2 r_i < l_ii); triangle-level conditions per face.  Computed on the
    first call; later calls return a new list of the same strings."""
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
    # one vectorised gate per constraint group; messages are built only
    # for the flagged vertices, edges and faces, in index order
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
    for e in (r[ends[:, 0]] + r[ends[:, 1]] > l).nonzero()[0]:
        i, j = tri.edge_endpoints(e)
        out.append(
            f"edge {tri.edge_label(e)}: vertex circles intersect "
            f"(r_i + r_j = {r[i] + r[j]} > l = {l[e]})"
        )
    # faces whose DecoratedTriangle.violations() reports more than circle
    # intersections (already reported per edge): degenerate side lengths
    # or a bad corner radius
    flagged = trig.degenerate_rows(m.background, l[tri.face_edge_array])
    if np.count_nonzero(bad_radius):
        flagged |= bad_radius[tri.face_vertex_array].any(axis=1)
    for f in flagged.nonzero()[0]:
        for msg in m.face_triangle(f).violations():
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
        raise ValueError("scale factor array does not match vertex orbits")
    try:
        inv = lambda_lengths(m)
        moved = decoration_from_heights(
            tri, inv, Heights(_scaled_heights(m, u.tolist()), m.background, 0.0)
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
    gauge.  Passing explicit ``heights`` keeps lambda-lengths in a
    caller-maintained horocycle gauge instead.

    Raises ResultInvalid when an edge's inversive distance or lambda
    exponential is not finite, which includes a denominator that
    underflows to zero (radii near 1e-300 make their product 0).
    """
    check_valid(m, "input of lambda_lengths")
    tri = m.triangulation
    bg = m.background
    eps = m.eps.tolist()
    h = (heights.h if heights is not None else heights_from_decoration(m).h).tolist()
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

    Errors are located in index order, as edge by edge: the first
    hyperideal vertex with height <= 0; else the first edge where a
    check fails, with that edge's first failing check of: spherical
    ``lambda >= h_i + h_j``, an exponential (or a Euclidean ``rho**2``,
    or an end's radius on a tangent edge) that overflows
    (OverflowError), a denominator that underflows to 0, the induced
    length's domain; else ``validate``.  Every failure but an overflow
    raises HeightsOutOfDomain naming the violated condition.
    """
    bg = heights.background
    tri = triangulation
    h, lam = heights.h, invariant.lam
    if h.shape != (tri.vertex_count,):
        raise ValueError("height array does not match vertex orbits")
    if lam.shape != (tri.edge_count,):
        raise ValueError("lambda array does not match edge orbits")
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
        exps, over = _each_below(math.exp, args, _EXP_MAX)
        e_h, e_mh, e_lam, e_mlam = exps[:V], exps[V:2 * V], exps[2 * V:-E], exps[-E:]
        tau_lam = (e_lam + e_mlam) / 2.0
        if curved:
            plus, minus = (e_h + e_mh) / 2.0, (e_h - e_mh) / 2.0  # tau(eps, h), tau(-eps, h)
            fn, arc = (math.cosh, math.asin) if spherical else (math.sinh, math.asinh)
            cosh_h, over_r = _each_below(fn, np.where(hyper, h, math.inf), _COSH_MAX)
            radii = trig.each(arc, 1.0 / cosh_h)  # 0 at ideal vertices
            if spherical:
                den = plus[i] * plus[j]
                x = (minus[i] * minus[j] - tau_lam) / den
                bad, what = ~(np.abs(x) < 1.0), "cosine of induced length"
            else:
                den = minus[i] * minus[j]
                x = (tau_lam + plus[i] * plus[j]) / den
                bad, what = x <= 1.0, "cosh of induced length"
            unevaluable = den == 0.0  # a tau underflows
        else:
            radii, over_r = np.where(hyper, e_mh, 0.0), over[V:2 * V] & hyper
            rho_sq, over_sq = _each_below(partial(pow, exp=2), e_mh, _SQUARE_MAX)
            eps_rho_sq, two_rho = hyper.astype(float) * rho_sq, 2.0 * e_mh
            x = eps_rho_sq[i] + eps_rho_sq[j] + two_rho[i] * e_mh[j] * tau_lam
            bad, what = x <= 0.0, "squared induced length"
            unevaluable = over_sq[i] | over_sq[j]  # rho ** 2 overflows
        far = lam >= h[i] + h[j] if spherical else np.zeros(E, bool)
        # a radius overflows only where e^h (e^-h, Euclidean) does, so
        # every edge at such a vertex fails the overflow check
        if np.count_nonzero(over) or np.count_nonzero(bad | unevaluable | far):
            over_v = over[:V] | over[V:2 * V]
            checks = [  # (failing edges, error at edge e), in the per-edge order
                (far, lambda e: HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: lambda = {lam[e]} >= h_i + h_j = {h[i[e]] + h[j[e]]}"
                )),
                (np.where(tangent, over_r[i] | over_r[j], over_v[i] | over_v[j] | over[2 * V:-E]
                          | over[-E:]), lambda e: OverflowError("math range error")),
                (unevaluable & ~tangent, lambda e: HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: {what} has a denominator that underflows to 0"
                ) if curved else OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))),
                (bad & ~tangent, lambda e: HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: {what} is {x[e]}"
                )),
            ]
            failed = np.logical_or.reduce([mask for mask, _ in checks]).nonzero()[0]
            if failed.size:
                e = int(failed[0])
                raise next(error(e) for mask, error in checks if mask[e])
        touching = np.count_nonzero(tangent)
        if curved:
            if not spherical:  # stable_acosh
                x = x - 1.0
                x = x + np.sqrt(x * (x + 2.0))
            lengths = trig.each(
                math.acos if spherical else math.log1p, np.where(tangent, 0.0, x) if touching else x
            )
        else:
            lengths = np.sqrt(x)
        if touching:  # exactly r_i + r_j, which the inversion can miss by an ulp
            lengths = np.where(tangent, radii[i] + radii[j], lengths)

    lengths.flags.writeable = radii.flags.writeable = False  # fresh: the metric keeps them
    result = DecoratedMetric(tri, bg, lengths, radii)
    bad = validate(result)
    if bad:
        raise HeightsOutOfDomain("resulting lengths invalid: " + "; ".join(bad))
    return result


# -- heights <-> weights --------------------------------------------------------

def omega_map(background: Background, reference_radius: float, heights: Heights) -> np.ndarray:
    """Decoration weights of the invariant surface induced by apex
    heights, for an apex sphere of radius R: ``tau(+-eps_v, h_v) / n``
    with ``n = sinh R`` (hyperbolic, sign +) or ``cosh R`` (spherical,
    sign -).  The whole surface is one pass of scalar ``math``
    arithmetic over plain floats, vertex by vertex, so an exponential
    that overflows raises OverflowError at the first such vertex."""
    if heights.eps is None:
        raise ValueError("heights carry no eps flags")
    if background is Background.HYPERBOLIC:
        norm, sign = math.sinh(reference_radius), 1
    else:
        norm, sign = math.cosh(reference_radius), -1
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
        raise ValueError("omega maps are defined for curved backgrounds only")
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
    Raises ResultInvalid naming the vertex when a hyperbolic radius is
    too large for ``sinh``.
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
    for v, (r_old, r_new) in enumerate(zip(m.radii.tolist(), m_new.radii.tolist())):
        if eps[v] == 1:
            try:
                u[v] = radius_scale_factor(bg, r_old, r_new)
            except OverflowError:
                raise ResultInvalid(
                    f"vertex {tri.vertex_label(v)}: sinh of radius {max(r_old, r_new)} overflows", []
                ) from None

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
