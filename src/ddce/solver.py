"""Newton solver for the prescribed cone-angle problem.

The cone angle at a vertex is the sum of the incident corner angles.
Realizing target angles ``Theta`` within a discrete conformal class is
a variational problem: in the heights chart the discrete
Hilbert-Einstein functional has gradient ``Theta - theta`` and Hessian
``-(L + D)``, where ``L`` is the graph Laplacian of the decorated
cotan weights and ``D`` a diagonal form with entries
``w_ij (cos l_ij - 1)`` (spherical), ``w_ij (cosh l_ij - 1)``
(hyperbolic), or zero (Euclidean).  On weighted Delaunay
triangulations the hyperbolic functional is strictly concave and the
Euclidean one concave with the constant vector as gauge kernel, so a
Newton ascent with backtracking converges; the spherical functional is
not concave and the same loop may stall, which is reported rather than
hidden.

The functional itself is evaluated as a line integral of its exact
gradient from the initial heights (the closed form via hyperbolic
volumes is not needed for optimization).  The line search needs only
the sign of the increase along a trial step: on the concave
backgrounds the gradient slope along the step does not increase, so a
few slopes at nested dyadic nodes bound the increase from both sides
(Riemann sums) and decide the trial, usually with one slope at the end
point.  Spherical trials, and trials whose sampled slopes increase
somewhere or stay undecided after eight, fall back to the sign of an
8-panel Gauss-Legendre quadrature.  The triangulation is
re-flipped to weighted Delaunay after every accepted step, since the
functional is twice continuously differentiable only across Delaunay
charts; lambda-lengths are transported in the running horocycle gauge
so ideal-vertex heights remain ordinary optimization variables.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import delaunay, trig
from .errors import (
    BadParameters,
    HeightsOutOfDomain,
    Infeasible,
    LineSearchStalled,
    MaxIterations,
    PathLeavesDomain,
)
from .metric import (
    DecoratedMetric,
    Heights,
    check_valid,
    decoration_from_heights,
    heights_from_decoration,
    lambda_lengths,
    radius_scale_factor,
    scalar_face_geometries,
)
from .trig import Background

#: smallest admissible backtracking step
MIN_STEP = 2.0**-40

#: relative change at which ``functional_value`` stops doubling panels
FUNCTIONAL_RTOL = 1e-9


def cone_angles(m: DecoratedMetric) -> np.ndarray:
    """Total corner angle around each vertex orbit: the corner angles of
    ``trig.angle_array``, summed with ``np.bincount``, which adds each
    vertex's corners to 0.0 in face and slot order.  Where the array
    kernel overflows, ``metric.scalar_face_geometries`` takes over, and
    it raises the same overflow as a ResultInvalid that names the edge
    or face."""
    tri = m.triangulation
    try:
        angles = trig.angle_array(m.background, m.lengths[tri.face_edge_array])
    except OverflowError:
        angles = np.array([g.angles for g in scalar_face_geometries(m)])
    return np.bincount(tri.face_vertex_array.ravel(), angles.ravel(), tri.vertex_count)


def gauss_bonnet_check(
    background: Background, theta_target, genus: int, vertex_count: int
) -> str:
    """Feasibility of target angles: 'feasible', 'infeasible', or
    'unknown' (spherical targets have no such inequality)."""
    total = float(np.sum(theta_target)) / (2.0 * math.pi)
    bound = 2 * genus - 2 + vertex_count
    if background is Background.HYPERBOLIC:
        return "feasible" if total < bound else "infeasible"
    if background is Background.EUCLIDEAN:
        ok = abs(total - bound) <= 1e-12 * max(1.0, abs(bound))
        return "feasible" if ok else "infeasible"
    return "unknown"


def gradient(m: DecoratedMetric, theta_target) -> np.ndarray:
    """Gradient of the Hilbert-Einstein functional in the heights chart."""
    return np.asarray(theta_target, dtype=float) - cone_angles(m)


def angle_jacobian(m: DecoratedMetric) -> np.ndarray:
    """d(theta)/d(heights), summed corner by corner so self-gluings and
    loop edges fall out correctly.

    Corner s of a face sits on slots s and s + 2, towards corners s + 1
    and s + 2.  Per slot, q is this face's half of the edge weight, over
    the denominator of delaunay.edge_weights (``weight_denominators``,
    finite at tangency), and
    d theta_i = sum_edges q * (K(l) dh_i - dh_other) with K = cos/1/cosh;
    per edge this sums to the Laplacian of the cotan weights plus the
    diagonal (K - 1) form, which is what finite differences of the cone
    angles reproduce.  One ``np.bincount`` adds the entries -q at
    (i, other) and q K at (i, i) face by face, corner by corner, slot s
    before slot s + 2, so every sum is rounded in that order.  The face
    geometry is that of ``m.faces``."""
    bg = m.background
    edges = m.triangulation.face_edge_array
    q = qk = m.faces.d_tangent / delaunay.weight_denominators(m)[edges]
    if bg is not Background.EUCLIDEAN:
        qk = q * bg.arrays.C(m.lengths)[edges]
    n = m.triangulation.vertex_count
    v = m.triangulation.face_vertex_array
    nxt, prv = [1, 2, 0], [2, 0, 1]
    cells = np.stack([v * n + v[:, nxt], v * (n + 1), v * n + v[:, prv], v * (n + 1)], axis=2)
    values = np.stack([-q, qk, -q[:, prv], qk[:, prv]], axis=2)
    return np.bincount(cells.ravel(), values.ravel(), minlength=n * n).reshape(n, n)


def hessian(m: DecoratedMetric) -> np.ndarray:
    """Hessian of the Hilbert-Einstein functional: minus the angle
    Jacobian.  Symmetric; negative definite for hyperbolic weighted
    Delaunay metrics, negative semidefinite with constant kernel in the
    Euclidean case."""
    return -angle_jacobian(m)


# -- functional as a line integral ----------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _slope(chart, theta_target, h_from, direction, s: float) -> float:
    """Derivative of the functional along ``direction`` at
    ``h_from + s * direction``; PathLeavesDomain if that point is not
    valid heights."""
    h = h_from + s * direction
    try:
        m = decoration_from_heights(chart[0], chart[1], Heights(h, *chart[2:]))
    except HeightsOutOfDomain as ex:
        raise PathLeavesDomain(f"at parameter {s:.6f}: {ex}") from ex
    return float(np.dot(theta_target - cone_angles(m), direction))


def _segment_integral(chart, theta_target, h_from, h_to, panels: int) -> float:
    direction = h_to - h_from
    total = 0.0
    for p in range(panels):
        a = p / panels
        b = (p + 1) / panels
        mid = (a + b) / 2.0
        half = (b - a) / 2.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            s = mid + half * node
            total += weight * half * _slope(chart, theta_target, h_from, direction, s)
    return total


def _trial_gain(chart, theta_target, h_from, h_to, grad_from, m_to) -> float:
    """A number whose sign decides a line-search trial ``h_from ->
    h_to``: positive accepts it.  ``grad_from`` is the gradient at
    ``h_from`` and ``m_to`` the metric at ``h_to``.

    On hyperbolic and Euclidean backgrounds the functional is concave,
    so the slope phi'(s) of phi(s) = F(h_from + s (h_to - h_from)) does
    not increase and on k equal panels the gain phi(1) - phi(0) lies
    between the lower Riemann sum L_k = (1/k) sum_{j=1..k} phi'(j/k)
    and the upper one U_k = (1/k) sum_{j=0..k-1} phi'(j/k).  For k = 1,
    2, 4, 8 on nested nodes this returns L_k once L_k > 0 (a certified
    lower bound on the gain) or U_k once U_k <= 0.  phi'(0) and phi'(1)
    come from ``grad_from`` and ``m_to``; every other node costs one
    metric rebuild and one cone-angle sum.  The spherical functional is
    not concave, so there, when the sampled slopes increase somewhere,
    or when k = 8 decides neither way, this returns the 8-panel
    Gauss-Legendre quadrature of the gain instead.  Raises
    PathLeavesDomain if a node is not valid heights.
    """
    if chart[2] is not Background.SPHERICAL:
        direction = h_to - h_from
        slopes = [
            float(np.dot(grad_from, direction)),
            float(np.dot(theta_target - cone_angles(m_to), direction)),
        ]
        k = 1
        while all(a >= b for a, b in zip(slopes, slopes[1:])):
            lower = sum(slopes[1:]) / k
            if lower > 0.0:
                return lower
            upper = sum(slopes[:-1]) / k
            if upper <= 0.0:
                return upper
            if k == 8:
                break
            k *= 2
            refined = [0.0] * (k + 1)
            refined[0::2] = slopes
            refined[1::2] = [
                _slope(chart, theta_target, h_from, direction, j / k) for j in range(1, k, 2)
            ]
            slopes = refined
    return _segment_integral(chart, theta_target, h_from, h_to, panels=8)


def functional_value(m0: DecoratedMetric, heights: Heights, theta_target, via=None) -> float:
    """Hilbert-Einstein functional at ``heights`` relative to the
    decorated metric ``m0`` (whose own heights are the zero point),
    computed as a line integral of the exact gradient along the
    polyline ``m0 -> via... -> heights``.

    The gradient field has a symmetric Jacobian, so the value does not
    depend on the path within the valid-heights domain; panels are
    doubled, up to 64, until the quadrature changes by at most
    ``FUNCTIONAL_RTOL`` relative.  Raises PathLeavesDomain if any node
    leaves the domain.
    """
    check_valid(m0, "base point of functional_value")
    theta_target = np.asarray(theta_target, dtype=float)
    inv = lambda_lengths(m0)
    h0 = heights_from_decoration(m0)
    chart = (m0.triangulation, inv, m0.background, h0.reference_radius, inv.eps)
    points = [h0.h] + [np.asarray(v, dtype=float) for v in (via or [])] + [heights.h]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if not np.any(a != b):
            continue
        panels = 4
        value = _segment_integral(chart, theta_target, a, b, panels)
        while panels < 64:
            refined = _segment_integral(chart, theta_target, a, b, panels * 2)
            if abs(refined - value) <= FUNCTIONAL_RTOL * (1.0 + abs(refined)):
                value = refined
                break
            value = refined
            panels *= 2
        total += value
    return total


# -- Newton iteration -------------------------------------------------------------

@dataclass
class SolveReport:
    """Trace of one Newton solve.  Residuals are recomputable cone-angle
    defects of the reported metric, one before each Newton step and one
    after the last; heights and scale factors are indexed by the vertex
    orbits of the input metric.  Every exit of the Newton loop (a
    converged solve, MaxIterations and LineSearchStalled) fills
    ``vertex_map``, ``final_heights`` and ``scale_factors``; only an
    Infeasible raised before iterating leaves them None.

    ``functional_increase_bounds`` holds one positive number per
    accepted step: a certified lower bound on the functional's increase
    (hyperbolic and Euclidean), or the 8-panel quadrature of the
    increase where the slopes cannot certify it (spherical, and the
    rare fallback of ``_trial_gain``)."""

    background: str = ""
    converged: bool = False
    iterations: int = 0
    residuals: list = field(default_factory=list)
    flips_initial: int = 0
    flips_per_iteration: list = field(default_factory=list)
    functional_increase_bounds: list = field(default_factory=list)
    final_heights: np.ndarray | None = None
    scale_factors: np.ndarray | None = None
    vertex_map: list | None = None
    message: str = ""


def _solve_step(mtx: np.ndarray, rhs: np.ndarray, pin: int | None) -> np.ndarray:
    """The Newton step ``mtx @ step = rhs`` with ``step[pin] = 0`` (every
    index kept when ``pin`` is None); least squares where ``mtx`` is
    singular."""
    keep = [k for k in range(rhs.size) if k != pin]
    out = np.zeros_like(rhs)
    if keep:
        sub = mtx[np.ix_(keep, keep)]
        try:
            out[keep] = np.linalg.solve(sub, rhs[keep])
        except np.linalg.LinAlgError:
            out[keep] = np.linalg.lstsq(sub, rhs[keep], rcond=None)[0]
    return out


def newton_solve(
    m0: DecoratedMetric,
    theta_target,
    tol: float = 1e-10,
    max_iter: int = 50,
):
    """Maximize the Hilbert-Einstein functional until every cone angle
    matches its target within ``tol`` (sup norm).

    ``max_iter`` caps the number of Newton steps.  The residual is
    checked before every step and after the last one, so a solve that
    needs exactly ``max_iter`` steps converges, with ``max_iter + 1``
    residuals.  Each step is a Newton step halved until the functional
    increases along it.  On hyperbolic and Euclidean backgrounds a
    trial is decided from a few gradient slopes along the step, which
    bound the increase from both sides because the functional is
    concave (usually one slope at the end point, at most eight); on
    the sphere, and wherever the slopes cannot decide, by the sign of
    an 8-panel Gauss-Legendre quadrature of the increase.  See
    ``_trial_gain``.

    The heights are the coordinates; a flip pass only changes the
    triangulation chart they are read in.  The input's flip to
    weighted Delaunay and the re-flip after every accepted step are
    the same pass, and each pass that flips (and the first) hands the
    heights, targets and vertex map over to the new chart.

    The result is weighted Delaunay and (Euclidean case) gauge-fixed by
    zero height at the first vertex orbit of the input.  It is
    discretely conformally equivalent to ``m0`` when no accepted step
    re-flips (``report.flips_per_iteration`` all zero): a re-flip
    flips the metric geometrically, which keeps the invariant only
    where the flipped quad is cocircular, so a solve that re-flips may
    end in another conformal class.  Raises Infeasible before
    iterating when the Gauss-Bonnet check rejects the targets, and
    MaxIterations / LineSearchStalled with the partial report attached
    otherwise.  Raises BadParameters for a ``tol`` that is not a finite
    and non-negative number, a ``max_iter`` that is not a non-negative
    integer (a bool is neither), or target angles that are not positive
    and finite.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise BadParameters(f"tol must be finite and non-negative, got {tol!r}")
    if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral) and max_iter >= 0):
        raise BadParameters(f"max_iter must be non-negative and an integer, got {max_iter!r}")
    check_valid(m0, "input of newton_solve")
    tri0 = m0.triangulation
    theta_target = np.asarray(theta_target, dtype=float)
    if theta_target.shape != (tri0.vertex_count,):
        raise BadParameters("target angle array does not match vertex orbits")
    if not np.all((theta_target > 0) & (theta_target < math.inf)):  # NaN fails both
        raise BadParameters("target angles must be positive and finite")
    bg = m0.background
    report = SolveReport(background=bg.name_lower)

    if gauss_bonnet_check(bg, theta_target, tri0.genus, tri0.vertex_count) == "infeasible":
        raise Infeasible(
            "target angles violate the Gauss-Bonnet feasibility condition", report
        )

    h0 = heights_from_decoration(m0)
    ref_r = h0.reference_radius
    h, theta_cur, vmap = h0.h, theta_target, list(range(tri0.vertex_count))
    m, chart, flips = m0, None, []
    while True:
        m, flog = delaunay.flip_to_delaunay(m, track_support=False)
        flips.append(flog.flip_count)
        if chart is None or flog.flip_count:
            # hand the heights over to the chart of the flipped triangulation
            inverse = np.argsort(flog.vertex_map)
            h, theta_cur = h[inverse], theta_cur[inverse]
            vmap = [flog.vertex_map[x] for x in vmap]
            eps = m.eps
            inv = lambda_lengths(m, heights=Heights(h, bg, ref_r, eps))
            chart = (m.triangulation, inv, bg, ref_r, eps)
            pin = vmap[0] if bg is Background.EUCLIDEAN else None

        # m holds the flip pass's geometries: cone_angles(m) would sum
        # their angles the same way
        tri, angles = m.triangulation, m.faces.angles.ravel()
        grad = theta_cur - np.bincount(tri.face_vertex_array.ravel(), angles, tri.vertex_count)
        report.residuals.append(float(np.max(np.abs(grad))))
        if report.residuals[-1] <= tol or len(report.functional_increase_bounds) == max_iter:
            break

        step = _solve_step(angle_jacobian(m), grad, pin)
        s = 1.0
        while s >= MIN_STEP:
            h_trial = h + s * step
            try:
                m_trial = decoration_from_heights(chart[0], chart[1], Heights(h_trial, *chart[2:]))
                gain = _trial_gain(chart, theta_cur, h, h_trial, grad, m_trial)
            except (HeightsOutOfDomain, PathLeavesDomain):
                gain = 0.0
            if gain > 0.0:
                break
            s /= 2.0
        else:
            break  # the line search stalled
        m, h = m_trial, h_trial
        report.functional_increase_bounds.append(gain)

    report.converged = report.residuals[-1] <= tol
    if report.converged and pin is not None and h[pin] != 0.0:
        h = h - h[pin]
        m = decoration_from_heights(chart[0], chart[1], Heights(h, *chart[2:]))
    report.iterations = len(report.functional_increase_bounds)
    report.flips_initial, report.flips_per_iteration = flips[0], flips[1:]
    report.vertex_map = vmap
    report.final_heights = h[vmap]
    radii, radii0 = m.radii.tolist(), m0.radii.tolist()
    u = np.zeros(tri0.vertex_count)
    for v, (e, h_end, h_start) in enumerate(
        zip(m0.eps.tolist(), report.final_heights.tolist(), h0.h.tolist())
    ):
        if e == 0:
            u[v] = h_start - h_end
        else:
            u[v] = radius_scale_factor(bg, radii0[v], radii[vmap[v]])
    report.scale_factors = u

    if report.converged:
        report.message = "converged"
        return m, report
    if report.iterations == max_iter:
        report.message = f"no convergence within {max_iter} iterations"
        raise MaxIterations(report.message, report)
    report.message = "line search stalled"
    if bg is Background.SPHERICAL:
        report.message += " (expected for spherical targets)"
    raise LineSearchStalled(report.message, report)
