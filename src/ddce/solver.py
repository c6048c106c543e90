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
volumes is not needed for optimization).  The triangulation is
re-flipped to weighted Delaunay after every accepted step, since the
functional is twice continuously differentiable only across Delaunay
charts; lambda-lengths are transported in the running horocycle gauge
so ideal-vertex heights remain ordinary optimization variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import delaunay, trig
from .errors import (
    HeightsOutOfDomain,
    Infeasible,
    LineSearchStalled,
    MaxIterations,
    PathLeavesDomain,
)
from .metric import (
    DecoratedMetric,
    Heights,
    Invariant,
    check_valid,
    decoration_from_heights,
    default_reference_radius,
    heights_from_decoration,
    lambda_lengths,
)
from .trig import Background

#: smallest admissible backtracking step
MIN_STEP = 2.0**-40


def cone_angles(m: DecoratedMetric) -> np.ndarray:
    """Total corner angle around each vertex orbit."""
    tri = m.triangulation
    theta = np.zeros(tri.vertex_count)
    for f in range(tri.face_count):
        angles = trig.interior_angles(
            m.background, [m.lengths[e] for e in tri.face_edges(f)]
        )
        for s, v in enumerate(tri.face_vertices(f)):
            theta[v] += angles[s]
    return theta


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


def angle_jacobian(m: DecoratedMetric, geoms=None) -> np.ndarray:
    """d(theta)/d(heights), assembled corner by corner so self-gluings
    and loop edges fall out correctly."""
    tri = m.triangulation
    if geoms is None:
        geoms = delaunay.face_geometries(m)
    bg = m.background
    n = tri.vertex_count
    jac = np.zeros((n, n))
    for f in range(tri.face_count):
        geom = geoms[f]
        verts = tri.face_vertices(f)
        for s in range(3):
            i = verts[s]
            for slot, other in ((s, verts[(s + 1) % 3]), ((s + 2) % 3, verts[(s + 2) % 3])):
                length = geom.lengths[slot]
                q = geom.cot_alpha[slot] * (
                    trig.tfac(bg, geom.r_section[slot]) / trig.sfac(bg, length)
                )
                # d theta_i = sum_edges q * (K(l) dh_i - dh_other); per edge
                # this sums to the Laplacian of the cotan weights plus the
                # diagonal (K - 1) form, which is what finite differences
                # of the cone angles reproduce.
                jac[i, other] -= q
                jac[i, i] += q * trig.cfac(bg, length)
    return jac


def hessian(m: DecoratedMetric, geoms=None) -> np.ndarray:
    """Hessian of the Hilbert-Einstein functional: minus the angle
    Jacobian.  Symmetric; negative definite for hyperbolic weighted
    Delaunay metrics, negative semidefinite with constant kernel in the
    Euclidean case."""
    return -angle_jacobian(m, geoms)


# -- functional as a line integral ----------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


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
            h = h_from + s * direction
            try:
                m = decoration_from_heights(chart[0], chart[1], Heights(h, *chart[2:]))
            except HeightsOutOfDomain as ex:
                raise PathLeavesDomain(f"at parameter {s:.6f}: {ex}") from ex
            g = theta_target - cone_angles(m)
            total += weight * half * float(np.dot(g, direction))
    return total


def functional_value(
    m0: DecoratedMetric,
    heights: Heights,
    theta_target,
    via=None,
    rtol: float = 1e-9,
) -> float:
    """Hilbert-Einstein functional at ``heights`` relative to the
    decorated metric ``m0`` (whose own heights are the zero point),
    computed as a line integral of the exact gradient along the
    polyline ``m0 -> via... -> heights``.

    The gradient field has a symmetric Jacobian, so the value does not
    depend on the path within the valid-heights domain; panels are
    doubled until the quadrature stabilizes.  Raises PathLeavesDomain
    if any node leaves the domain.
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
            if abs(refined - value) <= rtol * (1.0 + abs(refined)):
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
    defects of the reported metric; heights and scale factors are
    indexed by the vertex orbits of the input metric."""

    background: str = ""
    converged: bool = False
    iterations: int = 0
    residuals: list = field(default_factory=list)
    flips_initial: int = 0
    flips_per_iteration: list = field(default_factory=list)
    functional_increases: list = field(default_factory=list)
    final_heights: np.ndarray | None = None
    scale_factors: np.ndarray | None = None
    vertex_map: list | None = None
    message: str = ""


def _solve_step(mtx: np.ndarray, rhs: np.ndarray, pin: int | None) -> np.ndarray:
    if pin is not None:
        keep = [k for k in range(rhs.size) if k != pin]
        if not keep:
            return np.zeros_like(rhs)
        sub = mtx[np.ix_(keep, keep)]
        try:
            sol = np.linalg.solve(sub, rhs[keep])
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(sub, rhs[keep], rcond=None)
        out = np.zeros_like(rhs)
        out[keep] = sol
        return out
    try:
        return np.linalg.solve(mtx, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(mtx, rhs, rcond=None)
        return sol


def newton_solve(
    m0: DecoratedMetric,
    theta_target,
    tol: float = 1e-10,
    max_iter: int = 50,
):
    """Maximize the Hilbert-Einstein functional until every cone angle
    matches its target within ``tol`` (sup norm).

    The result is discretely conformally equivalent to ``m0``, weighted
    Delaunay, and (Euclidean case) gauge-fixed by zero height at the
    first vertex orbit of the input.  Raises Infeasible before
    iterating when the Gauss-Bonnet check rejects the targets, and
    MaxIterations / LineSearchStalled with the partial report attached
    otherwise.
    """
    check_valid(m0, "input of newton_solve")
    tri0 = m0.triangulation
    theta_target = np.asarray(theta_target, dtype=float)
    if theta_target.shape != (tri0.vertex_count,):
        raise ValueError("target angle array does not match vertex orbits")
    if np.any(theta_target <= 0):
        raise ValueError("target angles must be positive")
    bg = m0.background
    report = SolveReport(background=bg.name_lower)

    if gauss_bonnet_check(bg, theta_target, tri0.genus, tri0.vertex_count) == "infeasible":
        raise Infeasible(
            "target angles violate the Gauss-Bonnet feasibility condition", report
        )

    m, flog = delaunay.flip_to_delaunay(m0)
    report.flips_initial = flog.flip_count
    vmap = list(flog.vertex_map)
    theta_cur = np.empty_like(theta_target)
    theta_cur[vmap] = theta_target

    ref_r = default_reference_radius(bg) if bg is not Background.EUCLIDEAN else 0.0
    h = heights_from_decoration(m).h
    h_start = h.copy()  # in the running vertex labeling of this moment
    h_start_orig = h[vmap]
    eps = m.eps
    lam = lambda_lengths(m).lam
    pin = vmap[0] if bg is Background.EUCLIDEAN else None

    converged = False
    for _ in range(max_iter):
        theta = cone_angles(m)
        res = float(np.max(np.abs(theta_cur - theta)))
        report.residuals.append(res)
        if res <= tol:
            converged = True
            break
        geoms = delaunay.face_geometries(m)
        step = _solve_step(angle_jacobian(m, geoms), theta_cur - theta, pin)

        chart = (m.triangulation, Invariant(m.triangulation, lam, eps), bg, ref_r, eps)
        s = 1.0
        accepted = False
        while s >= MIN_STEP:
            h_trial = h + s * step
            try:
                m_trial = decoration_from_heights(
                    m.triangulation, chart[1], Heights(h_trial, bg, ref_r, eps)
                )
                gain = _segment_integral(chart, theta_cur, h, h_trial, panels=8)
            except (HeightsOutOfDomain, PathLeavesDomain):
                s /= 2.0
                continue
            if gain > 0.0:
                accepted = True
                break
            s /= 2.0
        if not accepted:
            report.iterations = len(report.residuals) - 1
            report.message = "line search stalled (expected for spherical targets)"
            _finalize(report, m0, m, vmap, h, h_start_orig)
            raise LineSearchStalled(report.message, report)

        m, h = m_trial, h_trial
        report.functional_increases.append(gain)

        m, flog = delaunay.flip_to_delaunay(m)
        report.flips_per_iteration.append(flog.flip_count)
        if flog.flip_count:
            new_h = np.empty_like(h)
            new_h[flog.vertex_map] = h
            h = new_h
            theta_new = np.empty_like(theta_cur)
            theta_new[flog.vertex_map] = theta_cur
            theta_cur = theta_new
            vmap = [flog.vertex_map[x] for x in vmap]
            eps = m.eps
            lam = lambda_lengths(m, heights=Heights(h, bg, ref_r, eps)).lam
            pin = vmap[0] if bg is Background.EUCLIDEAN else None

    if not converged:
        report.iterations = len(report.residuals)
        report.message = f"no convergence within {max_iter} iterations"
        _finalize(report, m0, m, vmap, h, h_start_orig)
        raise MaxIterations(report.message, report)

    if bg is Background.EUCLIDEAN and h[pin] != 0.0:
        h = h - h[pin]
        m = decoration_from_heights(
            m.triangulation, Invariant(m.triangulation, lam, eps), Heights(h, bg, ref_r, eps)
        )

    report.converged = True
    report.iterations = len(report.residuals) - 1
    report.message = "converged"
    _finalize(report, m0, m, vmap, h, h_start_orig)
    return m, report


def _finalize(report: SolveReport, m0, m, vmap, h, h_start_orig) -> None:
    report.vertex_map = list(vmap)
    report.final_heights = h[vmap]
    bg = m0.background
    eps0 = m0.eps
    u = np.zeros(m0.triangulation.vertex_count)
    for v in range(m0.triangulation.vertex_count):
        if eps0[v] == 0:
            u[v] = report.final_heights[v] - h_start_orig[v]
        else:
            u[v] = math.log(trig.sfac(bg, m.radii[vmap[v]]) / trig.sfac(bg, m0.radii[v]))
    report.scale_factors = u
