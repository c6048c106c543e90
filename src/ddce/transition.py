"""Geometric transitions: deform a decorated spherical or hyperbolic
metric toward a Euclidean one along its fundamental invariant.

Scaling the decoration weights of the invariant surface by ``t >= 1``
traces a family of heights ``h^t = omega_inverse(t * w)``, where ``w``
are the weights of ``h^1`` (``metric.omega_map``, held on the heights
as ``Heights.weights``), whose induced metrics all share the same
lambda-lengths and the same weighted Delaunay combinatorics.  As ``t``
grows every height diverges, edge lengths shrink, face angle sums
approach pi, and the decorated cotan weights converge to their
Euclidean values: the family limits to a decorated piecewise Euclidean
metric.

The limit is parametrized by cusp heights ``hh_i``, the heights of the
convex polyhedral cusp over the invariant surface, defined up to a
common constant and pinned here by ``hh = 0`` at the first vertex.
They are the limits of ``h_i^t - h_{v0}^t``, explicitly
``ln tau(h^1_i) - ln tau(h^1_{v0})`` with the tau-sign of the origin
background, and determine the Euclidean metric through
``r = exp(-hh)`` and the shared lambda-lengths.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import delaunay
from .errors import BadParameters, DDCEError
from .metric import (
    DecoratedMetric,
    Heights,
    Invariant,
    decoration_from_heights,
    fill_faces,
    heights_from_decoration,
    lambda_lengths,
    omega_inverse,
    tau,
)
from .trig import Background


def scale_family(h1: Heights, t: float) -> Heights:
    """Heights of the weight-scaled decoration, ``t >= 1``.  Increasing
    componentwise in ``t``; the gauge radius cancels.  The weights of
    ``h1`` are its ``Heights.weights``, evaluated once however many
    parameters a family takes."""
    if t < 1.0:
        raise BadParameters("scale parameter must be >= 1")
    if h1.background is Background.EUCLIDEAN:
        raise BadParameters("scale families start from a curved background")
    with np.errstate(over="ignore"):  # omega_inverse refuses an infinite weight by vertex
        omega = t * h1.weights
    return omega_inverse(h1.background, h1.reference_radius, omega, h1.eps)


def cusp_heights(h1: Heights) -> np.ndarray:
    """Euclidean-limit cusp heights, gauged to zero at vertex 0, with the
    tau-sign of the background of ``h1``.  Euclidean heights raise
    BadParameters: a scale family starts from a curved background."""
    if h1.background is Background.EUCLIDEAN:
        raise BadParameters("cusp heights start from a curved background")
    sign = 1 if h1.background is Background.HYPERBOLIC else -1
    logs = np.array(
        [math.log(tau(sign * e, hv)) for e, hv in zip(h1.eps.tolist(), h1.h.tolist())]
    )
    return logs - logs[0]


def euclidean_limit(invariant: Invariant, h1: Heights) -> tuple[DecoratedMetric, np.ndarray]:
    """Limit decorated Euclidean metric of the scale family, on the
    triangulation of ``invariant``, together with its cusp heights."""
    hh = cusp_heights(h1)
    metric = decoration_from_heights(
        invariant.triangulation, invariant, Heights(hh, Background.EUCLIDEAN, 0.0, invariant.eps)
    )
    return metric, hh


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    max_angle_defect: float
    max_weight_deviation: float


@dataclass
class TransitionPath:
    """A sampled transition family: the shared invariant, the heights and
    induced metrics per parameter, and the Euclidean limit data."""

    invariant: Invariant
    background: Background
    ts: list = field(default_factory=list)
    heights: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    cusp_heights: np.ndarray | None = None
    euclidean_metric: DecoratedMetric | None = None
    rows: list = field(default_factory=list)


def build_transition(m: DecoratedMetric, ts) -> TransitionPath:
    """Evaluate the scale family of a curved decorated metric at the
    given parameters (each >= 1, strictly increasing) and compare
    against the Euclidean limit.  Raises BadParameters when ``ts`` is
    not a sequence of real numbers (bools are not) that are finite,
    >= 1 and strictly increasing.

    The metric is flipped to weighted Delaunay first; weight scaling
    preserves the weighted Delaunay property, so one triangulation
    serves the whole family.  Per row the diagnostics report the
    largest face angle-sum defect |anglesum - pi| and the largest
    deviation of the decorated cotan weights from the Euclidean weights
    of the limit metric.

    The rows' face geometry is evaluated in one array pass over all of
    them (``metric.fill_faces``), with the floats of each row's own
    ``faces``.  An error is that of the first row that fails, as if the
    rows were evaluated one after another: the rows before it are built
    and read first.
    """
    bg = m.background
    if bg is Background.EUCLIDEAN:
        raise BadParameters("transition families start from a curved background")
    ts = list(ts) if isinstance(ts, Iterable) else None
    if ts is None or not all(isinstance(t, numbers.Real) and not isinstance(t, bool) for t in ts):
        raise BadParameters("parameters must be a sequence of real numbers")
    ts = [float(t) for t in ts]
    if not all(1.0 <= t < math.inf for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise BadParameters("parameters must be finite, >= 1 and strictly increasing")

    # the flip log and its support values go unused here
    m_del, _ = delaunay.flip_to_delaunay(m, track_support=False)
    tri = m_del.triangulation
    h1 = heights_from_decoration(m_del)
    inv = lambda_lengths(m_del)
    path = TransitionPath(invariant=inv, background=bg)
    m_euc, hh = euclidean_limit(inv, h1)
    path.cusp_heights = hh
    path.euclidean_metric = m_euc
    w_euc = delaunay.edge_weights(m_euc)

    held = None  # the error of the first row that fails to build, raised after the rows before it
    for t in ts:
        try:
            ht = scale_family(h1, t)
            mt = decoration_from_heights(tri, inv, ht)
        except (DDCEError, ArithmeticError) as ex:
            held = ex
            break
        path.ts.append(t)
        path.heights.append(ht)
        path.metrics.append(mt)
    fill_faces(path.metrics)
    for t, mt in zip(path.ts, path.metrics):
        angles = mt.faces.angles
        defect = max(np.abs(angles[:, 0] + angles[:, 1] + angles[:, 2] - math.pi).tolist())
        wdev = float(np.max(np.abs(delaunay.edge_weights(mt) - w_euc)))
        path.rows.append(DiagnosticsRow(t, defect, wdev))
    if held is not None:
        raise held
    return path

