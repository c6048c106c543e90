"""Exception types shared across the package."""


class DDCEError(Exception):
    """Base class for all errors raised by this package."""


# -- surface combinatorics ---------------------------------------------------

class NonInvolution(DDCEError):
    """A half-edge is missing, repeated, or glued to itself, or the
    gluing or its face count is malformed."""


class DisconnectedSurface(DDCEError):
    """The faces do not form a single connected surface."""


class UnflippableSelfGluing(DDCEError):
    """The edge bounds a self-glued quadrilateral and cannot be flipped."""


# -- per-triangle geometry ---------------------------------------------------

class DegenerateTriangle(DDCEError):
    """Triangle inequality (or spherical range condition) violated."""


class ZeroRadius(DDCEError):
    """Inversive distance is undefined for a vanishing radius."""


class FlipGeometryInvalid(DDCEError):
    """A flip's quad is concave, or its new diagonal's vertex circles
    intersect or one of its two new faces is degenerate."""


# -- metrics and heights -----------------------------------------------------

class ScaleOutOfDomain(DDCEError):
    """Spherical conformal factor leaves the admissible range."""


class ResultInvalid(DDCEError):
    """A derived metric fails validation; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class HeightsOutOfDomain(DDCEError):
    """Heights violate the admissibility conditions for the background."""


class WeightOutOfRange(DDCEError):
    """A decoration weight lies outside the image of the height map."""


class NotComparable(DDCEError):
    """Two metrics, or a metric and its heights, do not share
    triangulation, background, or flags."""


class PathLeavesDomain(DDCEError):
    """An integration path exits the valid-heights domain."""


# -- Delaunay / solver -------------------------------------------------------

class NotDelaunay(DDCEError):
    """Operation requires a weighted Delaunay triangulation."""


class FlipBoundExceeded(DDCEError, RuntimeError):
    """The flip algorithm exceeded its safety bound on the flip count."""


class SolverError(DDCEError):
    """Base class for failures of the cone-angle solver, carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class Infeasible(SolverError):
    """Target angles fail the Gauss-Bonnet feasibility condition."""


class MaxIterations(SolverError):
    """Newton iteration did not converge within the allowed steps."""


class LineSearchStalled(SolverError):
    """Backtracking line search underflowed without making progress."""


# -- caller arguments --------------------------------------------------------

class BadParameters(DDCEError, ValueError):
    """A caller's argument is malformed, not a number, or outside its
    documented range: an array whose shape does not match the vertex or
    edge orbits, heights without eps flags, a background the call is
    not defined for, an unknown background name, an ``acosh`` argument
    below 1, transition parameters that are not finite, >= 1 and
    strictly increasing, a tolerance that is not finite and
    non-negative, an iteration cap that is not a non-negative integer,
    target angles that are not positive and finite.  It is a ValueError
    too, as Python's own argument rejections are."""
