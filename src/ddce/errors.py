"""Exception types shared across the package."""


class DDCEError(Exception):
    """Base class for all errors raised by this package."""


# -- surface combinatorics ---------------------------------------------------

class NonInvolution(DDCEError):
    """A half-edge is missing, repeated, or glued to itself, or the
    gluing or its face count is malformed."""


class NonOrientable(DDCEError):
    """The gluing does not describe a closed oriented surface."""


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
    """The triangles produced by a flip violate metric constraints."""


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
    """Two metrics do not share triangulation, background, or flags."""


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


# -- transitions -------------------------------------------------------------

class BadParameters(DDCEError, ValueError):
    """Transition parameters are not finite, >= 1 and strictly increasing."""
