"""Decorated discrete conformal equivalence of piecewise spherical,
Euclidean, and hyperbolic surfaces.

The package computes with decorated metrics (edge lengths plus
vertex-circle radii) on closed oriented triangulated surfaces: it
validates them, maintains weighted Delaunay triangulations by edge
flips, extracts the fundamental discrete conformal invariant
(lambda-lengths), solves the prescribed cone-angle problem by
maximizing the discrete Hilbert-Einstein functional, and deforms
metrics between background geometries along a shared invariant.
"""

from .surface import Triangulation
from .trig import Background, TriangleGeometry
from .metric import DecoratedMetric, Heights, Invariant

__all__ = [
    "Background",
    "DecoratedMetric",
    "Heights",
    "Invariant",
    "Triangulation",
    "TriangleGeometry",
]

__version__ = "0.1.0"
