"""Seeded input generators for the benchmark.

Everything here is built from a ``numpy.random.Generator`` handed in by
the caller, so one seed always yields the same surfaces.  Nothing is
imported from the test suite: the benchmark must keep working when the
tests change.
"""

from __future__ import annotations

import math

import numpy as np

from ddce import Background, DecoratedMetric, Triangulation
from ddce import metric as me


def from_face_vertices(faces) -> Triangulation:
    """Triangulation from vertex-indexed triangles whose directed vertex
    pairs are unique (true for grid tori with n >= 3)."""
    by_pair = {}
    for f, tri in enumerate(faces):
        for s in range(3):
            key = (tri[s], tri[(s + 1) % 3])
            if key in by_pair:
                raise ValueError(f"duplicate directed edge {key}")
            by_pair[key] = (f, s)
    pairs = [(h, by_pair[(v, u)]) for (u, v), h in by_pair.items() if u < v]
    return Triangulation.build_from_gluing(len(faces), pairs)


def grid_faces(n: int) -> list:
    """Faces of the n x n grid torus.  Vertex ``(i, j)`` is ``i * n + j``;
    square ``(i, j)`` is split by its diagonal from ``(i, j)`` to
    ``(i + 1, j + 1)``."""
    faces = []
    for i in range(n):
        for j in range(n):
            v00 = i * n + j
            v10 = ((i + 1) % n) * n + j
            v01 = i * n + (j + 1) % n
            v11 = ((i + 1) % n) * n + (j + 1) % n
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return faces


def grid_torus(n: int) -> Triangulation:
    return from_face_vertices(grid_faces(n))


#: ranges of the lattice shear and height, the vertex radius (as a share
#: of the lattice scale), and the relative length jitter of sheared tori
SHEAR = (0.25, 0.35)
HEIGHT = (0.85, 0.95)
RADIUS = (0.12, 0.16)
JITTER = 0.01


def sheared_lattice_torus(n, background, rng, scale) -> DecoratedMetric:
    """Grid torus whose edge lengths come from the sheared lattice
    ``a = (1, 0)``, ``b = (s, h)`` times ``scale``.

    For ``s > 0`` the built-in diagonal ``a + b`` is the long one and
    faces on it have an obtuse angle, so every diagonal is non-Delaunay
    and the flip pass starts with F/2 flips; the other diagonal ``b - a``
    gives acute triangles.  Shear, height, a relative length jitter and
    the per-vertex radii are drawn from ``rng``.
    """
    tri = grid_torus(n)
    s = rng.uniform(*SHEAR)
    h = rng.uniform(*HEIGHT)
    norms = {"a": 1.0, "b": math.hypot(s, h), "d": math.hypot(1.0 + s, h)}
    lengths = np.zeros(tri.edge_count)
    for f in range(tri.face_count):
        # an even face runs along a, b and back along the diagonal; an odd
        # face along the diagonal, back along a, then back along b
        for slot, kind in enumerate("abd" if f % 2 == 0 else "dab"):
            lengths[tri.edge_index[(f, slot)]] = norms[kind] * scale
    lengths *= 1.0 + rng.uniform(-JITTER, JITTER, size=lengths.size)
    radii = rng.uniform(*RADIUS, size=tri.vertex_count) * scale
    return DecoratedMetric(tri, background, lengths, radii)


def heights_chart_metric(triangulation, background, rng, ideal_fraction=0.0,
                         heights=None, max_tries=400) -> DecoratedMetric:
    """Random valid decorated metric built through the heights chart:
    draw lambda-lengths and heights, realise them, and retry until the
    result validates.  A fixed share ``ideal_fraction`` of the vertices
    (chosen at random) is ideal on a curved background; ``heights``
    overrides the range of the hyperideal heights there."""
    n_v = triangulation.vertex_count
    n_e = triangulation.edge_count
    ref = 0.0 if background is Background.EUCLIDEAN else me.default_reference_radius(background)
    for _ in range(max_tries):
        eps = np.ones(n_v, dtype=int)
        if background is not Background.EUCLIDEAN:
            eps[rng.permutation(n_v)[: round(ideal_fraction * n_v)]] = 0
        lam = rng.uniform(0.15, 0.9, size=n_e)
        if background is Background.SPHERICAL:
            h = rng.uniform(*(heights or (1.0, 1.5)), size=n_v)
        elif background is Background.HYPERBOLIC:
            h = np.where(eps == 1, rng.uniform(*(heights or (0.7, 1.4)), size=n_v),
                         rng.uniform(-0.3, 0.4, size=n_v))
        else:
            h = rng.uniform(-0.4, 0.4, size=n_v)
        inv = me.Invariant(triangulation, lam, eps)
        try:
            m = me.decoration_from_heights(triangulation, inv, me.Heights(h, background, ref, eps))
        except me.HeightsOutOfDomain:
            continue
        if not me.validate(m):
            return m
    raise RuntimeError(f"no valid heights-chart metric in {max_tries} tries")


def checkerboard_targets(rng, n: int, base: float, amplitude: float, jitter: float,
                         zero_mean: bool = False) -> np.ndarray:
    """Cone-angle targets ``2 pi (base + d)`` on the n x n grid torus, with
    ``d = +amplitude`` on one colour of the checkerboard, ``-amplitude`` on
    the other, plus a uniform jitter in ``[-jitter, jitter]``.

    Alternating targets pull neighbouring vertices apart, so the solve
    re-flips edges on its way; the pattern keeps the Newton iteration
    count the same from seed to seed.  ``zero_mean`` shifts ``d`` to sum
    to zero, so a Euclidean target with ``base = 1`` meets Gauss-Bonnet.
    """
    sign = np.array([1.0 if (i + j) % 2 == 0 else -1.0 for i in range(n) for j in range(n)])
    d = amplitude * sign + rng.uniform(-jitter, jitter, size=n * n)
    if zero_mean:
        d -= d.mean()
    return 2.0 * math.pi * (base + d)
