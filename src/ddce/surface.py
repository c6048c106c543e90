"""Corner-table surfaces built from glued oriented triangles.

A surface is described by a number of faces and a gluing of their
half-edges.  Face ``f`` has corners ``(f, 0), (f, 1), (f, 2)`` in
counterclockwise order and half-edge ``(f, s)`` runs from corner ``s``
to corner ``(s + 1) % 3``.  A gluing pair ``((f, s), (g, t))``
identifies the two half-edges with opposite orientation, i.e.

    corner (f, s)           ~  corner (g, (t + 1) % 3)
    corner (f, (s + 1) % 3) ~  corner (g, t)

so that all faces keep a consistent orientation.  Self-gluings of a
single face and multiple edges between the same pair of faces are
allowed; vertex triples therefore do not determine edges, which is why
edges are stored as explicit half-edge pairs.

Vertices and edges are derived orbits, each named by its
lexicographically least member.  ``build_from_gluing`` numbers them in
that order (canonical labels), so rebuilding a surface from the same
gluing list always reproduces identical labels.  A flip keeps every
edge and vertex id instead; ``canonical()`` renumbers a flipped
surface, which ``flip_to_delaunay`` does once after its last flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DisconnectedSurface, NonInvolution, NonOrientable, UnflippableSelfGluing

HalfEdge = tuple[int, int]


def _next(h: HalfEdge) -> HalfEdge:
    return (h[0], (h[1] + 1) % 3)


def _prev(h: HalfEdge) -> HalfEdge:
    return (h[0], (h[1] + 2) % 3)


def half_edge_label(h: HalfEdge) -> str:
    return f"{h[0]}:{h[1]}"


def parse_half_edge_label(label: str) -> HalfEdge:
    f, s = label.split(":")
    return (int(f), int(s))


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            ra, rb = min(ra, rb), max(ra, rb)
            self.parent[rb] = ra


@dataclass(frozen=True)
class FlipResult:
    """Outcome of a combinatorial edge flip.

    Every edge and vertex keeps its id: the new diagonal is edge
    ``new_edge``, the id of the flipped edge, and ``quad_boundary_edges``
    holds the ids of the four quad sides.  ``half_edge_map`` holds only
    the six half-edges of the flipped quad, which change identity; every
    other half-edge keeps its own, so look up with
    ``half_edge_map.get(h, h)``.
    """

    triangulation: "Triangulation"
    half_edge_map: dict
    new_edge: int
    quad_boundary_edges: tuple


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Closed oriented triangulated surface, immutable after construction.

    ``build_from_gluing`` numbers edges and vertices canonically;
    ``flip`` keeps the ids of its parent.

    Index tables for the per-face and per-edge loops are derived from
    the edge and vertex orbits when first read and cached on the
    instance (one O(F) pass each); ``flip`` patches its parent's tables
    instead.  ``face_edge_ids[f]`` and ``face_vertex_ids[f]``
    hold the edge and vertex indices of face ``f`` in slot order and
    ``edge_endpoint_ids[e]`` the endpoint vertex indices of edge ``e``,
    as tuples of ints; ``face_edge_array``, ``face_vertex_array``
    (``F x 3``) and ``edge_endpoint_array`` (``E x 2``) hold the same
    data as int arrays for numpy gathers, and ``edge_side_array`` the
    flat slots of ``edges``.
    """

    face_count: int
    gluing: dict = field(repr=False)  # involution on half-edges, both directions
    edges: tuple = field(repr=False)  # half-edge pairs, each sorted
    vertices: tuple = field(repr=False)  # corner orbits as sorted tuples
    edge_index: dict = field(repr=False)  # half-edge -> edge position
    vertex_index: dict = field(repr=False)  # corner -> vertex position
    genus: int = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def build_from_gluing(cls, face_count: int, pairs) -> "Triangulation":
        """Validate a gluing list and derive vertex/edge orbits and genus."""
        half_edges = [(f, s) for f in range(face_count) for s in range(3)]
        gluing: dict = {}
        for pair in pairs:
            (h1, h2) = (tuple(pair[0]), tuple(pair[1]))
            for h in (h1, h2):
                if not (0 <= h[0] < face_count and 0 <= h[1] < 3):
                    raise NonInvolution(f"half-edge {h} out of range")
            if h1 == h2:
                raise NonInvolution(f"half-edge {h1} glued to itself")
            if h1 in gluing or h2 in gluing:
                raise NonInvolution(f"half-edge repeated in pair ({h1}, {h2})")
            gluing[h1] = h2
            gluing[h2] = h1
        missing = [h for h in half_edges if h not in gluing]
        if missing:
            raise NonInvolution(f"unglued half-edges: {missing}")

        uf = _UnionFind(half_edges)  # corners share the (face, slot) key space
        for h1, h2 in gluing.items():
            uf.union(h1, _next(h2))
        vertex_orbits: dict = {}
        for corner in half_edges:
            vertex_orbits.setdefault(uf.find(corner), []).append(corner)
        vertices = tuple(tuple(sorted(v)) for v in sorted(vertex_orbits.values()))

        edges = tuple(sorted(tuple(sorted((h, gluing[h]))) for h in gluing if h <= gluing[h]))
        edge_index = {}
        for idx, (h1, h2) in enumerate(edges):
            edge_index[h1] = idx
            edge_index[h2] = idx
        vertex_index = {}
        for idx, orbit in enumerate(vertices):
            for corner in orbit:
                vertex_index[corner] = idx

        faces_uf = _UnionFind(range(face_count))
        for (f, _s), (g, _t) in gluing.items():
            faces_uf.union(f, g)
        if len({faces_uf.find(f) for f in range(face_count)}) != 1:
            raise DisconnectedSurface("gluing does not connect all faces")

        chi = len(vertices) - len(edges) + face_count
        if chi % 2 != 0:
            raise NonOrientable(f"Euler characteristic {chi} is odd")
        if chi > 2:
            raise NonOrientable(f"Euler characteristic {chi} exceeds 2")

        return cls(
            face_count=face_count,
            gluing=gluing,
            edges=edges,
            vertices=vertices,
            edge_index=edge_index,
            vertex_index=vertex_index,
            genus=(2 - chi) // 2,
        )

    def canonical(self) -> tuple:
        """``(triangulation, edge_map, vertex_map)``: this surface with
        canonical labels, where edge ``k`` is ``edge_map[k]`` and vertex
        ``v`` is ``vertex_map[v]``; faces and half-edges keep their names."""
        canon = Triangulation.build_from_gluing(self.face_count, self.edges)
        edge_map = [canon.edge_index[h] for h, _ in self.edges]
        vertex_map = [canon.vertex_index[orbit[0]] for orbit in self.vertices]
        return canon, edge_map, vertex_map

    # -- stock gluings used throughout the test suite and docs ---------------

    @classmethod
    def double_triangle(cls) -> "Triangulation":
        """Two copies of a triangle glued along corresponding edges (sphere)."""
        return cls.build_from_gluing(2, [((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))])

    @classmethod
    def square_torus(cls) -> "Triangulation":
        """Unit square with opposite sides identified, split by a diagonal.

        Faces ``(A, B, C)`` and ``(A, C, D)``; edge orbit 2 is the diagonal.
        """
        return cls.build_from_gluing(2, [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0))])

    @classmethod
    def genus_two_octagon(cls) -> "Triangulation":
        """Octagon with identification word a b a' b' c d c' d', fanned into
        six triangles from one corner.  One vertex, nine edges, genus two."""
        diagonals = [((i, 2), (i + 1, 0)) for i in range(5)]
        sides = [
            ((0, 0), (1, 1)),  # side 0 ~ side 2 reversed
            ((0, 1), (2, 1)),  # side 1 ~ side 3 reversed
            ((3, 1), (5, 1)),  # side 4 ~ side 6 reversed
            ((4, 1), (5, 2)),  # side 5 ~ side 7 reversed
        ]
        return cls.build_from_gluing(6, diagonals + sides)

    # -- queries --------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def vertex_label(self, v: int) -> str:
        return half_edge_label(self.vertices[v][0])

    def edge_label(self, e: int) -> str:
        return half_edge_label(self.edges[e][0])

    def opposite(self, h: HalfEdge) -> HalfEdge:
        return self.gluing[h]

    def edge_sides(self, e: int) -> tuple:
        """The two half-edges bounding edge ``e`` (may share a face)."""
        return self.edges[e]

    @cached_property
    def face_edge_ids(self) -> tuple:
        slots = [0] * (3 * self.face_count)
        for idx, ((f, s), (g, t)) in enumerate(self.edges):
            slots[3 * f + s] = slots[3 * g + t] = idx
        return tuple(zip(slots[0::3], slots[1::3], slots[2::3]))

    @cached_property
    def face_vertex_ids(self) -> tuple:
        slots = [0] * (3 * self.face_count)
        for idx, orbit in enumerate(self.vertices):
            for f, s in orbit:
                slots[3 * f + s] = idx
        return tuple(zip(slots[0::3], slots[1::3], slots[2::3]))

    @cached_property
    def edge_endpoint_ids(self) -> tuple:
        corners = self.face_vertex_ids
        return tuple((corners[f][s], corners[f][(s + 1) % 3]) for (f, s), _ in self.edges)

    @cached_property
    def face_edge_array(self) -> np.ndarray:
        return np.array(self.face_edge_ids, dtype=np.intp).reshape(self.face_count, 3)

    @cached_property
    def face_vertex_array(self) -> np.ndarray:
        return np.array(self.face_vertex_ids, dtype=np.intp).reshape(self.face_count, 3)

    @cached_property
    def edge_endpoint_array(self) -> np.ndarray:
        return np.array(self.edge_endpoint_ids, dtype=np.intp).reshape(self.edge_count, 2)

    @cached_property
    def edge_side_array(self) -> np.ndarray:
        """``E x 2``: the two half-edges ``(f, s)`` of each edge as flat
        slot indices ``3 f + s``, in ``edge_sides`` order."""
        flat = [3 * f + s for sides in self.edges for f, s in sides]
        return np.array(flat, dtype=np.intp).reshape(self.edge_count, 2)

    def edge_endpoints(self, e: int) -> tuple:
        """Vertex indices of the two endpoints (equal for a loop edge)."""
        return self.edge_endpoint_ids[e]

    def face_edges(self, f: int) -> tuple:
        """Edge indices of face ``f`` in slot order; slot ``s`` spans
        corners ``s`` and ``s + 1``."""
        return self.face_edge_ids[f]

    def face_vertices(self, f: int) -> tuple:
        """Vertex indices at the corners of face ``f`` in slot order."""
        return self.face_vertex_ids[f]

    def is_self_glued_face_edge(self, e: int) -> bool:
        """Edge whose two sides belong to a single face."""
        h1, h2 = self.edges[e]
        return h1[0] == h2[0]

    def is_self_glued_quad(self, e: int) -> bool:
        """Edge whose flip quadrilateral folds onto itself.

        Either a single face is glued to itself along ``e``, or the two
        adjacent faces are glued to each other along all three edges with
        matching corners (the double of a triangle), in which case both
        pairs of adjacent quad boundary edges coincide.
        """
        h1, h2 = self.edges[e]
        if h1[0] == h2[0]:
            return True
        return self.gluing[_next(h1)] == _prev(h2) and self.gluing[_prev(h1)] == _next(h2)

    # -- edge flip ------------------------------------------------------------

    def flip(self, e: int) -> FlipResult:
        """Replace edge ``e`` by the opposite diagonal of its quadrilateral.

        Only the entries of the quad's two faces change, and every edge
        and vertex keeps its id.  A flip keeps the gluing an involution,
        the surface connected and its Euler characteristic, so nothing
        is validated again.

        Refuses self-glued quads: their diagonal is not a well-defined
        combinatorial quadrilateral side swap.
        """
        if self.is_self_glued_quad(e):
            raise UnflippableSelfGluing(
                f"edge {self.edge_label(e)} bounds a self-glued quadrilateral"
            )
        h1, h2 = self.edges[e]
        f, s = h1
        g, t = h2
        # Quad corners: a = (f,s), b = (f,s+1), apex c = (f,s+2), apex d = (g,t+2).
        # New faces: f -> (a, d, c), g -> (d, b, c); new diagonal (f,1)~(g,2).
        relabel = {
            (f, s): (f, 1),
            (g, t): (g, 2),
            _next(h1): (g, 1),   # b -> c side
            _prev(h1): (f, 2),   # c -> a side
            _next(h2): (f, 0),   # a -> d side
            _prev(h2): (g, 0),   # d -> b side
        }
        gluing = dict(self.gluing)
        edge_index = dict(self.edge_index)
        for old, new in relabel.items():
            partner = self.gluing[old]
            gluing[new] = relabel.get(partner, partner)
            if partner not in relabel:
                gluing[partner] = new
            edge_index[new] = self.edge_index[old]
        edges = list(self.edges)
        touched = {self.edge_index[h] for h in relabel}  # the diagonal and the quad sides
        for k in touched:
            edges[k] = tuple(sorted(relabel.get(h, h) for h in self.edges[k]))

        # quad corners a, b, c, d as vertex ids, and where they sit after the flip
        vi = self.vertex_index
        a, b, c, d = vi[h1], vi[_next(h1)], vi[_prev(h1)], vi[_prev(h2)]
        corners = {(f, 0): a, (f, 1): d, (f, 2): c, (g, 0): d, (g, 1): b, (g, 2): c}
        vertex_index = dict(vi)
        vertex_index.update(corners)
        vertices = list(self.vertices)
        for v in {a, b, c, d}:
            outside = [x for x in self.vertices[v] if x[0] != f and x[0] != g]
            vertices[v] = tuple(sorted(outside + [x for x, w in corners.items() if w == v]))

        face_edges = list(self.face_edge_ids)
        face_vertices = list(self.face_vertex_ids)
        for x in (f, g):
            face_edges[x] = (edge_index[(x, 0)], edge_index[(x, 1)], edge_index[(x, 2)])
            face_vertices[x] = (corners[(x, 0)], corners[(x, 1)], corners[(x, 2)])
        endpoints = list(self.edge_endpoint_ids)
        for k in touched:
            h = edges[k][0]
            endpoints[k] = (vertex_index[h], vertex_index[_next(h)])

        new_tri = Triangulation(
            face_count=self.face_count,
            gluing=gluing,
            edges=tuple(edges),
            vertices=tuple(vertices),
            edge_index=edge_index,
            vertex_index=vertex_index,
            genus=self.genus,
        )
        vars(new_tri).update(
            face_edge_ids=tuple(face_edges),
            face_vertex_ids=tuple(face_vertices),
            edge_endpoint_ids=tuple(endpoints),
        )
        return FlipResult(
            triangulation=new_tri,
            half_edge_map=relabel,
            new_edge=e,
            quad_boundary_edges=tuple(
                self.edge_index[h] for h in (_next(h1), _prev(h1), _next(h2), _prev(h2))
            ),
        )
