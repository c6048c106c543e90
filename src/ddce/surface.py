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

Vertices and edges are derived orbits.  Both are labeled by their
lexicographically least member, so rebuilding a surface from the same
gluing list always reproduces identical labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    ``edge_map``/``vertex_map`` send old orbit indices to new ones.
    ``half_edge_map`` holds only the six half-edges of the flipped quad,
    which change identity; every other half-edge keeps its own, so look
    up with ``half_edge_map.get(h, h)``.  The flipped diagonal itself
    maps to ``new_edge``.
    """

    triangulation: "Triangulation"
    half_edge_map: dict
    edge_map: list
    vertex_map: list
    new_edge: int
    quad_boundary_edges: tuple


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Closed oriented triangulated surface, immutable after construction."""

    face_count: int
    gluing: dict = field(repr=False)  # involution on half-edges, both directions
    edges: tuple = field(repr=False)  # canonical half-edge pairs, sorted
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

    def edge_endpoints(self, e: int) -> tuple:
        """Vertex indices of the two endpoints (equal for a loop edge)."""
        h = self.edges[e][0]
        return (self.vertex_index[h], self.vertex_index[_next(h)])

    def face_edges(self, f: int) -> tuple:
        """Edge indices of face ``f`` in slot order; slot ``s`` spans
        corners ``s`` and ``s + 1``."""
        return tuple(self.edge_index[(f, s)] for s in range(3))

    def face_vertices(self, f: int) -> tuple:
        """Vertex indices at the corners of face ``f`` in slot order."""
        return tuple(self.vertex_index[(f, s)] for s in range(3))

    def quad_corners(self, e: int):
        """Corners ``(a, b, c, d)`` of the quadrilateral around edge ``e``:
        the edge runs a -> b, ``c`` is the apex on the side of the canonical
        half-edge and ``d`` the apex on the other side."""
        h1, h2 = self.edges[e]
        return (h1, _next(h1), _prev(h1), _prev(h2))

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
        pairs = []
        seen = set()
        for old1, old2 in self.gluing.items():
            if old1 in seen or old2 in seen:
                continue
            seen.update((old1, old2))
            pairs.append((relabel.get(old1, old1), relabel.get(old2, old2)))
        new_tri = Triangulation.build_from_gluing(self.face_count, pairs)

        edge_map = [new_tri.edge_index[relabel.get(h, h)] for h, _ in self.edges]
        # where the corners of the quad sit after the flip; others stay put
        corners = {
            h1: (f, 0),          # a
            _next(h1): (g, 1),   # b
            _prev(h1): (f, 2),   # c (also (g, 2))
            h2: (g, 1),          # b again, seen from face g
            _next(h2): (f, 0),   # a
            _prev(h2): (f, 1),   # d (also (g, 0))
        }
        vertex_map = [
            new_tri.vertex_index[corners.get(orbit[0], orbit[0])] for orbit in self.vertices
        ]
        boundary = tuple(
            edge_map[self.edge_index[h]] for h in (_next(h1), _prev(h1), _next(h2), _prev(h2))
        )
        return FlipResult(
            triangulation=new_tri,
            half_edge_map=relabel,
            edge_map=edge_map,
            vertex_map=vertex_map,
            new_edge=new_tri.edge_index[(f, 1)],
            quad_boundary_edges=boundary,
        )
