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

A ``Triangulation`` stores each incidence once: the edges as sorted
half-edge pairs, and two face tables that give the edge id of every
half-edge and the vertex id of every corner.  The vertex count follows
from the Euler characteristic.  The gluing, the half-edge and corner
lookups and the vertex orbits are derived from these tables when first
read.

Vertices and edges are orbits, each named by its lexicographically
least member.  ``build_from_gluing`` numbers them in that order
(canonical labels), so rebuilding a surface from the same gluing list
always reproduces identical labels.  It works on flat slot numbers
``3 f + s``, whose order is that of the names ``(f, s)``: the gluing
is a list of partner slots, and the vertex orbits are the cycles of
corner ``k`` -> corner ``next(partner[k])``.  A flip keeps every edge
and vertex id instead; ``canonical()`` renumbers a flipped surface,
which ``flip_to_delaunay`` does once after its last flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index

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
    """Union-find over ``0 .. n - 1``; the root of a set is its least
    member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

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

    Every edge and vertex keeps its id: the new diagonal has the id of
    the flipped edge, and ``quad_boundary_edges`` holds the ids of the
    four quad sides.  ``half_edge_map`` holds only the six half-edges of
    the flipped quad, which change identity; every other half-edge keeps
    its own, so look up with ``half_edge_map.get(h, h)``.
    """

    triangulation: "Triangulation"
    half_edge_map: dict
    quad_boundary_edges: tuple


def _rows(slots: list) -> tuple:
    """A flat ``3 F`` slot list as ``F`` tuples of three."""
    return tuple(zip(slots[0::3], slots[1::3], slots[2::3]))


def _slot_map(old_rows, new_rows, n: int) -> list:
    """``k -> k'`` for two face tables that name the same slots."""
    out = [0] * n
    for old, new in zip(old_rows, new_rows):
        for k, k_new in zip(old, new):
            out[k] = k_new
    return out


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Closed oriented triangulated surface, immutable after construction.

    ``build_from_gluing`` numbers edges and vertices canonically;
    ``flip`` keeps the ids of its parent.

    Stored: ``edges[e]``, the two half-edges of edge ``e`` in sorted
    order, and the face tables ``face_edge_ids[f]`` and
    ``face_vertex_ids[f]``, the edge ids of face ``f``'s half-edges and
    the vertex ids of its corners in slot order (tuples of ints).
    Everything else is derived from these when first read and cached on
    the instance (one O(F) pass each): the lookups ``gluing``,
    ``edge_index``, ``vertex_index`` and ``vertices``, the endpoint
    table ``edge_endpoint_ids[e]``, and the int arrays
    ``face_edge_array``, ``face_vertex_array`` (``F x 3``),
    ``edge_endpoint_array`` (``E x 2``) and ``edge_side_array`` for
    numpy gathers.  ``flip`` patches its parent's stored tables and its
    endpoint table, and derives nothing else.
    """

    face_count: int
    edges: tuple = field(repr=False)  # half-edge pairs, each sorted, by edge id
    face_edge_ids: tuple = field(repr=False)  # per face: edge id of each half-edge
    face_vertex_ids: tuple = field(repr=False)  # per face: vertex id of each corner
    genus: int

    # -- construction --------------------------------------------------------

    @classmethod
    def build_from_gluing(cls, face_count: int, pairs) -> "Triangulation":
        """Validate a gluing list, number its edge and vertex orbits
        canonically, and fill the face tables and genus, all on flat
        slots ``3 f + s``.  The gluing is a list or tuple of pairs of
        half-edges ``(f, s)``, whose entries are ints (numpy integers
        too, but not bools); anything else, or a ``face_count`` that is
        not such an int, raises NonInvolution."""
        try:
            if type(face_count) is bool:
                raise TypeError
            face_count = index(face_count)
        except TypeError:
            raise NonInvolution(f"face count {face_count!r} is not an int") from None
        if not isinstance(pairs, (list, tuple)):
            raise NonInvolution(f"gluing must be a list of pairs, not {type(pairs).__name__}")
        n = 3 * face_count
        partner = [-1] * n
        for pair in pairs:
            try:
                (f, s), (g, t) = pair
                if bool in (type(f), type(s), type(g), type(t)):
                    raise TypeError
                h1, h2 = (index(f), index(s)), (index(g), index(t))
            except (TypeError, ValueError):
                raise NonInvolution(f"gluing pair {pair!r} is not two int pairs (f, s)") from None
            for h in (h1, h2):
                if not (0 <= h[0] < face_count and 0 <= h[1] < 3):
                    raise NonInvolution(f"half-edge {h} out of range")
            if h1 == h2:
                raise NonInvolution(f"half-edge {h1} glued to itself")
            k1, k2 = 3 * h1[0] + h1[1], 3 * h2[0] + h2[1]
            if partner[k1] >= 0 or partner[k2] >= 0:
                raise NonInvolution(f"half-edge repeated in pair ({h1}, {h2})")
            partner[k1], partner[k2] = k2, k1
        missing = [divmod(k, 3) for k in range(n) if partner[k] < 0]
        if missing:
            raise NonInvolution(f"unglued half-edges: {missing}")

        # corner k is corner next(partner[k]): the vertex orbits are the
        # cycles of that permutation, each numbered at its least corner
        vertex_slots = [-1] * n
        vertex_count = 0
        for k in range(n):
            if vertex_slots[k] >= 0:
                continue
            c = k
            while vertex_slots[c] < 0:
                vertex_slots[c] = vertex_count
                p = partner[c]
                c = p + 1 if p % 3 < 2 else p - 2
            vertex_count += 1

        edges = []
        edge_slots = [0] * n
        faces_uf = _UnionFind(face_count)
        for k, p in enumerate(partner):
            if k < p:
                edge_slots[k] = edge_slots[p] = len(edges)
                edges.append((divmod(k, 3), divmod(p, 3)))
                faces_uf.union(k // 3, p // 3)
        if len({faces_uf.find(f) for f in range(face_count)}) != 1:
            raise DisconnectedSurface("gluing does not connect all faces")

        chi = vertex_count - len(edges) + face_count
        if chi % 2 != 0:
            raise NonOrientable(f"Euler characteristic {chi} is odd")
        if chi > 2:
            raise NonOrientable(f"Euler characteristic {chi} exceeds 2")

        return cls(
            face_count=face_count,
            edges=tuple(edges),
            face_edge_ids=_rows(edge_slots),
            face_vertex_ids=_rows(vertex_slots),
            genus=(2 - chi) // 2,
        )

    def canonical(self) -> tuple:
        """``(triangulation, edge_map, vertex_map)``: this surface with
        canonical labels, where edge ``k`` is ``edge_map[k]`` and vertex
        ``v`` is ``vertex_map[v]``; faces and half-edges keep their names."""
        canon = Triangulation.build_from_gluing(self.face_count, self.edges)
        edge_map = _slot_map(self.face_edge_ids, canon.face_edge_ids, self.edge_count)
        vertex_map = _slot_map(self.face_vertex_ids, canon.face_vertex_ids, self.vertex_count)
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
        return self.euler_characteristic + self.edge_count - self.face_count

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus

    def vertex_label(self, v: int) -> str:
        return half_edge_label(self.vertices[v][0])

    def edge_label(self, e: int) -> str:
        return half_edge_label(self.edges[e][0])

    @cached_property
    def gluing(self) -> dict:
        """The involution on half-edges, both directions."""
        return {h: k for pair in self.edges for h, k in (pair, pair[::-1])}

    @cached_property
    def edge_index(self) -> dict:
        """Half-edge ``(f, s)`` -> id of its edge."""
        return {(f, s): k for f, row in enumerate(self.face_edge_ids) for s, k in enumerate(row)}

    @cached_property
    def vertex_index(self) -> dict:
        """Corner ``(f, s)`` -> id of its vertex."""
        return {(f, s): v for f, row in enumerate(self.face_vertex_ids) for s, v in enumerate(row)}

    @cached_property
    def vertices(self) -> tuple:
        """Corner orbits as sorted tuples, by vertex id."""
        orbits = [[] for _ in range(self.vertex_count)]
        for corner, v in self.vertex_index.items():  # corners in sorted order
            orbits[v].append(corner)
        return tuple(map(tuple, orbits))

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
        slot indices ``3 f + s``, in ``edges`` order."""
        flat = [3 * f + s for sides in self.edges for f, s in sides]
        return np.array(flat, dtype=np.intp).reshape(self.edge_count, 2)

    def edge_endpoints(self, e: int) -> tuple:
        """Vertex indices of the two endpoints (equal for a loop edge)."""
        return self.edge_endpoint_ids[e]

    def is_self_glued_quad(self, e: int) -> bool:
        """Edge whose flip quadrilateral folds onto itself.

        Either a single face is glued to itself along ``e``, or the two
        adjacent faces are glued to each other along all three edges with
        matching corners (the double of a triangle), in which case both
        pairs of adjacent quad boundary edges coincide.
        """
        (f, s), (g, t) = self.edges[e]
        if f == g:
            return True
        fe, ge = self.face_edge_ids[f], self.face_edge_ids[g]
        return fe[(s + 1) % 3] == ge[(t + 2) % 3] and fe[(s + 2) % 3] == ge[(t + 1) % 3]

    # -- edge flip ------------------------------------------------------------

    def flip(self, e: int) -> FlipResult:
        """Replace edge ``e`` by the opposite diagonal of its quadrilateral.

        Only the rows of the quad's two faces and the pairs and endpoints
        of the diagonal and the quad sides change; every edge and vertex
        keeps its id.  A flip keeps the gluing an involution, the surface
        connected and its Euler characteristic, so nothing is validated
        again.

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
        fe, ge = self.face_edge_ids[f], self.face_edge_ids[g]
        bc, ca, ad, db = fe[(s + 1) % 3], fe[(s + 2) % 3], ge[(t + 1) % 3], ge[(t + 2) % 3]
        fv, gv = self.face_vertex_ids[f], self.face_vertex_ids[g]
        a, b, c, d = fv[s], fv[(s + 1) % 3], fv[(s + 2) % 3], gv[(t + 2) % 3]

        face_edges = list(self.face_edge_ids)
        face_edges[f], face_edges[g] = (ad, e, ca), (db, bc, e)
        face_vertices = list(self.face_vertex_ids)
        face_vertices[f], face_vertices[g] = (a, d, c), (d, b, c)
        edges = list(self.edges)
        endpoints = list(self.edge_endpoint_ids)
        for k in {e, bc, ca, ad, db}:
            edges[k] = tuple(sorted(relabel.get(h, h) for h in self.edges[k]))
            x, y = edges[k][0]
            endpoints[k] = (face_vertices[x][y], face_vertices[x][(y + 1) % 3])

        new_tri = Triangulation(
            face_count=self.face_count,
            edges=tuple(edges),
            face_edge_ids=tuple(face_edges),
            face_vertex_ids=tuple(face_vertices),
            genus=self.genus,
        )
        vars(new_tri)["edge_endpoint_ids"] = tuple(endpoints)
        return FlipResult(
            triangulation=new_tri, half_edge_map=relabel, quad_boundary_edges=(bc, ca, ad, db)
        )
