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
lookups, the vertex orbits and the edge endpoints are derived from
these tables when first read, and a flip writes these tables only.

Vertices and edges are orbits, each named by its lexicographically
least member.  ``build_from_gluing`` numbers them in that order
(canonical labels), so rebuilding a surface from the same gluing list
always reproduces identical labels.  It works on flat slot numbers
``3 f + s``, whose order is that of the names ``(f, s)``: the gluing
is a list of partner slots, the faces are connected when a walk
across partner slots from face 0 reaches them all, and the vertex
orbits are the cycles of corner ``k`` -> corner ``next(partner[k])``.
A flip keeps every edge and vertex id instead: it moves the six
half-edges of its quad to their new slots by one six-entry map and
rewrites only the two face rows and the five pairs that map touches.
``canonical()`` renumbers a flipped surface, which
``flip_to_delaunay`` does once after its last flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index

import numpy as np

from .errors import BadParameters, DisconnectedSurface, NonInvolution, UnflippableSelfGluing

HalfEdge = tuple[int, int]


def half_edge_label(h: HalfEdge) -> str:
    return f"{h[0]}:{h[1]}"


def parse_half_edge_label(label: str) -> HalfEdge:
    f, s = label.split(":")
    return (int(f), int(s))


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
    numpy gathers.  ``flip`` patches only its parent's stored tables.
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
        too, but not bools; entries of type ``int`` are taken as they
        are); anything else, a ``face_count`` that is not such an int
        or is below 1, or a count of pairs other than ``3 face_count / 2``
        (checked first, so a short gluing of a huge face count fails at
        once) raises NonInvolution, and a gluing whose faces a walk
        across glued slots does not all reach raises
        DisconnectedSurface."""
        try:
            if type(face_count) is bool:
                raise TypeError
            face_count = index(face_count)
        except TypeError:
            raise NonInvolution(f"face count {face_count!r} is not an int") from None
        if face_count < 1:
            raise NonInvolution(f"face count {face_count} is not positive")
        if not isinstance(pairs, (list, tuple)):
            raise NonInvolution(f"gluing must be a list of pairs, not {type(pairs).__name__}")
        # before any table is sized by the face count; pairs that pass the
        # checks below then glue every half-edge exactly once
        n = 3 * face_count
        if n != 2 * len(pairs):
            raise NonInvolution(
                f"{face_count} faces have {n} half-edges, "
                f"but {len(pairs)} gluing pairs cover {2 * len(pairs)}"
            )
        partner = [-1] * n
        for pair in pairs:
            try:
                (f, s), (g, t) = pair
                if not type(f) is type(s) is type(g) is type(t) is int:
                    if bool in (type(f), type(s), type(g), type(t)):
                        raise TypeError
                    f, s, g, t = index(f), index(s), index(g), index(t)
            except (TypeError, ValueError):
                raise NonInvolution(f"gluing pair {pair!r} is not two int pairs (f, s)") from None
            if not (0 <= f < face_count and 0 <= s < 3):
                raise NonInvolution(f"half-edge {(f, s)} out of range")
            if not (0 <= g < face_count and 0 <= t < 3):
                raise NonInvolution(f"half-edge {(g, t)} out of range")
            k1, k2 = 3 * f + s, 3 * g + t
            if k1 == k2:
                raise NonInvolution(f"half-edge {(f, s)} glued to itself")
            if partner[k1] >= 0 or partner[k2] >= 0:
                raise NonInvolution(f"half-edge repeated in pair ({(f, s)}, {(g, t)})")
            partner[k1], partner[k2] = k2, k1

        # faces are connected when a walk across glued slots from face 0
        # reaches every face
        reached = [False] * face_count
        reached[0] = True
        stack = [0]
        for f in stack:  # the walk appends to the list it runs over
            for p in partner[3 * f:3 * f + 3]:
                if not reached[p // 3]:
                    reached[p // 3] = True
                    stack.append(p // 3)
        if len(stack) != face_count:
            raise DisconnectedSurface("gluing does not connect all faces")

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
        for k, p in enumerate(partner):
            if k < p:
                edge_slots[k] = edge_slots[p] = len(edges)
                edges.append((divmod(k, 3), divmod(p, 3)))

        # every half-edge is glued to one of opposite orientation and each
        # vertex orbit is one cycle, so a connected gluing is a closed
        # oriented surface: chi = 2 - 2g is even and at most 2
        chi = vertex_count - len(edges) + face_count

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

    def check_edge(self, e) -> int:
        """``e`` as an edge id: an int (numpy integers too, but not
        bools) in ``range(edge_count)``; anything else raises
        BadParameters naming it."""
        if type(e) is not int:
            try:
                if type(e) is bool:
                    raise TypeError
                e = index(e)
            except TypeError:
                raise BadParameters(f"edge id {e!r} is not an int") from None
        if not 0 <= e < len(self.edges):
            raise BadParameters(f"edge id {e} out of range for {len(self.edges)} edges")
        return e

    def quad(self, e: int) -> tuple:
        """``((bc, ca, ad, db), (a, b, c, d))``: the side ids and corner
        ids of the quadrilateral that edge ``e`` is the diagonal of.  For
        ``edges[e] = ((f, s), (g, t))``, face ``f`` read from slot ``s``
        is ``(a, b, c)`` and face ``g`` read from slot ``t`` is
        ``(b, a, d)``, so ``e`` runs from ``a`` to ``b`` and ``c`` and
        ``d`` are the apexes.  ``flip`` makes ``f`` the face ``(a, d, c)``
        on edges ``(ad, e, ca)`` and ``g`` the face ``(d, b, c)`` on
        edges ``(db, bc, e)``.  An edge id that ``check_edge`` refuses
        raises BadParameters."""
        (f, s), (g, t) = self.edges[self.check_edge(e)]
        fe, ge = self.face_edge_ids[f], self.face_edge_ids[g]
        fv, gv = self.face_vertex_ids[f], self.face_vertex_ids[g]
        return (
            (fe[(s + 1) % 3], fe[(s + 2) % 3], ge[(t + 1) % 3], ge[(t + 2) % 3]),
            (fv[s], fv[(s + 1) % 3], fv[(s + 2) % 3], gv[(t + 2) % 3]),
        )

    def flip(self, e: int) -> "Triangulation":
        """The triangulation with edge ``e`` replaced by the opposite
        diagonal of its quadrilateral.

        Only the rows of the quad's two faces and the pairs of the
        diagonal and the quad sides change; every edge and vertex keeps
        its id, and the flipped quad's sides are ``quad(e)[0]`` read
        before the flip.  The quad's six half-edges move to their new
        slots by one map, (f, s) -> (f, 1), (g, t) -> (g, 2),
        (f, s+1) -> (g, 1), (f, s+2) -> (f, 2), (g, t+1) -> (f, 0),
        (g, t+2) -> (g, 0) (slots mod 3), and each touched edge's pair
        is its old pair through that map, sorted; this holds also when
        quad sides coincide, as both of their half-edges move.  Every
        other entry of ``edges``, ``face_edge_ids`` and
        ``face_vertex_ids`` is the parent's own object.  A flip keeps
        the gluing an involution, the surface connected and its Euler
        characteristic, so nothing is validated again, and every derived
        table is derived afresh on first read.

        An edge id that ``check_edge`` refuses raises BadParameters.
        Refuses self-glued quads: their diagonal is not a well-defined
        combinatorial quadrilateral side swap.
        """
        e = self.check_edge(e)
        if self.is_self_glued_quad(e):
            raise UnflippableSelfGluing(
                f"edge {self.edge_label(e)} bounds a self-glued quadrilateral"
            )
        (f, s), (g, t) = self.edges[e]
        (bc, ca, ad, db), (a, b, c, d) = self.quad(e)
        moved = {
            (f, s): (f, 1), (g, t): (g, 2),
            (f, (s + 1) % 3): (g, 1), (f, (s + 2) % 3): (f, 2),
            (g, (t + 1) % 3): (f, 0), (g, (t + 2) % 3): (g, 0),
        }

        face_edges = list(self.face_edge_ids)
        face_edges[f], face_edges[g] = (ad, e, ca), (db, bc, e)
        face_vertices = list(self.face_vertex_ids)
        face_vertices[f], face_vertices[g] = (a, d, c), (d, b, c)
        edges = list(self.edges)
        for k in {e, bc, ca, ad, db}:
            h1, h2 = edges[k]
            h1, h2 = moved.get(h1, h1), moved.get(h2, h2)
            edges[k] = (h1, h2) if h1 < h2 else (h2, h1)
        return Triangulation(
            face_count=self.face_count,
            edges=tuple(edges),
            face_edge_ids=tuple(face_edges),
            face_vertex_ids=tuple(face_vertices),
            genus=self.genus,
        )
