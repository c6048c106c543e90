"""Combinatorial surface tests: orbits, genus, flips."""

import dataclasses

import numpy as np
import pytest

from ddce import Triangulation
from ddce.errors import DisconnectedSurface, NonInvolution, UnflippableSelfGluing

from conftest import (
    corner_orbits,
    fresh_copy,
    grid_torus,
    isosceles_sphere,
    octahedron,
    reference_flip,
    surface_fields,
)

TABLES = (
    "face_edge_ids", "face_vertex_ids", "edge_endpoint_ids",
    "face_edge_array", "face_vertex_array", "edge_endpoint_array",
)
LOOKUPS = ("gluing", "vertices", "edge_index", "vertex_index")


def folds_onto_itself(tri, e):
    """``is_self_glued_quad`` read off the gluing: one face glued to
    itself along ``e``, or both pairs of adjacent quad sides glued to
    each other."""
    (f, s), (g, t) = tri.edges[e]
    glue = tri.gluing
    return f == g or (
        glue[(f, (s + 1) % 3)] == (g, (t + 2) % 3) and glue[(f, (s + 2) % 3)] == (g, (t + 1) % 3)
    )


def test_double_triangle_counts():
    t = Triangulation.double_triangle()
    assert (t.vertex_count, t.edge_count, t.face_count) == (3, 3, 2)
    assert t.euler_characteristic == 2
    assert t.genus == 0


def test_genus_two_octagon_against_orbit_oracle():
    t = Triangulation.genus_two_octagon()
    assert t.face_count == 6
    assert t.edge_count == 9
    assert t.vertex_count == 1
    assert t.euler_characteristic == -2
    assert t.genus == 2
    pairs = [t.edges[e] for e in range(t.edge_count)]
    oracle = corner_orbits(6, pairs)
    assert tuple(oracle) == t.vertices


def test_square_torus_counts():
    t = Triangulation.square_torus()
    assert (t.vertex_count, t.edge_count, t.face_count) == (1, 3, 2)
    assert t.genus == 1


def test_octahedron_and_grid_torus():
    octa = octahedron()
    assert (octa.vertex_count, octa.edge_count, octa.face_count) == (6, 12, 8)
    assert octa.genus == 0
    g = grid_torus(3)
    assert (g.vertex_count, g.edge_count, g.face_count) == (9, 27, 18)
    assert g.genus == 1


def test_non_involution_errors():
    with pytest.raises(NonInvolution):
        Triangulation.build_from_gluing(2, [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 2), (1, 2))])
    with pytest.raises(NonInvolution):  # half-edge glued to itself
        Triangulation.build_from_gluing(2, [((0, 0), (0, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
    with pytest.raises(NonInvolution):  # missing half-edges
        Triangulation.build_from_gluing(2, [((0, 0), (1, 0))])
    with pytest.raises(NonInvolution):  # out of range
        Triangulation.build_from_gluing(1, [((0, 0), (0, 3))])


def test_disconnected_rejected():
    double = [((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))]
    shifted = [((f + 2, s), (g + 2, t)) for (f, s), (g, t) in double]
    with pytest.raises(DisconnectedSurface):
        Triangulation.build_from_gluing(4, double + shifted)


def test_deterministic_labels():
    a = Triangulation.genus_two_octagon()
    b = Triangulation.genus_two_octagon()
    assert a.vertices == b.vertices
    assert a.edges == b.edges
    assert [a.vertex_label(v) for v in range(a.vertex_count)] == [
        b.vertex_label(v) for v in range(b.vertex_count)
    ]


def test_double_triangle_flip_refused():
    t = Triangulation.double_triangle()
    for e in range(t.edge_count):
        assert t.is_self_glued_quad(e)
        with pytest.raises(UnflippableSelfGluing):
            t.flip(e)


def test_self_glued_face_flip_refused():
    t = isosceles_sphere()
    self_glued = [e for e in range(t.edge_count) if t.is_self_glued_face_edge(e)]
    assert len(self_glued) == 2
    for e in self_glued:
        with pytest.raises(UnflippableSelfGluing):
            t.flip(e)


def test_torus_diagonal_flip_preserves_counts():
    t = Triangulation.square_torus()
    fr = t.flip(2)
    s = fr.triangulation
    assert (s.vertex_count, s.edge_count, s.face_count) == (1, 3, 2)
    assert s.genus == 1


def test_flip_preserves_genus_two():
    t = Triangulation.genus_two_octagon()
    for e in range(t.edge_count):
        if t.is_self_glued_quad(e):
            continue
        s = t.flip(e).triangulation
        assert s.euler_characteristic == t.euler_characteristic
        assert (s.vertex_count, s.edge_count, s.face_count) == (1, 9, 6)
        assert s.genus == 2


def test_flip_involution_up_to_relabeling():
    for t in (Triangulation.square_torus(), Triangulation.genus_two_octagon(), octahedron()):
        for e in range(t.edge_count):
            if t.is_self_glued_quad(e):
                continue
            fr1 = t.flip(e)
            fr2 = fr1.triangulation.flip(e)
            # the composed half-edge map is a gluing isomorphism onto the original
            # (half-edges absent from a map keep their identity)
            phi = {}
            for h in t.gluing:
                h_mid = fr1.half_edge_map.get(h, h)
                phi[h] = fr2.half_edge_map.get(h_mid, h_mid)
            assert sorted(phi.values()) == sorted(t.gluing)
            for h, partner in t.gluing.items():
                assert fr2.triangulation.gluing[phi[h]] == phi[partner]


def test_flip_maps_are_consistent():
    t = octahedron()
    fr = t.flip(0)
    s = fr.triangulation
    # the new diagonal keeps the flipped edge's id
    (f, _), (g, _) = t.edges[0]
    assert s.edges[0] == ((f, 1), (g, 2))
    # ids are stable: every unflipped edge keeps its endpoints
    for e in range(1, t.edge_count):
        assert sorted(s.edge_endpoints(e)) == sorted(t.edge_endpoints(e))
    # the canonical relabeling is a bijection on edges and on vertices
    # and carries endpoints to endpoints
    canon, edge_map, vertex_map = s.canonical()
    assert sorted(edge_map) == list(range(t.edge_count))
    assert sorted(vertex_map) == list(range(t.vertex_count))
    for e in range(t.edge_count):
        old = sorted(vertex_map[v] for v in s.edge_endpoints(e))
        assert old == sorted(canon.edge_endpoints(edge_map[e]))


def test_flip_in_place_matches_rebuild():
    rng = np.random.default_rng(7)
    stock = (
        Triangulation.square_torus(),
        octahedron(),
        Triangulation.genus_two_octagon(),  # loop edges, one vertex
        grid_torus(3),
        grid_torus(4),
    )
    for t in stock:
        # a built surface is already canonical
        canon, edge_map, vertex_map = t.canonical()
        assert surface_fields(canon) == surface_fields(t)
        assert edge_map == list(range(t.edge_count))
        assert vertex_map == list(range(t.vertex_count))
        cur = t
        for _ in range(40):
            flippable = [e for e in range(cur.edge_count) if not cur.is_self_glued_quad(e)]
            assert flippable == [e for e in range(cur.edge_count) if not folds_onto_itself(cur, e)]
            e = flippable[rng.integers(len(flippable))]
            fr = cur.flip(e)
            new = fr.triangulation
            ref, ref_edges, ref_vertices, ref_new_edge, ref_boundary = reference_flip(cur, e)
            canon, edge_map, vertex_map = new.canonical()
            assert surface_fields(canon) == surface_fields(ref)
            assert (edge_map, vertex_map) == (ref_edges, ref_vertices)
            assert edge_map[e] == ref_new_edge
            assert tuple(edge_map[b] for b in fr.quad_boundary_edges) == ref_boundary
            assert new.genus == t.genus
            # edges stay sorted pairs (canonical names)
            assert all(list(pair) == sorted(pair) for pair in new.edges)
            touched = {e, *fr.quad_boundary_edges}
            for k in range(cur.edge_count):
                if k not in touched:
                    assert new.edges[k] == cur.edges[k]
            # patched tables equal tables derived afresh from the edge pairs
            fresh = fresh_copy(new)
            for name in TABLES:
                assert np.array_equal(getattr(new, name), getattr(fresh, name)), name
            assert sorted(new.vertices) == corner_orbits(new.face_count, new.edges)
            # each derived lookup equals the rebuilt surface's, through the
            # reference's edge and vertex maps
            assert new.gluing == ref.gluing
            assert {h: ref_edges[k] for h, k in new.edge_index.items()} == ref.edge_index
            assert {c: ref_vertices[v] for c, v in new.vertex_index.items()} == ref.vertex_index
            assert list(new.vertices) == [ref.vertices[w] for w in ref_vertices]
            assert [tuple(ref_vertices[v] for v in ends) for ends in new.edge_endpoint_ids] == [
                ref.edge_endpoint_ids[k] for k in ref_edges
            ]
            cur = new


def test_index_tables_match_orbit_maps():
    for t in (Triangulation.square_torus(), Triangulation.genus_two_octagon(), octahedron()):
        flipped = t.flip(next(e for e in range(t.edge_count) if not t.is_self_glued_quad(e)))
        s = flipped.triangulation
        for u in (t, s):
            # the face tables agree with the edge pairs and the corner orbits
            for e, pair in enumerate(u.edges):
                assert [u.face_edge_ids[f][k] for f, k in pair] == [e, e]
            assert sorted(u.vertices) == corner_orbits(u.face_count, u.edges)
            for f in range(u.face_count):
                assert u.face_edges(f) == tuple(u.edge_index[(f, k)] for k in range(3))
                assert u.face_vertices(f) == tuple(u.vertex_index[(f, k)] for k in range(3))
            for e, (h, _) in enumerate(u.edges):
                tail, head = h, (h[0], (h[1] + 1) % 3)
                assert u.edge_endpoints(e) == (u.vertex_index[tail], u.vertex_index[head])
            assert u.face_edge_array.tolist() == [list(x) for x in u.face_edge_ids]
            assert u.face_vertex_array.tolist() == [list(x) for x in u.face_vertex_ids]
            assert u.edge_endpoint_array.tolist() == [list(x) for x in u.edge_endpoint_ids]
        # derived once per surface; a flip patches its parent's endpoint table
        assert t.edge_endpoint_ids is t.edge_endpoint_ids
        assert "edge_endpoint_ids" in vars(flipped.triangulation)


def test_flip_stores_tables_and_derives_no_lookup():
    names = [f.name for f in dataclasses.fields(Triangulation)]
    assert names == ["face_count", "edges", "face_edge_ids", "face_vertex_ids", "genus"]
    rng = np.random.default_rng(11)
    for t in (Triangulation.square_torus(), Triangulation.genus_two_octagon(), grid_torus(4)):
        chain = [t]
        for _ in range(30):
            cur = chain[-1]
            flippable = [e for e in range(cur.edge_count) if not cur.is_self_glued_quad(e)]
            chain.append(cur.flip(flippable[rng.integers(len(flippable))]).triangulation)
        for u in chain:
            assert not set(LOOKUPS) & set(vars(u))
