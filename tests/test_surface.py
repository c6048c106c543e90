"""Combinatorial surface tests: orbits, genus, flips."""

import pytest

from ddce import Triangulation
from ddce.errors import DisconnectedSurface, NonInvolution, UnflippableSelfGluing

from conftest import from_face_vertices, grid_torus, isosceles_sphere, octahedron


def brute_force_orbits(face_count, pairs):
    """Independent orbit enumeration: breadth-first search on the corner
    identification graph, no union-find."""
    adj = {(f, s): set() for f in range(face_count) for s in range(3)}
    for (f, s), (g, t) in pairs:
        a1, b1 = (f, s), (g, (t + 1) % 3)
        a2, b2 = (f, (s + 1) % 3), (g, t)
        adj[a1].add(b1)
        adj[b1].add(a1)
        adj[a2].add(b2)
        adj[b2].add(a2)
    seen = set()
    orbits = []
    for corner in sorted(adj):
        if corner in seen:
            continue
        stack = [corner]
        orbit = set()
        while stack:
            c = stack.pop()
            if c in orbit:
                continue
            orbit.add(c)
            stack.extend(adj[c] - orbit)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


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
    oracle = brute_force_orbits(6, pairs)
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
            fr2 = fr1.triangulation.flip(fr1.new_edge)
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
    # edge map is a bijection, vertex map is a bijection
    assert sorted(fr.edge_map) == list(range(t.edge_count))
    assert sorted(fr.vertex_map) == list(range(t.vertex_count))
    # endpoints of unflipped edges map to endpoints
    for e in range(t.edge_count):
        if e == 0:
            continue
        old = sorted(fr.vertex_map[v] for v in t.edge_endpoints(e))
        assert old == sorted(s.edge_endpoints(fr.edge_map[e]))
