"""Combinatorial surface tests: orbits, genus, flips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce import Triangulation
from ddce.errors import DDCEError, DisconnectedSurface, NonInvolution, UnflippableSelfGluing

from conftest import (
    corner_orbits,
    fresh_copy,
    grid_torus,
    isosceles_sphere,
    octahedron,
    outcome,
    reference_build_from_gluing,
    reference_flip,
    surface_fields,
)

TABLES = (
    "face_edge_ids", "face_vertex_ids", "edge_endpoint_ids",
    "face_edge_array", "face_vertex_array", "edge_endpoint_array",
)


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
    for face_count, pairs in (
        (2, [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 2), (1, 2))]),  # repeated half-edge
        (2, [((0, 0), (0, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))]),  # half-edge glued to itself
        (2, [((0, 0), (1, 0))]),  # missing half-edges
        (1, [((0, 0), (0, 3))]),  # out of range
    ):
        with pytest.raises(NonInvolution) as raised:
            Triangulation.build_from_gluing(face_count, pairs)
        assert outcome(reference_build_from_gluing, face_count, pairs) == (NonInvolution, str(raised.value))
    for face_count in (0, -1):  # were reported as a disconnected gluing
        with pytest.raises(NonInvolution) as raised:
            Triangulation.build_from_gluing(face_count, [])
        assert str(raised.value) == f"face count {face_count} is not positive"


@pytest.mark.parametrize(
    "pair",
    [
        ((0.5, 0), (1, 2)), ((0.0, 0), (1, 2)), (("0", 0), (1, 2)), ((None, 0), (1, 2)),
        (0, (1, 2)),  # a half-edge given as an int
        ((0, 0),),  # one half-edge
        ((0, 0), (True, 2)),  # read as face 1, this completes the double triangle
        ((0, 0), (1, 2), (1, 1)),  # the third half-edge used to be dropped
    ],
)
def test_malformed_gluing_pair_is_named(pair):
    rest = [((0, 1), (1, 1)), ((0, 2), (1, 0))]
    with pytest.raises(NonInvolution) as raised:
        Triangulation.build_from_gluing(2, [pair] + rest)
    assert str(raised.value).startswith(f"gluing pair {pair!r} ")


@pytest.mark.parametrize("pairs", [None, 5, "0:0", {0: ((0, 0), (1, 2))}])
def test_gluing_that_is_not_a_list_is_rejected(pairs):
    with pytest.raises(NonInvolution, match="gluing must be a list"):
        Triangulation.build_from_gluing(2, pairs)


@pytest.mark.parametrize("face_count", [2.0, "2", None, True])
def test_face_count_that_is_not_an_int_is_named(face_count):
    double = [((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))]
    with pytest.raises(NonInvolution) as raised:
        Triangulation.build_from_gluing(face_count, double)
    assert str(raised.value) == f"face count {face_count!r} is not an int"


def test_numpy_integer_face_count_is_accepted():
    double = [((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))]
    tri = Triangulation.build_from_gluing(np.int64(2), double)
    want = Triangulation.build_from_gluing(2, double)
    assert (tri.face_count, tri.edges, tri.face_edge_ids, tri.face_vertex_ids) == (
        want.face_count, want.edges, want.face_edge_ids, want.face_vertex_ids
    )
    assert type(tri.face_count) is int


def test_disconnected_rejected():
    double = [((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0))]
    shifted = [((f + 2, s), (g + 2, t)) for (f, s), (g, t) in double]
    with pytest.raises(DisconnectedSurface) as raised:
        Triangulation.build_from_gluing(4, double + shifted)
    assert outcome(reference_build_from_gluing, 4, double + shifted) == (
        DisconnectedSurface, str(raised.value)
    )


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
    self_glued = [e for e, ((f, _), (g, _)) in enumerate(t.edges) if f == g]
    assert len(self_glued) == 2
    for e in self_glued:
        with pytest.raises(UnflippableSelfGluing):
            t.flip(e)


def test_torus_diagonal_flip_preserves_counts():
    t = Triangulation.square_torus()
    s = t.flip(2)
    assert (s.vertex_count, s.edge_count, s.face_count) == (1, 3, 2)
    assert s.genus == 1


def test_flip_preserves_genus_two():
    t = Triangulation.genus_two_octagon()
    for e in range(t.edge_count):
        if t.is_self_glued_quad(e):
            continue
        s = t.flip(e)
        assert s.euler_characteristic == t.euler_characteristic
        assert (s.vertex_count, s.edge_count, s.face_count) == (1, 9, 6)
        assert s.genus == 2


def rotation(old_row, new_row):
    """``r`` with ``new_row[(k + r) % 3] == old_row[k]`` for every
    ``k``, else None."""
    return next((r for r in range(3) if all(new_row[(k + r) % 3] == old_row[k] for k in range(3))), None)


def test_flip_involution_up_to_relabeling():
    # flipping e twice gives back faces f and g swapped, each row rotated,
    # and leaves every other row as it was; the swap is a gluing
    # isomorphism that keeps every edge and vertex id
    for t in (Triangulation.square_torus(), Triangulation.genus_two_octagon(), octahedron()):
        for e in range(t.edge_count):
            if t.is_self_glued_quad(e):
                continue
            u = t.flip(e).flip(e)
            (f, _), (g, _) = t.edges[e]
            phi = {h: h for h in t.gluing}
            for old, new in ((f, g), (g, f)):
                r = rotation(
                    list(zip(t.face_edge_ids[old], t.face_vertex_ids[old])),
                    list(zip(u.face_edge_ids[new], u.face_vertex_ids[new])),
                )
                assert r is not None
                phi.update({(old, k): (new, (k + r) % 3) for k in range(3)})
            for h in set(range(t.face_count)) - {f, g}:
                assert u.face_edge_ids[h] == t.face_edge_ids[h]
                assert u.face_vertex_ids[h] == t.face_vertex_ids[h]
            assert sorted(phi.values()) == sorted(t.gluing)
            for h, partner in t.gluing.items():
                assert u.gluing[phi[h]] == phi[partner]
                assert u.edge_index[phi[h]] == t.edge_index[h]


def test_flip_maps_are_consistent():
    t = octahedron()
    s = t.flip(0)
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


def test_quad_reads_the_rows_that_flip_writes():
    # quad(e) names the faces (a, b, c) and (b, a, d) at e as their rows
    # hold them, and flip(e) writes (a, d, c) on edges (ad, e, ca) and
    # (d, b, c) on (db, bc, e), whose quad has the same four sides
    stock = (
        Triangulation.double_triangle(),
        Triangulation.square_torus(),
        Triangulation.genus_two_octagon(),
        isosceles_sphere(),
        octahedron(),
        grid_torus(4),
    )
    flipped = 0
    for tri in stock:
        for e in range(tri.edge_count):
            if tri.is_self_glued_quad(e):
                continue
            (bc, ca, ad, db), (a, b, c, d) = tri.quad(e)
            (f, s), (g, t) = tri.edges[e]
            fe, fv, ge, gv = (
                tri.face_edge_ids[f], tri.face_vertex_ids[f], tri.face_edge_ids[g], tri.face_vertex_ids[g]
            )
            assert (fe[s:] + fe[:s], fv[s:] + fv[:s]) == ((e, bc, ca), (a, b, c))
            assert (ge[t:] + ge[:t], gv[t:] + gv[:t]) == ((e, ad, db), (b, a, d))
            new = tri.flip(e)
            assert (new.face_edge_ids[f], new.face_vertex_ids[f]) == ((ad, e, ca), (a, d, c))
            assert (new.face_edge_ids[g], new.face_vertex_ids[g]) == ((db, bc, e), (d, b, c))
            assert sorted(new.quad(e)[0]) == sorted((bc, ca, ad, db))
            flipped += 1
    assert flipped == 0 + 3 + 9 + 1 + 12 + 48  # every edge but the self-glued ones


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
            sides = cur.quad(e)[0]
            new = cur.flip(e)
            ref, ref_edges, ref_vertices, ref_new_edge, ref_boundary = reference_flip(cur, e)
            canon, edge_map, vertex_map = new.canonical()
            assert surface_fields(canon) == surface_fields(ref)
            assert (edge_map, vertex_map) == (ref_edges, ref_vertices)
            assert edge_map[e] == ref_new_edge
            assert tuple(edge_map[b] for b in sides) == ref_boundary
            assert new.genus == t.genus
            # edges stay sorted pairs (canonical names)
            assert all(list(pair) == sorted(pair) for pair in new.edges)
            # every entry the flip does not write is the parent's own object
            touched = {e, *sides}
            for k in range(cur.edge_count):
                if k not in touched:
                    assert new.edges[k] is cur.edges[k]
            rows = {h for h, _ in cur.edges[e]}
            for h in range(cur.face_count):
                if h not in rows:
                    assert new.face_edge_ids[h] is cur.face_edge_ids[h]
                    assert new.face_vertex_ids[h] is cur.face_vertex_ids[h]
            # tables derived from the patched ones equal tables derived
            # afresh from the edge pairs
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
        s = t.flip(next(e for e in range(t.edge_count) if not t.is_self_glued_quad(e)))
        assert "edge_endpoint_ids" not in vars(s)  # a flip derives no endpoint table
        for u in (t, s):
            # the face tables agree with the edge pairs and the corner orbits
            for e, pair in enumerate(u.edges):
                assert [u.face_edge_ids[f][k] for f, k in pair] == [e, e]
            assert sorted(u.vertices) == corner_orbits(u.face_count, u.edges)
            for f in range(u.face_count):
                assert u.face_edge_ids[f] == tuple(u.edge_index[(f, k)] for k in range(3))
                assert u.face_vertex_ids[f] == tuple(u.vertex_index[(f, k)] for k in range(3))
            for e, (h, _) in enumerate(u.edges):
                tail, head = h, (h[0], (h[1] + 1) % 3)
                assert u.edge_endpoints(e) == (u.vertex_index[tail], u.vertex_index[head])
            assert u.face_edge_array.tolist() == [list(x) for x in u.face_edge_ids]
            assert u.face_vertex_array.tolist() == [list(x) for x in u.face_vertex_ids]
            assert u.edge_endpoint_array.tolist() == [list(x) for x in u.edge_endpoint_ids]
        # derived once per surface, on first read
        assert t.edge_endpoint_ids is t.edge_endpoint_ids
        assert s.edge_endpoint_ids is s.edge_endpoint_ids


def test_flip_stores_tables_and_derives_no_lookup():
    names = [f.name for f in dataclasses.fields(Triangulation)]
    assert names == ["face_count", "edges", "face_edge_ids", "face_vertex_ids", "genus"]
    rng = np.random.default_rng(11)
    for t in (Triangulation.square_torus(), Triangulation.genus_two_octagon(), grid_torus(4)):
        chain = [t]
        for _ in range(30):
            cur = chain[-1]
            flippable = [e for e in range(cur.edge_count) if not cur.is_self_glued_quad(e)]
            chain.append(cur.flip(flippable[rng.integers(len(flippable))]))
        for u in chain:  # a flip writes only the stored tables
            assert set(vars(u)) == set(names)


# -- the builder on flat slots against the builder on (face, slot) tuples --------


def stock_surfaces():
    return (
        Triangulation.double_triangle(),
        Triangulation.square_torus(),
        Triangulation.genus_two_octagon(),
        isosceles_sphere(),
        octahedron(),
        grid_torus(3),
        grid_torus(5),
    )


def built(builder, face_count, pairs):
    """What a builder makes of a gluing: the stored fields and the
    vertex count, or the type and message of what it raised."""
    got = outcome(builder, face_count, pairs)
    if isinstance(got, Triangulation):
        return surface_fields(got), got.vertex_count
    return got


def assert_builders_agree(face_count, pairs):
    want = built(reference_build_from_gluing, face_count, pairs)
    assert built(Triangulation.build_from_gluing, face_count, pairs) == want
    return want


def test_build_from_gluing_matches_tuple_reference_on_stock_surfaces():
    for t in stock_surfaces():
        fields, vertex_count = assert_builders_agree(t.face_count, t.edges)
        assert fields == surface_fields(t) and vertex_count == t.vertex_count


def test_build_from_gluing_matches_tuple_reference_after_flips():
    # the edge pairs of id-keeping flips are not in canonical order; the
    # builder gets them shuffled, with members swapped, as lists
    rng = np.random.default_rng(16)
    checked = 0
    for t in stock_surfaces():
        cur = t
        for _ in range(25):
            flippable = [e for e in range(cur.edge_count) if not cur.is_self_glued_quad(e)]
            if not flippable:
                break
            cur = cur.flip(flippable[rng.integers(len(flippable))])
            pairs = [list(pair) for pair in cur.edges]
            rng.shuffle(pairs)
            pairs = [
                [list(b), list(a)] if rng.integers(2) else [list(a), list(b)] for a, b in pairs
            ]
            fields, _ = assert_builders_agree(cur.face_count, pairs)
            assert fields == surface_fields(cur.canonical()[0])
            checked += 1
    assert checked >= 100


def test_build_from_gluing_matches_tuple_reference_on_corrupted_gluings():
    t = grid_torus(3)
    pairs = [list(map(list, pair)) for pair in t.edges]
    faces = t.face_count
    corrupted = [
        pairs[1:],  # a dropped pair
        pairs[:-1],
        [pairs[0], [pairs[1][0], pairs[0][1]]] + pairs[2:],  # a repeated half-edge
        pairs + [pairs[3]],
        [[pairs[0][0], pairs[0][0]]] + pairs[1:],  # a half-edge glued to itself
        [[[faces, 0], pairs[0][1]]] + pairs[1:],  # face out of range
        [[[-1, 0], pairs[0][1]]] + pairs[1:],
        [[pairs[0][0], [0, 3]]] + pairs[1:],  # slot out of range
        [[[0, -1], pairs[0][1]]] + pairs[1:],
        pairs + [[[f + faces, s], [g + faces, u]] for (f, s), (g, u) in pairs],  # disconnected
        [],
    ]
    messages = []
    for bad in corrupted:
        for count in (faces, 2 * faces):
            kind, message = assert_builders_agree(count, bad)
            assert kind in (NonInvolution, DisconnectedSurface)
            messages.append(message)
    for check in ("unglued", "repeated", "glued to itself", "out of range", "does not connect"):
        assert any(check in message for message in messages), check


#: mutations of a gluing list that keep every pair two int half-edges
WELL_FORMED = ("drop", "repeat", "self-glue", "out of range")
#: mutations that make an entry, a pair or the list itself malformed
MALFORMED = ("float", "string", "None", "bool", "three", "single", "plain int", "not a list")


@st.composite
def mutated_gluings(draw):
    """``(face_count, pairs, kind)``: a random involution on the ``3 F``
    slots of F = 1..8 faces (the last slot unglued when ``3 F`` is
    odd), as a list of ``[f, s]`` pairs, after up to two
    ``WELL_FORMED`` mutations and perhaps one ``MALFORMED`` one, which
    ``kind`` names.  A well-formed list may come as nested tuples or
    with numpy integers instead, and ``kind`` is then "list", "tuple"
    or "numpy"."""
    faces = draw(st.integers(1, 8))
    slots = draw(st.permutations(range(3 * faces)))
    pairs = [[list(divmod(a, 3)), list(divmod(b, 3))] for a, b in zip(slots[0::2], slots[1::2])]
    kinds = draw(st.lists(st.sampled_from(WELL_FORMED), max_size=2))
    malformed = draw(st.none() | st.sampled_from(MALFORMED))
    for kind in kinds + [malformed] * (malformed is not None):
        if not pairs:
            break
        k = draw(st.integers(0, len(pairs) - 1))
        half, entry = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        h = pairs[k][half] = list(pairs[k][half])
        if kind == "drop":
            del pairs[k]
        elif kind == "repeat":
            pairs.append(draw(st.sampled_from([pairs[k], [h, pairs[-1][0]]])))
        elif kind == "self-glue":
            pairs[k] = [h, list(h)]
        elif kind == "out of range":
            h[entry] = draw(st.sampled_from([-1, faces, 3] if entry else [-1, faces, faces + 5]))
        elif kind in ("float", "string", "None", "bool"):
            h[entry] = {
                "float": draw(st.sampled_from([float(h[entry]), h[entry] + 0.5])),
                "string": str(h[entry]),
                "None": None,
                "bool": bool(h[entry] % 2),
            }[kind]
        elif kind == "three":
            pairs[k] = draw(st.sampled_from([[*pairs[k], h], [pairs[k][1 - half], [*h, 0]]]))
        elif kind == "single":
            pairs[k] = [h]
        elif kind == "plain int":
            pairs[k] = [h[0], pairs[k][1 - half]]
        else:
            pairs = draw(st.sampled_from([dict(enumerate(pairs)), None, 5, "0:0"]))
    if malformed is not None:
        return faces, pairs, malformed
    form = draw(st.sampled_from(["list", "tuple", "numpy"]))
    if form == "tuple":
        pairs = tuple(tuple(map(tuple, pair)) for pair in pairs)
    elif form == "numpy":
        pairs = [[np.array(a, dtype=np.int64), [np.int32(i) for i in b]] for a, b in pairs]
    return faces, pairs, form


@settings(max_examples=250)
@given(mutated_gluings())
def test_generated_gluings_build_as_the_reference_or_raise_a_ddce_error(gluing):
    # a well-formed gluing builds as the tuple reference does, raising
    # the same error; anything else builds a surface the reference
    # agrees with or raises a DDCEError, never another exception
    faces, pairs, kind = gluing
    got = built(Triangulation.build_from_gluing, faces, pairs)
    raised = isinstance(got[0], type)
    if raised:
        assert issubclass(got[0], DDCEError), got
    if raised and kind in MALFORMED:
        return
    want = built(reference_build_from_gluing, faces, pairs)
    if kind == "numpy":  # numpy integers print differently in the reference's messages
        got, want = got[0], want[0]
    assert got == want
