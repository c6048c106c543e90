"""One source per face formula.

Each row of the face geometry (the face condition, the corner angles,
an edge's orthogonal section and a side's face-circle tangent) is one
body in ``trig``, written over operands that are Python floats or
arrays; the per-face entries and the whole-surface entries both call
it, with the float or the array operations of the background.  Spies
on the four bodies show which entry reaches which body, and with which
operations.
"""

import numpy as np

from ddce import trig

from conftest import ALL_BACKGROUNDS, grid_torus, random_metric

#: the shared bodies, one per row
BODIES = ("_face_gaps", "_corner_angles", "_section", "_tangent")


def spy_on_bodies(monkeypatch):
    """Per body, the operation tables it is called with, in call order."""
    calls = {name: [] for name in BODIES}
    for name in BODIES:
        real = getattr(trig, name)

        def spy(ops, *operands, real=real, name=name):
            calls[name].append(ops)
            return real(ops, *operands)

        monkeypatch.setattr(trig, name, spy)
    return calls


def surface_arguments(m):
    tri = m.triangulation
    return (
        m.background, m.lengths, m.radii,
        tri.face_edge_array, tri.face_vertex_array, tri.edge_endpoint_array,
    )


def test_per_face_and_whole_surface_entries_share_each_body(monkeypatch, rng):
    reached = spy_on_bodies(monkeypatch)
    for bg in ALL_BACKGROUNDS:
        m = random_metric(grid_torus(3), bg, rng)
        tri = m.triangulation
        lengths = m.lengths[tri.face_edge_array]
        a, b, c = lengths[0].tolist()
        (i, j), length = tri.edge_endpoints(0), float(m.lengths[0])
        r_i, r_j = float(m.radii[i]), float(m.radii[j])
        sections = [
            trig.edge_section(bg, float(m.lengths[e]), *m.radii[list(tri.edge_endpoints(e))].tolist())
            for e in tri.face_edge_ids[0]
        ]
        entries = [
            # (entry, what each body must have been called with, in order)
            (lambda: trig.face_defect(bg, a, b, c), {"_face_gaps": [bg.floats]}),
            (lambda: trig.degenerate_rows(bg, lengths), {"_face_gaps": [bg.arrays]}),
            (
                lambda: trig.interior_angles(bg, (a, b, c)),
                {"_face_gaps": [bg.floats], "_corner_angles": [bg.floats]},
            ),
            (
                lambda: trig.angle_array(bg, lengths),
                {"_face_gaps": [bg.arrays], "_corner_angles": [bg.arrays]},
            ),
            (lambda: trig.section_foot_radius(bg, length, r_i, r_j), {"_section": [bg.floats]}),
            (lambda: trig.edge_section(bg, length, r_i, r_j), {"_section": [bg.floats]}),
            (
                lambda: trig.face_circle(
                    bg, tuple(lengths[0].tolist()),
                    tuple(m.radii[list(tri.face_vertex_ids[0])].tolist()), sections,
                ),
                {
                    "_face_gaps": [bg.floats], "_corner_angles": [bg.floats],
                    "_tangent": [bg.floats] * 3,  # slot by slot
                },
            ),
            (
                lambda: trig.face_circles(*surface_arguments(m)),
                {
                    "_face_gaps": [bg.arrays], "_corner_angles": [bg.arrays],
                    "_section": [bg.arrays], "_tangent": [bg.arrays],  # every side at once
                },
            ),
        ]
        for entry, want in entries:
            for calls in reached.values():
                calls.clear()
            entry()
            got = {name: calls for name, calls in reached.items() if calls}
            assert got == want, (bg, want)
    assert all(bg.floats is not bg.arrays for bg in ALL_BACKGROUNDS)


def test_whole_surface_entries_call_no_per_face_entry(monkeypatch, rng):
    # the benchmark counts face_circle and interior_angles calls by
    # these names; the array kernel reaches the shared bodies without
    # them, so those counts stay the per-face calls alone
    want = []
    metrics = [random_metric(grid_torus(4), bg, rng, ideal_fraction=0.3) for bg in ALL_BACKGROUNDS]
    for m in metrics:
        want.append(trig.face_circles(*surface_arguments(m)))

    def refuse(*args):
        raise AssertionError("a whole-surface entry called a per-face entry")

    monkeypatch.setattr(trig, "face_circle", refuse)
    monkeypatch.setattr(trig, "interior_angles", refuse)
    for m, before in zip(metrics, want):
        got = trig.face_circles(*surface_arguments(m))
        angles = trig.angle_array(m.background, m.lengths[m.triangulation.face_edge_array])
        for field in ("angles", "r_section", "x_section", "d_tangent"):
            assert np.array_equal(getattr(got, field), getattr(before, field))
        assert np.array_equal(angles, before.angles)
