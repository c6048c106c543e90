"""Input rejections: each documented refusal of a malformed or
out-of-range input raises its type with its message."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, cli
from ddce import delaunay as dl
from ddce import metric as me
from ddce import solver as so
from ddce import transition as tr
from ddce import trig
from ddce.errors import BadParameters, NotComparable, ResultInvalid

from conftest import grid_torus, outcome

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name):
    return cli.load_surface_file(str(FIXTURES / f"{name}.json"))[0]


def genus2():
    """The one-vertex hyperbolic genus-2 fixture, 9 edges."""
    return fixture("genus2_hyperbolic")


def heights(m, eps=True):
    h = me.heights_from_decoration(m)
    return h if eps else me.Heights(h.h, h.background, h.reference_radius)


def chart(m, **changes):
    """The heights of ``m`` with some of their fields replaced."""
    return dataclasses.replace(me.heights_from_decoration(m), **changes)


def solve(theta=2 * math.pi, **kw):
    return lambda: so.newton_solve(genus2(), np.full(1, theta), **kw)


HYP = Background.HYPERBOLIC

CASES = {
    "metric lengths": (
        lambda: DecoratedMetric(genus2().triangulation, HYP, np.ones(8), np.ones(1)),
        BadParameters, "length array does not match edge orbits",
    ),
    "metric radii": (
        lambda: DecoratedMetric(genus2().triangulation, HYP, np.ones(9), np.ones(2)),
        BadParameters, "radius array does not match vertex orbits",
    ),
    "conformal_change factors": (
        lambda: me.conformal_change(genus2(), np.zeros(2)),
        BadParameters, "scale factor array does not match vertex orbits",
    ),
    "decoration_from_heights heights": (
        lambda: me.decoration_from_heights(
            genus2().triangulation, me.lambda_lengths(genus2()), me.Heights(np.ones(2), HYP, 0.0)
        ),
        BadParameters, "height array does not match vertex orbits",
    ),
    "decoration_from_heights lambdas": (
        lambda: me.decoration_from_heights(
            genus2().triangulation,
            me.Invariant(genus2().triangulation, np.ones(8), np.ones(1)),
            heights(genus2()),
        ),
        BadParameters, "lambda array does not match edge orbits",
    ),
    "lambda_lengths no heights": (
        lambda: me.lambda_lengths(
            fixture("genus2_undecorated"), me.Heights(np.zeros(0), HYP, 0.0)
        ),
        BadParameters, "height array does not match vertex orbits",
    ),
    "lambda_lengths extra heights": (
        lambda: me.lambda_lengths(genus2(), me.Heights(np.ones(3), HYP, 0.0)),
        BadParameters, "height array does not match vertex orbits",
    ),
    "newton_solve targets shape": (
        lambda: so.newton_solve(genus2(), np.full(2, 2 * math.pi)),
        BadParameters, "target angle array does not match vertex orbits",
    ),
    "newton_solve target nan": (solve(math.nan), BadParameters, "target angles must be positive and finite"),
    "newton_solve target inf": (solve(math.inf), BadParameters, "target angles must be positive and finite"),
    "newton_solve target 0": (solve(0.0), BadParameters, "target angles must be positive and finite"),
    "newton_solve spherical target nan": (
        lambda: so.newton_solve(fixture("octahedron_spherical"), np.full(6, math.nan)),
        BadParameters, "target angles must be positive and finite",
    ),
    "newton_solve max_iter 2.5": (
        solve(max_iter=2.5), BadParameters, "max_iter must be non-negative and an integer, got 2.5"
    ),
    "newton_solve max_iter 1.5": (
        solve(max_iter=1.5), BadParameters, "max_iter must be non-negative and an integer, got 1.5"
    ),
    "newton_solve tol None": (
        solve(tol=None), BadParameters, "tol must be finite and non-negative, got None"
    ),
    "newton_solve tol string": (
        solve(tol="1e-9"), BadParameters, "tol must be finite and non-negative, got '1e-9'"
    ),
    "newton_solve max_iter True": (
        solve(max_iter=True), BadParameters, "max_iter must be non-negative and an integer, got True"
    ),
    "newton_solve tol True": (
        solve(tol=True), BadParameters, "tol must be finite and non-negative, got True"
    ),
    "extract_tessellation tol None": (
        lambda: dl.extract_tessellation(genus2(), tol=None),
        BadParameters, "tol must be finite and non-negative, got None",
    ),
    "extract_tessellation tol False": (
        lambda: dl.extract_tessellation(genus2(), tol=False),
        BadParameters, "tol must be finite and non-negative, got False",
    ),
    "build_transition bool parameter": (
        lambda: tr.build_transition(genus2(), [True, 2]),
        BadParameters, "parameters must be a sequence of real numbers",
    ),
    "build_transition None parameter": (
        lambda: tr.build_transition(genus2(), [1, None]),
        BadParameters, "parameters must be a sequence of real numbers",
    ),
    "build_transition one number": (
        lambda: tr.build_transition(genus2(), 5),
        BadParameters, "parameters must be a sequence of real numbers",
    ),
    "build_transition string parameter": (
        lambda: tr.build_transition(genus2(), ["x"]),
        BadParameters, "parameters must be a sequence of real numbers",
    ),
    "lambda_lengths heights of another background": (
        lambda: me.lambda_lengths(genus2(), chart(genus2(), background=Background.SPHERICAL)),
        NotComparable, "spherical heights for a hyperbolic metric",
    ),
    "lambda_lengths heights with other eps": (
        lambda: me.lambda_lengths(genus2(), chart(genus2(), eps=np.zeros(1))),
        NotComparable, "heights carry other ideal/hyperideal flags than the metric",
    ),
    "omega_map no eps": (
        lambda: me.omega_map(HYP, me.default_reference_radius(HYP), heights(genus2(), eps=False)),
        BadParameters, "heights carry no eps flags",
    ),
    "cusp_heights no eps": (
        lambda: tr.cusp_heights(heights(genus2(), eps=False)),
        BadParameters, "heights carry no eps flags",
    ),
    "scale_factors triangulations": (
        lambda: me.scale_factors(genus2(), fixture("double_tangent_hyperbolic")),
        NotComparable, "metrics live on different triangulations",
    ),
    "scale_factors backgrounds": (
        lambda: me.scale_factors(
            genus2(), DecoratedMetric(genus2().triangulation, Background.EUCLIDEAN, np.full(9, 2.5), [0.3])
        ),
        NotComparable, "metrics have different backgrounds",
    ),
    "scale_family t below 1": (
        lambda: tr.scale_family(heights(genus2()), 0.5),
        BadParameters, "scale parameter must be >= 1",
    ),
    "default_reference_radius euclidean": (
        lambda: me.default_reference_radius(Background.EUCLIDEAN),
        BadParameters, "reference radius is defined for curved backgrounds only",
    ),
    "stable_acosh below 1": (
        lambda: me.stable_acosh(0.5), BadParameters, "acosh argument 0.5 below 1"
    ),
    "flip_edge edge id -1": (
        lambda: dl.flip_edge(genus2(), -1), BadParameters, "edge id -1 out of range for 9 edges"
    ),
    "flip_edge edge id 9": (
        lambda: dl.flip_edge(genus2(), 9), BadParameters, "edge id 9 out of range for 9 edges"
    ),
    "flip_edge edge id True": (
        lambda: dl.flip_edge(genus2(), True), BadParameters, "edge id True is not an int"
    ),
    "flip_edge edge id 1.0": (
        lambda: dl.flip_edge(genus2(), 1.0), BadParameters, "edge id 1.0 is not an int"
    ),
    "is_local_delaunay edge id -1": (
        lambda: dl.is_local_delaunay(genus2(), -1), BadParameters, "edge id -1 out of range for 9 edges"
    ),
    "is_local_delaunay edge id None": (
        lambda: dl.is_local_delaunay(genus2(), None), BadParameters, "edge id None is not an int"
    ),
    "Triangulation.flip edge id 9": (
        lambda: genus2().triangulation.flip(9), BadParameters, "edge id 9 out of range for 9 edges"
    ),
    "Triangulation.quad edge id True": (
        lambda: genus2().triangulation.quad(True), BadParameters, "edge id True is not an int"
    ),
    "support_minimum hyperbolic": (
        lambda: dl.support_minimum(genus2()),
        BadParameters, "the support function is defined for spherical metrics",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_is_rejected_with_its_type_and_message(case):
    call, kind, message = CASES[case]
    with pytest.raises(Exception) as raised:
        call()
    assert type(raised.value) is kind
    assert str(raised.value) == message


def test_numpy_integer_edge_ids_are_accepted():
    m = genus2()
    for e in (np.int64(1), np.intp(8)):
        assert repr(dl.flip_edge(m, e)[0].lengths.tolist()) == repr(
            dl.flip_edge(m, int(e))[0].lengths.tolist()
        )
        assert dl.is_local_delaunay(m, e) == dl.is_local_delaunay(m, int(e))
        assert m.triangulation.quad(e) == m.triangulation.quad(int(e))


def test_lambda_lengths_take_heights_of_their_own_chart():
    # the chart newton_solve passes: the metric's background and eps flags
    for name in ("genus2_hyperbolic", "genus2_undecorated", "octahedron_spherical"):
        m = fixture(name)
        h = me.heights_from_decoration(m)
        for given in (h, me.Heights(h.h, h.background, h.reference_radius)):
            assert repr(me.lambda_lengths(m, given).lam.tolist()) == repr(
                me.lambda_lengths(m).lam.tolist()
            )


# -- valid metrics on which the face kernel fails ------------------------------

ARRAY_READERS = {
    "faces": lambda m: m.faces,
    "edge_weights": dl.edge_weights,
    "angle_jacobian": so.angle_jacobian,
    "cone_angles": so.cone_angles,
}


def euclidean_torus(length):
    """The 3x3 Euclidean grid torus with every length ``length`` and
    every radius ``0.4 * length``: valid at any finite scale."""
    tri = grid_torus(3)
    return DecoratedMetric(
        tri, Background.EUCLIDEAN, np.full(tri.edge_count, length), np.full(tri.vertex_count, 0.4 * length)
    )


@pytest.mark.parametrize("reader", list(ARRAY_READERS))
def test_array_readers_name_where_the_kernel_overflows(reader):
    # every length of the genus-2 fixture times 1000 (sinh overflows) and
    # a Euclidean torus of sides 1e308 (a + b + c overflows): the readers
    # once raised a bare OverflowError ("math range error", "intermediate
    # overflow in fsum") where face_geometries named the first edge
    g2 = genus2()
    overflow = "edge 0:0: the face kernel overflows"
    for m, message, scalar in (
        (
            DecoratedMetric(g2.triangulation, HYP, g2.lengths * 1000, g2.radii),
            f"{overflow} (math range error)", f"{overflow} (math range error)",
        ),
        (
            euclidean_torus(1e308),
            "face 0: a corner angle is not a number", f"{overflow} (intermediate overflow in fsum)",
        ),
    ):
        assert me.validate(m) == []
        with pytest.raises(ResultInvalid) as raised:
            ARRAY_READERS[reader](m)
        assert str(raised.value) == message
        assert outcome(dl.face_geometries, m) == (ResultInvalid, scalar)


def test_euclidean_angles_whose_products_overflow_are_rejected():
    # lengths of 1e160: (sp - a)(sp - c) and sp (sp - b) overflow to inf,
    # and inf / inf gave NaN angles and weights with no error, and a
    # FlipGeometryInvalid from flip_to_delaunay; at 1e150 they evaluate
    m = euclidean_torus(1e160)
    assert me.validate(m) == []
    for reader in ARRAY_READERS.values():
        with pytest.raises(ResultInvalid) as raised:
            reader(m)
        assert str(raised.value) == "face 0: a corner angle is not a number"
    scalar = "face 0: the face kernel overflows (a corner angle is not a number)"
    assert outcome(dl.face_geometries, m) == (ResultInvalid, scalar)
    assert outcome(dl.flip_to_delaunay, m) == (ResultInvalid, scalar)
    assert outcome(dl.flip_edge, m, 0) == (ResultInvalid, "a corner angle is not a number")
    assert outcome(trig.interior_angles, Background.EUCLIDEAN, (1e160,) * 3) == (
        ResultInvalid, "a corner angle is not a number"
    )
    assert np.allclose(so.cone_angles(euclidean_torus(1e150)), 2 * math.pi, rtol=1e-15, atol=0)
    assert min(dl.face_geometries(euclidean_torus(1e150))[0].angles) > 0.0
