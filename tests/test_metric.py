"""Decorated metric tests: validation, conformal change, invariants,
heights, omega maps, scale factors."""

import functools
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddce import Background, DecoratedMetric, Triangulation
from ddce import cli, delaunay, solver, transition
from ddce import metric as me
from ddce import trig
from ddce.errors import (
    BadParameters,
    DDCEError,
    FlipGeometryInvalid,
    HeightsOutOfDomain,
    NotComparable,
    ResultInvalid,
    ScaleOutOfDomain,
    WeightOutOfRange,
)

from conftest import (
    ALL_BACKGROUNDS,
    grid_torus,
    octahedron,
    oracle_corpus,
    outcome,
    random_metric,
    scrambled_metric,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# frozen oracle values
HYP_LAMBDA_R05_L2 = 2.9063528387891410972  # acosh((cosh 2 - cosh^2 0.5)/sinh^2 0.5)
CONFORMAL_IDEAL_LENGTH = 1.1996856143631226255  # 2 asinh(e^0.2 sinh 0.5)
SPH_TANGENCY_COS = 0.16005131677194786121  # (sinh^2 1 - 1)/cosh^2 1


# -- validate ------------------------------------------------------------------


def test_validate_examples(double_triangle):
    m = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.full(3, 0.2))
    assert me.validate(m) == []
    m_bad = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.full(3, 0.6))
    bad = me.validate(m_bad)
    assert len(bad) == 3 and all("circles intersect" in msg for msg in bad)
    m_sph = DecoratedMetric(
        double_triangle, Background.SPHERICAL, np.full(3, math.pi / 2), np.full(3, 0.3)
    )
    assert me.validate(m_sph) == []
    for lengths, radii in (([1.0, np.nan, 1.0], [0.2] * 3), ([1.0] * 3, [0.2, np.inf, 0.2])):
        bad = me.validate(DecoratedMetric(double_triangle, Background.EUCLIDEAN, lengths, radii))
        assert len(bad) == 1 and "not finite" in bad[0]


def _endpoints(tri, e):
    h = tri.edges[e][0]
    return tri.vertex_index[h], tri.vertex_index[(h[0], (h[1] + 1) % 3)]


def reference_validate(m):
    """Vertex-, edge- and face-by-face validation loop: the exact oracle.
    One line per violated condition, on the vertex, edge or face it
    constrains; a face line names its smallest gap, or its perimeter."""
    tri = m.triangulation
    finite_l, finite_r = np.isfinite(m.lengths), np.isfinite(m.radii)
    if not (finite_l.all() and finite_r.all()):
        return [
            f"edge {tri.edge_label(e)}: length {m.lengths[e]} not finite"
            for e in np.flatnonzero(~finite_l)
        ] + [
            f"vertex {tri.vertex_label(v)}: radius {m.radii[v]} not finite"
            for v in np.flatnonzero(~finite_r)
        ]
    out = []
    if m.background is Background.SPHERICAL:
        for v in range(tri.vertex_count):
            if not (0 <= m.radii[v] < math.pi / 2):
                out.append(f"vertex {tri.vertex_label(v)}: spherical radius {m.radii[v]} outside [0, pi/2)")
    else:
        for v in range(tri.vertex_count):
            if m.radii[v] < 0:
                out.append(f"vertex {tri.vertex_label(v)}: negative radius {m.radii[v]}")
    for e in range(tri.edge_count):
        i, j = _endpoints(tri, e)
        if m.radii[i] + m.radii[j] > m.lengths[e]:
            out.append(
                f"edge {tri.edge_label(e)}: vertex circles intersect "
                f"(r_i + r_j = {m.radii[i] + m.radii[j]} > l = {m.lengths[e]})"
            )
    for f in range(tri.face_count):
        l = [float(m.lengths[tri.edge_index[(f, s)]]) for s in range(3)]
        gaps = [l[s] + l[(s + 1) % 3] - l[(s + 2) % 3] for s in range(3)]
        if min(gaps) <= trig.DEGENERACY_TOL * max(1.0, *l):
            out.append(f"face {f}: triangle inequality violated (gap {min(gaps):.3e})")
        elif m.background is Background.SPHERICAL and sum(l) >= 2 * math.pi:
            out.append(f"face {f}: perimeter {l[0] + l[1] + l[2]} not below 2*pi")
    return out


def _perturbed(m):
    """The metric itself and copies breaking each validity condition."""
    tri, bg = m.triangulation, m.background
    (ea, eb, ec), out = tri.face_edge_ids[0], [m]

    def variant(lengths=None, radii=None):
        out.append(DecoratedMetric(
            tri, bg, m.lengths if lengths is None else lengths, m.radii if radii is None else radii
        ))

    radii = m.radii.copy()
    radii[-1] = -0.1
    variant(radii=radii)  # negative radius
    variant(radii=4.0 * m.radii + 0.05)  # intersecting circles
    variant(radii=np.full(tri.vertex_count, 1.6))  # spherical radius >= pi/2
    lengths = m.lengths.copy()
    lengths[ec] = lengths[ea] + lengths[eb]
    variant(lengths)  # zero gap
    lengths = m.lengths.copy()
    lengths[ec] = 3.0 * (lengths[ea] + lengths[eb])
    variant(lengths)  # triangle inequality violated
    lengths = m.lengths.copy()
    lengths[eb] = 0.0
    variant(lengths)
    variant(np.full(tri.edge_count, 2.2))  # spherical perimeter >= 2 pi
    variant(np.full(tri.edge_count, 3.3))  # spherical lengths >= pi
    lengths = m.lengths.copy()
    lengths[0] = np.nan
    variant(lengths)
    radii = m.radii.copy()
    radii[0] = np.inf
    variant(radii=radii)
    return out


def test_validate_matches_loop_oracle(rng):
    flagged = 0
    for name, m in oracle_corpus(rng):
        for k, pm in enumerate(_perturbed(m)):
            want = reference_validate(pm)
            assert me.validate(pm) == want, (name, k)
            flagged += bool(want)
    assert flagged >= 150  # most perturbations break the metric


def test_validate_names_edges(square_torus):
    m = DecoratedMetric(square_torus, Background.EUCLIDEAN, np.array([1.0, 1.0, 0.3]), np.array([0.2]))
    bad = me.validate(m)
    assert any("0:2" in msg for msg in bad)


@functools.lru_cache(maxsize=None)
def _base_metric(bg, name):
    tri = {"octahedron": octahedron, "torus": grid_torus,
           "genus2": Triangulation.genus_two_octagon}[name]()
    return random_metric(tri, bg, np.random.default_rng(7), ideal_fraction=0.3)


@st.composite
def _perturbed_metrics(draw):
    """A valid metric with up to four lengths or radii replaced: scaled,
    set to a special value, closing a face's triangle inequality, or
    making an edge's circles tangent."""
    m = _base_metric(draw(st.sampled_from(ALL_BACKGROUNDS)),
                     draw(st.sampled_from(["octahedron", "torus", "genus2"])))
    tri = m.triangulation
    lengths, radii = m.lengths.copy(), m.radii.copy()
    special = st.sampled_from([0.0, -0.1, math.pi / 2, math.pi, 2.2, 3.3, math.nan, math.inf])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["length", "radius", "flat", "tangent"]))
        if kind == "flat":
            a, b, c = tri.face_edge_ids[draw(st.integers(0, tri.face_count - 1))]
            lengths[c] = lengths[a] + lengths[b]
        elif kind == "tangent":
            e = draw(st.integers(0, tri.edge_count - 1))
            i, j = tri.edge_endpoints(e)
            lengths[e] = radii[i] + radii[j]
        else:
            values = lengths if kind == "length" else radii
            k = draw(st.integers(0, values.size - 1))
            values[k] = draw(st.one_of(special, st.floats(0.0, 4.0).map(float(values[k]).__mul__)))
    return DecoratedMetric(tri, m.background, lengths, radii)


@given(_perturbed_metrics())
def test_validate_matches_loop_oracle_on_generated_metrics(m):
    assert me.validate(m) == reference_validate(m)


def test_metric_holds_read_only_copies(double_triangle):
    lengths, radii = np.ones(3), np.full(3, 0.2)
    m = DecoratedMetric(double_triangle, Background.EUCLIDEAN, lengths, radii)
    for values in (m.lengths, m.radii):
        with pytest.raises(ValueError):
            values[0] = 0.5
    # the caller's arrays are left as they were, and writing into them
    # later does not reach the metric
    assert lengths.flags.writeable and radii.flags.writeable
    assert lengths.tolist() == [1.0] * 3 and radii.tolist() == [0.2] * 3
    lengths[0], radii[0] = 0.5, 0.9
    assert m.lengths.tolist() == [1.0] * 3 and m.radii.tolist() == [0.2] * 3


def test_metric_keeps_read_only_float_arrays_it_is_given(rng):
    m = random_metric(grid_torus(4), Background.HYPERBOLIC, rng)
    # what a metric holds is kept as it is by the next metric
    again = DecoratedMetric(m.triangulation, m.background, m.lengths, m.radii)
    assert again.lengths is m.lengths and again.radii is m.radii
    # a read-only view, a writable array or another dtype is copied
    view = m.lengths[:]
    assert not view.flags.writeable and not view.flags.owndata
    for lengths in (view, m.lengths.copy(), m.lengths.astype(np.float32)):
        other = DecoratedMetric(m.triangulation, m.background, lengths, m.radii)
        assert other.lengths is not lengths and not other.lengths.flags.writeable
    # a flip shares its parent's radii and copies the lengths once
    for e in range(m.triangulation.edge_count):
        try:
            flipped, new_len = delaunay.flip_edge(m, e)
            break
        except FlipGeometryInvalid:
            continue
    assert flipped.radii is m.radii
    assert flipped.lengths is not m.lengths and flipped.lengths[e] == new_len
    for values in (m.lengths, m.radii, flipped.lengths):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.5


def test_validate_returns_a_fresh_list(double_triangle):
    for r in (0.2, 0.6):  # valid, then three intersecting pairs of circles
        m = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.full(3, r))
        first = me.validate(m)
        want = list(first)
        first.append("appended")
        first[:1] = ["replaced"]
        assert me.validate(m) == want == reference_validate(m)
        assert me.validate(m) is not me.validate(m)


def test_validity_is_computed_at_most_once_per_metric(rng, monkeypatch):
    seen = []  # the metrics themselves, so that no id is reused
    real = me._diagnose
    monkeypatch.setattr(me, "_diagnose", lambda m: seen.append(m) or real(m))
    m = random_metric(Triangulation.genus_two_octagon(), Background.HYPERBOLIC, rng)
    solver.newton_solve(m, np.full(1, 2 * math.pi))
    transition.build_transition(random_metric(grid_torus(4), Background.SPHERICAL, rng), [1, 10])
    for argv in (
        ["solve", str(FIXTURES / "genus2_hyperbolic.json"), "--theta", "2pi"],
        ["invariant", str(FIXTURES / "square_torus_pulled.json")],
        ["transition", str(FIXTURES / "octahedron_spherical.json"), "--t-list", "1,10,100"],
    ):
        assert cli.main(argv) == 0
    assert len(seen) >= 20
    assert len({id(x) for x in seen}) == len(seen)


def edge_sections(m):
    """``trig.edge_section`` of every edge of ``m``, edge by edge."""
    radii = m.radii.tolist()
    return tuple(
        trig.edge_section(m.background, length, radii[i], radii[j])
        for length, (i, j) in zip(m.lengths.tolist(), m.triangulation.edge_endpoint_ids)
    )


def test_sections_are_the_edge_sections_bit_for_bit(rng):
    # on every fixture, and on flip outputs whose diagonals moved; repr
    # tells floats apart bit for bit
    metrics = [cli.load_surface_file(str(path))[0] for path in sorted(FIXTURES.glob("*.json"))]
    assert len(metrics) == 7
    flips = 0
    for m in metrics + [scrambled_metric(grid_torus(4), bg, rng) for bg in ALL_BACKGROUNDS]:
        flipped, log = delaunay.flip_to_delaunay(m)
        flips += log.flip_count
        for x in (m, flipped):
            assert repr(x.sections) == repr(edge_sections(x))
            assert x.sections is x.sections  # computed once, on first read
    assert flips >= 3


def test_sections_name_the_first_edge_that_overflows():
    # sinh of every genus-2 fixture length times 1000 overflows
    g2, _ = cli.load_surface_file(str(FIXTURES / "genus2_hyperbolic.json"))
    m = DecoratedMetric(g2.triangulation, g2.background, g2.lengths * 1000, g2.radii)
    with pytest.raises(ResultInvalid) as raised:
        m.sections
    assert str(raised.value) == "edge 0:0: the face kernel overflows (math range error)"
    assert raised.value.diagnostics == ["math range error"]


# -- conformal change -----------------------------------------------------------


def test_conformal_identity_bitwise(genus2, rng):
    m = random_metric(genus2, Background.HYPERBOLIC, rng)
    m2 = me.conformal_change(m, np.zeros(1))
    assert np.array_equal(m2.lengths, m.lengths)
    assert np.array_equal(m2.radii, m.radii)


def test_conformal_ideal_half_angle_formula(double_triangle):
    # r == 0, l = 1, u_i = u_j = 0.2 on every edge: the classical
    # vertex-scaling form sinh(l'/2) = e^{(u_i+u_j)/2} sinh(l/2)
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.ones(3), np.zeros(3))
    m2 = me.conformal_change(m, np.full(3, 0.2))
    assert np.allclose(m2.lengths, CONFORMAL_IDEAL_LENGTH, atol=1e-14)
    assert np.array_equal(m2.radii, np.zeros(3))


def test_conformal_change_matches_lift_scaling_oracle(double_triangle):
    # scale the Minkowski lifts of the vertex circles by e^{u} explicitly
    # and read the new radii/lengths from the inner products
    r = np.array([0.1, 0.1, 0.1])
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.ones(3), r)
    u = np.array([0.3, -0.2, 0.0])
    m2 = me.conformal_change(m, u)
    for e in range(3):
        i, j = double_triangle.edge_endpoints(e)
        # lifted circle data: |C|^2 = sinh^2 r, <C_i, C_j> = cosh r_i cosh r_j - cosh l
        norm_i = math.exp(u[i]) * math.sinh(r[i])
        norm_j = math.exp(u[j]) * math.sinh(r[j])
        dot = math.exp(u[i] + u[j]) * (
            math.cosh(r[i]) * math.cosh(r[j]) - math.cosh(m.lengths[e])
        )
        r_i_new = math.asinh(norm_i)
        r_j_new = math.asinh(norm_j)
        l_new = math.acosh(math.cosh(r_i_new) * math.cosh(r_j_new) - dot)
        assert m2.radii[i] == pytest.approx(r_i_new, abs=1e-14)
        assert m2.radii[j] == pytest.approx(r_j_new, abs=1e-14)
        assert m2.lengths[e] == pytest.approx(l_new, abs=1e-12)


def test_scale_out_of_domain(double_triangle):
    m = DecoratedMetric(
        double_triangle, Background.SPHERICAL, np.full(3, math.pi / 2), np.full(3, 0.4)
    )
    with pytest.raises(ScaleOutOfDomain):
        me.conformal_change(m, np.full(3, 2.0))
    # the vertex that overshoots most is named; one whose factor is NaN
    # has no overshoot to compare
    worst = double_triangle.vertex_label(2)
    with pytest.raises(ScaleOutOfDomain, match=f"^vertex {worst}: "):
        me.conformal_change(m, np.array([math.nan, 2.0, 2.5]))


def test_conformal_result_invalid_diagnostics(double_triangle):
    # inversive distances are preserved, so hyperideality cannot break, but
    # blowing up two vertices breaks the triangle inequality
    m = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.full(3, 0.25))
    with pytest.raises(ResultInvalid) as err:
        me.conformal_change(m, np.array([2.5, 2.5, 0.0]))
    assert err.value.diagnostics


def closed_form_conformal_change(m, u):
    """The closed form of a conformal change on the lifts of the vertex
    circles (``cosh l' = e^{u_i + u_j} (cosh l - cosh r_i cosh r_j) +
    sqrt((1 + e^{2u_i} sinh^2 r_i) (1 + e^{2u_j} sinh^2 r_j))`` and its
    spherical and Euclidean counterparts), vertex by vertex and edge by
    edge: a cross-check of the heights route, independent of it."""
    tri, bg = m.triangulation, m.background
    r, u = m.radii.tolist(), [float(x) for x in u]
    scale = [math.exp(x) for x in u]
    if bg is Background.SPHERICAL:
        sin_new = [scale[v] * math.sin(r[v]) for v in range(tri.vertex_count)]
        worst = max(range(tri.vertex_count), key=lambda v: sin_new[v])
        if sin_new[worst] > 1.0:
            raise ScaleOutOfDomain(
                f"vertex {tri.vertex_label(worst)}: e^u sin r = {sin_new[worst]} > 1"
            )
    radii = []
    for v in range(tri.vertex_count):
        if u[v] == 0.0:
            radii.append(r[v])  # bit for bit unchanged
        elif bg is Background.SPHERICAL:
            radii.append(math.asin(scale[v] * math.sin(r[v])))
        elif bg is Background.HYPERBOLIC:
            radii.append(math.asinh(scale[v] * math.sinh(r[v])))
        else:
            radii.append(scale[v] * r[v])
    lengths, bad = m.lengths.tolist(), []
    for e in range(tri.edge_count):
        i, j = tri.edge_endpoints(e)
        if u[i] == 0.0 and u[j] == 0.0:
            continue
        l, k = lengths[e], math.exp(u[i] + u[j])
        if bg is Background.SPHERICAL:
            c = k * (math.cos(l) - math.cos(r[i]) * math.cos(r[j])) + math.sqrt(
                (1.0 - scale[i] ** 2 * math.sin(r[i]) ** 2) * (1.0 - scale[j] ** 2 * math.sin(r[j]) ** 2)
            )
            if not (-1.0 < c < 1.0):
                bad.append(f"edge {tri.edge_label(e)}: cos of new length = {c}")
                continue
            lengths[e] = math.acos(c)
        elif bg is Background.HYPERBOLIC:
            c = k * (math.cosh(l) - math.cosh(r[i]) * math.cosh(r[j])) + math.sqrt(
                (1.0 + scale[i] ** 2 * math.sinh(r[i]) ** 2) * (1.0 + scale[j] ** 2 * math.sinh(r[j]) ** 2)
            )
            if c < 1.0:
                bad.append(f"edge {tri.edge_label(e)}: cosh of new length = {c}")
                continue
            lengths[e] = me.stable_acosh(c)
        else:
            sq = scale[i] ** 2 * r[i] ** 2 + scale[j] ** 2 * r[j] ** 2 + k * (l * l - r[i] ** 2 - r[j] ** 2)
            if sq <= 0.0:
                bad.append(f"edge {tri.edge_label(e)}: squared new length = {sq}")
                continue
            lengths[e] = math.sqrt(sq)
    if bad:
        raise ResultInvalid("conformal change leaves the metric space", bad)
    result = DecoratedMetric(tri, bg, lengths, radii)
    if me.validate(result):
        raise ResultInvalid("conformally changed metric is invalid", me.validate(result))
    return result


def reference_conformal_change(m, u):
    """conformal_change by its definition, with the tests' scalar
    references: the invariant of ``m`` realized by
    ``reference_decoration_from_heights`` at the heights moved by ``u``
    (``tau(-eps, h)`` scaled by e^-u, ideal heights by -u), then the radii
    of untouched vertices and the lengths of edges between two of them
    restored, and tangent edges set to r_i + r_j: the exact oracle."""
    tri, bg = m.triangulation, m.background
    r, u = m.radii.tolist(), [float(x) for x in u]
    inv = me.lambda_lengths(m)
    h = []
    for v in range(tri.vertex_count):
        if r[v] <= 0:
            h.append(0.0 - u[v])
        elif bg is Background.SPHERICAL:
            h.append(math.exp(-u[v]) / math.sin(r[v]))  # cosh of the height
        elif bg is Background.HYPERBOLIC:
            h.append(math.asinh(math.exp(-u[v]) / math.sinh(r[v])))
        else:
            h.append(-math.log(r[v]) - u[v])
    if bg is Background.SPHERICAL:
        hyper = [v for v in range(tri.vertex_count) if r[v] > 0]
        below = [v for v in hyper if h[v] < 1.0]
        if below:
            worst = min(below, key=lambda v: h[v])
            raise ScaleOutOfDomain(f"vertex {tri.vertex_label(worst)}: e^-u / sin r = {h[worst]} < 1")
        for v in hyper:
            h[v] = me.stable_acosh(h[v])
    try:
        moved = reference_decoration_from_heights(tri, inv, me.Heights(np.array(h), bg, 0.0, inv.eps))
    except HeightsOutOfDomain as ex:
        raise ResultInvalid("conformal change leaves the metric space", [str(ex)]) from None
    radii = [r[v] if u[v] == 0.0 else float(moved.radii[v]) for v in range(tri.vertex_count)]
    lengths = moved.lengths.tolist()
    for e in range(tri.edge_count):
        i, j = _endpoints(tri, e)
        if u[i] == 0.0 and u[j] == 0.0:
            lengths[e] = float(m.lengths[e])  # bit for bit unchanged
        elif inv.eps[i] == 1 and inv.eps[j] == 1 and inv.lam[e] == 0.0:
            lengths[e] = radii[i] + radii[j]  # tangency kept exactly
    result = DecoratedMetric(tri, bg, lengths, radii)
    bad = reference_validate(result)
    if bad:
        raise ResultInvalid("conformally changed metric is invalid", bad)
    return result


def conformal_outcome(fn, m, u):
    """Lengths and radii as text that tells floats apart bit for bit, or
    the type, message and diagnostics of what was raised."""
    try:
        out = fn(m, u)
    except (ScaleOutOfDomain, ResultInvalid) as ex:
        return type(ex), repr((str(ex), getattr(ex, "diagnostics", None)))
    return DecoratedMetric, repr((out.lengths.tolist(), out.radii.tolist()))


def test_conformal_change_matches_scalar_oracle_exactly(rng):
    """Exact against its definition, and within 1e-13 relative of the
    closed form wherever both give a metric."""
    outcomes, agreed = set(), 0
    for name, m in oracle_corpus(rng):
        n = m.triangulation.vertex_count
        for k in range(6):
            u = rng.uniform(-0.3, 0.3, size=n)
            if k % 2:
                u[rng.random(n) < 0.4] = 0.0  # untouched vertices
            if k == 5:
                u *= 8.0  # out of the domain of spherical scalings or lengths
            want = conformal_outcome(reference_conformal_change, m, u)
            assert conformal_outcome(me.conformal_change, m, u) == want, (name, k)
            outcomes.add(want[0])
            closed = outcome(closed_form_conformal_change, m, u)
            if want[0] is DecoratedMetric and isinstance(closed, DecoratedMetric):
                got = me.conformal_change(m, u)
                assert np.allclose(got.lengths, closed.lengths, rtol=1e-13, atol=0.0), (name, k)
                assert np.allclose(got.radii, closed.radii, rtol=1e-13, atol=0.0), (name, k)
                agreed += 1
    assert outcomes == {DecoratedMetric, ScaleOutOfDomain, ResultInvalid}
    assert agreed >= 100


@pytest.mark.parametrize("x", [800.0, -800.0, math.inf, -math.inf, math.nan])
def test_conformal_change_at_extreme_scale_factors(rng, x):
    """e^u overflowing, underflowing or not a number, at every vertex or
    at one: a spherical circle past a hemisphere is ScaleOutOfDomain,
    everything else ResultInvalid, never a bare OverflowError."""
    for name, m in oracle_corpus(rng):
        n = m.triangulation.vertex_count
        for u in (np.full(n, x), np.where(np.arange(n) == n - 1, x, 0.1)):
            with pytest.raises((ScaleOutOfDomain, ResultInvalid)) as err:
                me.conformal_change(m, u)
            assert err.type is ResultInvalid or (m.background is Background.SPHERICAL and x > 0), name


@pytest.mark.parametrize("length, radius", [(2000.0, 800.0), (1500.0, 711.0)])
def test_radius_too_large_for_sinh_names_the_vertex(length, radius):
    """A valid hyperbolic metric whose radius overflows sinh: every map
    through its heights raises ResultInvalid naming the vertex, never a
    bare OverflowError."""
    m = DecoratedMetric(
        Triangulation.genus_two_octagon(), Background.HYPERBOLIC,
        np.full(9, length), np.array([radius]),
    )
    assert me.validate(m) == []
    heights = me.Heights(np.zeros(1), Background.HYPERBOLIC, 0.0, m.eps)
    for call in (
        lambda: me.heights_from_decoration(m),
        lambda: me.lambda_lengths(m),
        lambda: solver.functional_value(m, heights, [2.0 * math.pi]),
        lambda: me.scale_factors(m, m),
    ):
        with pytest.raises(ResultInvalid, match=f"^vertex 0:0: sinh of radius {radius} overflows$"):
            call()


def test_conformal_change_keeps_tangency_exactly(rng):
    tangent = [m for name, m in oracle_corpus(rng) if name.endswith("-tangent")]
    assert len(tangent) == len(ALL_BACKGROUNDS)
    for m in tangent:
        i, j = m.triangulation.edge_endpoints(0)
        assert m.lengths[0] == m.radii[i] + m.radii[j]
        for _ in range(40):
            m2 = me.conformal_change(m, rng.uniform(-0.3, 0.3, size=m.triangulation.vertex_count))
            assert m2.lengths[0] == m2.radii[i] + m2.radii[j], m.background


_scale_factor = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([800.0, -800.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(_perturbed_metrics(), st.data())
def test_conformal_change_ends_in_a_metric_or_a_ddce_error(m, data):
    n = m.triangulation.vertex_count
    u = np.array(data.draw(st.lists(_scale_factor, min_size=n, max_size=n)))
    try:
        out = me.conformal_change(m, u)
    except DDCEError:
        return
    assert me.validate(out) == []
    if np.all(np.abs(u) <= 1.0):
        assert np.max(np.abs(me.scale_factors(m, out) - u)) <= 1e-10


def test_dce_invariance_all_backgrounds(rng):
    octa = octahedron()
    for bg in ALL_BACKGROUNDS:
        for _ in range(5):
            m = random_metric(octa, bg, rng)
            u = rng.uniform(-0.15, 0.15, size=octa.vertex_count)
            try:
                m2 = me.conformal_change(m, u)
            except ResultInvalid:
                continue
            lam1 = me.lambda_lengths(m).lam
            lam2 = me.lambda_lengths(m2).lam
            assert np.max(np.abs(lam1 - lam2)) < 1e-10
            for e in range(octa.edge_count):
                i, j = octa.edge_endpoints(e)
                inv = trig.inversive_distance(bg, m2.lengths[e], m2.radii[i], m2.radii[j])
                assert math.cosh(lam2[e]) == pytest.approx(inv, abs=1e-10)


def test_dce_invariance_with_ideal_vertices_gauge(rng):
    # canonical-gauge lambdas shift by u at ideal endpoints; the gauged
    # table is invariant once those shifts are transported
    octa = octahedron()
    for _ in range(5):
        m = random_metric(octa, Background.HYPERBOLIC, rng, ideal_fraction=0.4)
        eps = m.eps
        if eps.min() == 1:
            continue
        u = rng.uniform(-0.1, 0.1, size=octa.vertex_count)
        try:
            m2 = me.conformal_change(m, u)
        except ResultInvalid:
            continue
        lam1 = me.lambda_lengths(m).lam
        lam2 = me.lambda_lengths(m2).lam
        for e in range(octa.edge_count):
            i, j = octa.edge_endpoints(e)
            shift = (0 if eps[i] else u[i]) + (0 if eps[j] else u[j])
            assert lam2[e] - lam1[e] == pytest.approx(shift, abs=1e-10)


# -- lambda lengths ----------------------------------------------------------------


def test_lambda_examples(double_triangle):
    # tangency: lambda = 0
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.ones(3), np.full(3, 0.5))
    lam = me.lambda_lengths(m).lam
    assert np.allclose(lam, 0.0, atol=1e-7)  # acosh near 1 loses half precision
    m2 = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.full(3, 2.0), np.full(3, 0.5))
    assert np.allclose(me.lambda_lengths(m2).lam, HYP_LAMBDA_R05_L2, atol=1e-13)
    m3 = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.full(3, 3.0), np.ones(3))
    assert np.allclose(me.lambda_lengths(m3).lam, math.acosh(3.5), atol=1e-14)


@pytest.mark.parametrize(
    "background, radius",
    [(Background.EUCLIDEAN, 0.3 * 2.0**-1000), (Background.HYPERBOLIC, 1e-300)],
)
def test_lambda_rejects_a_denominator_that_underflows(background, radius):
    # a valid metric whose radius product underflows to 0: the Euclidean
    # inversive distance once became inf and lambda 0, the hyperbolic
    # one raised ZeroDivisionError
    tri = Triangulation.genus_two_octagon()
    m = DecoratedMetric(tri, background, np.full(9, 2.5), np.array([radius]))
    assert me.validate(m) == []
    with pytest.raises(ResultInvalid, match="inversive distance inf is not finite"):
        me.lambda_lengths(m)


def test_lambda_heights_route_cross_check(rng):
    # for hyperideal metrics the inversive-distance route and the heights
    # route must agree
    octa = octahedron()
    for bg in ALL_BACKGROUNDS:
        m = random_metric(octa, bg, rng)
        lam_direct = me.lambda_lengths(m).lam
        h = me.heights_from_decoration(m)
        eps = m.eps
        lam_heights = np.zeros(octa.edge_count)
        for e in range(octa.edge_count):
            i, j = octa.edge_endpoints(e)
            l = m.lengths[e]
            if bg is Background.SPHERICAL:
                t = me.tau(-1, h.h[i]) * me.tau(-1, h.h[j]) - math.cos(l) * me.tau(
                    1, h.h[i]
                ) * me.tau(1, h.h[j])
            elif bg is Background.HYPERBOLIC:
                t = math.cosh(l) * me.tau(-1, h.h[i]) * me.tau(-1, h.h[j]) - me.tau(
                    1, h.h[i]
                ) * me.tau(1, h.h[j])
            else:
                t = (l * l - m.radii[i] ** 2 - m.radii[j] ** 2) / (
                    2.0 * m.radii[i] * m.radii[j]
                )
            lam_heights[e] = me.stable_acosh(max(1.0, t))
        assert np.max(np.abs(lam_direct - lam_heights)) < 1e-10


# -- heights ------------------------------------------------------------------------


def test_heights_examples(double_triangle):
    r_fix = math.asinh(1.0)
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.full(3, 2.5), np.full(3, r_fix))
    h = me.heights_from_decoration(m)
    assert np.allclose(h.h, r_fix, atol=1e-14)  # fixed point sinh r sinh h = 1
    m_sph = DecoratedMetric(
        double_triangle, Background.SPHERICAL, np.full(3, 2.0), np.full(3, math.pi / 4)
    )
    h_sph = me.heights_from_decoration(m_sph)
    assert np.allclose(h_sph.h, math.asinh(1.0), atol=1e-14)
    m_euc = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.full(3, 3.0), np.ones(3))
    assert np.allclose(me.heights_from_decoration(m_euc).h, 0.0, atol=1e-15)


def test_decoration_heights_round_trip(rng):
    for bg in ALL_BACKGROUNDS:
        tri = octahedron()
        for k in range(4):
            m = random_metric(tri, bg, rng, ideal_fraction=0.3 if k % 2 else 0.0)
            inv = me.lambda_lengths(m)
            h = me.heights_from_decoration(m)
            m2 = me.decoration_from_heights(tri, inv, h)
            assert np.max(np.abs(m2.lengths - m.lengths)) < 1e-10
            assert np.max(np.abs(m2.radii - m.radii)) < 1e-10
            inv2 = me.lambda_lengths(m2)
            assert np.max(np.abs(inv2.lam - inv.lam)) < 1e-10
            h2 = me.heights_from_decoration(m2)
            assert np.max(np.abs(h2.h - h.h)) < 1e-10


def test_decoration_from_heights_keeps_its_fresh_arrays(rng, monkeypatch):
    # the lengths and radii it builds are new arrays: it marks them
    # read-only, and the metric keeps them without a copy
    assert trig.each(math.exp, np.ones(3)).flags.owndata
    assert trig.each(math.exp, np.ones((2, 3))).shape == (2, 3)
    real = me.DecoratedMetric
    passed = []
    monkeypatch.setattr(
        me, "DecoratedMetric", lambda *args: passed.append(args[2:]) or real(*args)
    )
    for bg in ALL_BACKGROUNDS:
        m = random_metric(octahedron(), bg, rng, ideal_fraction=0.3)
        inv, heights = me.lambda_lengths(m), me.heights_from_decoration(m)
        passed.clear()
        got = me.decoration_from_heights(m.triangulation, inv, heights)
        assert len(passed) == 1
        assert got.lengths is passed[0][0] and got.radii is passed[0][1], bg


def test_heights_hold_read_only_arrays_and_leave_the_callers_alone():
    bg = Background.HYPERBOLIC
    h, eps = np.array([1.0, 0.2, 1.3]), np.array([1, 0, 1])
    hts = me.Heights(h, bg, me.default_reference_radius(bg), eps)
    for held in (hts.h, hts.eps):
        with pytest.raises(ValueError):
            held[0] = 0
    # the caller's arrays are copied and stay writable, so writing to
    # them leaves the heights and their weights as they were
    weights = hts.weights
    h[0], eps[1] = 5.0, 1
    assert h.flags.writeable and eps.flags.writeable
    assert hts.h.tolist() == [1.0, 0.2, 1.3] and hts.eps.tolist() == [1, 0, 1]
    assert hts.weights is weights and not weights.flags.writeable
    assert weights.tolist() == me.omega_map(hts).tolist()
    # held arrays are kept as they are; a view that borrows them is copied
    again = me.Heights(hts.h, bg, hts.reference_radius, hts.eps)
    assert again.h is hts.h and again.eps is hts.eps
    assert me.Heights(hts.h[1:], bg, 0.0, hts.eps[1:]).h.flags.owndata


def test_a_metrics_charts_share_its_read_only_flags(rng):
    for bg in ALL_BACKGROUNDS:
        m = random_metric(octahedron(), bg, rng, ideal_fraction=0.3)
        inv, hts = me.lambda_lengths(m), me.heights_from_decoration(m)
        assert inv.eps is m.eps and hts.eps is m.eps
        with pytest.raises(ValueError):
            inv.eps[0] = 1
        chart = me.Heights(hts.h + 0.1, bg, hts.reference_radius, inv.eps)
        assert chart.eps is inv.eps  # decoration_from_heights compares them by identity first


def test_spherical_tangency_formula(double_triangle):
    # lambda = 0 at every edge, h = 1 everywhere, all hyperideal
    eps = np.ones(3, dtype=int)
    inv = me.Invariant(double_triangle, np.zeros(3), eps)
    hts = me.Heights(
        np.ones(3), Background.SPHERICAL, me.default_reference_radius(Background.SPHERICAL), eps
    )
    m = me.decoration_from_heights(double_triangle, inv, hts)
    assert np.allclose(np.cos(m.lengths), SPH_TANGENCY_COS, atol=1e-14)
    assert np.max(np.abs(me.lambda_lengths(m).lam)) < 1e-7


def test_hyperbolic_one_ideal_endpoint_oracle(double_triangle):
    # e^lambda = cosh(l) sinh(h_j) - cosh(h_j) with the ideal gauge h_i = 0
    eps = np.array([0, 1, 1])
    lam = np.array([0.4, 0.7, 0.5])
    h = np.array([0.1, 1.1, 1.2])
    inv = me.Invariant(double_triangle, lam, eps)
    hts = me.Heights(h, Background.HYPERBOLIC, me.default_reference_radius(Background.HYPERBOLIC), eps)
    m = me.decoration_from_heights(double_triangle, inv, hts)
    for e in range(3):
        i, j = double_triangle.edge_endpoints(e)
        ee = eps[i] * eps[j]
        ti = me.tau(eps[i], h[i]) if eps[i] else me.tau(0, h[i])
        # verify the defining relation directly
        lhs = me.tau(ee, lam[e])
        rhs = math.cosh(m.lengths[e]) * me.tau(-eps[i], h[i]) * me.tau(-eps[j], h[j]) - me.tau(
            eps[i], h[i]
        ) * me.tau(eps[j], h[j])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_heights_out_of_domain_errors(double_triangle):
    eps = np.ones(3, dtype=int)
    inv = me.Invariant(double_triangle, np.full(3, 0.5), eps)
    R = me.default_reference_radius(Background.HYPERBOLIC)
    with pytest.raises(HeightsOutOfDomain, match="height"):
        me.decoration_from_heights(
            double_triangle, inv, me.Heights(np.array([-0.2, 1.0, 1.0]), Background.HYPERBOLIC, R, eps)
        )
    # lambda = 3 >= h_i + h_j = 2 on every edge: NaN lengths, all named
    Rs = me.default_reference_radius(Background.SPHERICAL)
    with pytest.raises(HeightsOutOfDomain) as raised:
        me.decoration_from_heights(
            double_triangle,
            me.Invariant(double_triangle, np.full(3, 3.0), eps),
            me.Heights(np.full(3, 1.0), Background.SPHERICAL, Rs, eps),
        )
    assert gate_names(str(raised.value)) == [
        f"edge {double_triangle.edge_label(e)}" for e in range(3)
    ]
    # lambda = h_i + h_j exactly between two ideal vertices, where the
    # cosine rounds to -0.9999999999999997: out of the domain all the same
    ideal = np.zeros(3, dtype=int)
    h = np.array([0.32688578098399296, 0.13362505573991862, 0.2])
    i, j = double_triangle.edge_endpoints(0)
    lam = np.full(3, 0.1)
    lam[0] = h[i] + h[j]
    args = (double_triangle, me.Invariant(double_triangle, lam, ideal),
            me.Heights(h, Background.SPHERICAL, Rs, ideal))
    assert oracle_failure(check_against_per_edge_oracle(*args)) == "lambda"
    with pytest.raises(HeightsOutOfDomain) as raised:
        me.decoration_from_heights(*args)
    assert gate_names(str(raised.value)) == [f"edge {double_triangle.edge_label(0)}"]
    # resulting lengths violate the triangle inequality: one huge lambda
    with pytest.raises(HeightsOutOfDomain, match="invalid"):
        me.decoration_from_heights(
            double_triangle,
            me.Invariant(double_triangle, np.array([3.5, 0.1, 0.1]), eps),
            me.Heights(np.full(3, 2.0), Background.HYPERBOLIC, R, eps),
        )


def reference_decoration_from_heights(tri, invariant, heights):
    """Edge-by-edge inversion of the heights/lambda relation, evaluating
    tau afresh for every edge: the exact oracle.  Tangent vertex circles
    (two hyperideal ends, lambda exactly 0) get length r_i + r_j.  It
    stops at the first failure, in the order: hyperideal heights, edges,
    radii, validate, and raises HeightsOutOfDomain saying where: an edge
    out of the domain or whose denominator underflows to 0, or an edge
    or vertex whose scalar call overflows (with that OverflowError's
    message)."""
    bg, eps, h = heights.background, invariant.eps.tolist(), heights.h.tolist()
    tau = me.tau

    def radius(v):
        if bg is Background.SPHERICAL:
            return math.asin(1.0 / math.cosh(h[v]))
        if bg is Background.HYPERBOLIC:
            return math.asinh(1.0 / math.sinh(h[v]))
        return math.exp(-h[v])

    def length(e):
        i, j = _endpoints(tri, e)
        lam = float(invariant.lam[e])
        ee = eps[i] * eps[j]
        if bg is Background.SPHERICAL:
            if lam >= h[i] + h[j]:
                raise HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: lambda = {lam} >= h_i + h_j = {h[i] + h[j]}"
                )
        if ee == 1 and lam == 0.0:
            return radius(i) + radius(j)
        if bg is Background.SPHERICAL:
            num = tau(-eps[i], h[i]) * tau(-eps[j], h[j]) - tau(ee, lam)
            den = tau(eps[i], h[i]) * tau(eps[j], h[j])
            if den == 0.0:
                raise HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: cosine of induced length has a denominator "
                    "that underflows to 0"
                )
            c = num / den
            if not (-1.0 < c < 1.0):
                raise HeightsOutOfDomain(f"edge {tri.edge_label(e)}: cosine of induced length is {c}")
            return math.acos(c)
        if bg is Background.HYPERBOLIC:
            num = tau(ee, lam) + tau(eps[i], h[i]) * tau(eps[j], h[j])
            den = tau(-eps[i], h[i]) * tau(-eps[j], h[j])
            if den == 0.0:
                raise HeightsOutOfDomain(
                    f"edge {tri.edge_label(e)}: cosh of induced length has a denominator "
                    "that underflows to 0"
                )
            ch = num / den
            if ch <= 1.0:
                raise HeightsOutOfDomain(f"edge {tri.edge_label(e)}: cosh of induced length is {ch}")
            return me.stable_acosh(ch)
        rho_i, rho_j = math.exp(-h[i]), math.exp(-h[j])
        sq = eps[i] * rho_i**2 + eps[j] * rho_j**2 + 2.0 * rho_i * rho_j * tau(ee, lam)
        if sq <= 0.0:
            raise HeightsOutOfDomain(f"edge {tri.edge_label(e)}: squared induced length is {sq}")
        return math.sqrt(sq)

    if bg is not Background.EUCLIDEAN:
        for v in range(tri.vertex_count):
            if eps[v] == 1 and h[v] <= 0:
                raise HeightsOutOfDomain(f"vertex {tri.vertex_label(v)}: hyperideal height {h[v]} <= 0")
    lengths, radii = [], []
    for e in range(tri.edge_count):
        try:
            lengths.append(length(e))
        except OverflowError as ex:
            raise HeightsOutOfDomain(f"edge {tri.edge_label(e)}: {ex}") from None
    for v in range(tri.vertex_count):
        try:
            radii.append(radius(v) if eps[v] else 0.0)
        except OverflowError as ex:
            raise HeightsOutOfDomain(f"vertex {tri.vertex_label(v)}: {ex}") from None
    result = DecoratedMetric(tri, bg, lengths, radii)
    bad = reference_validate(result)
    if bad:
        raise HeightsOutOfDomain("resulting lengths invalid: " + "; ".join(bad))
    return result


_GATE = "resulting lengths invalid: "


def gate_names(message):
    """The vertices, edges and faces that the closing validate of
    decoration_from_heights names in its message, as 'edge 0:1' etc."""
    assert message.startswith(_GATE), message
    return [diagnostic.split(": ")[0] for diagnostic in message[len(_GATE):].split("; ")]


def check_against_per_edge_oracle(tri, inv, heights):
    """The oracle's outcome, once decoration_from_heights has been checked
    against it: the same lengths and radii bit for bit; or, wherever the
    oracle raises, HeightsOutOfDomain with the oracle's message when it
    failed a hyperideal height or validate, and otherwise a message from
    the closing validate that names the edge or vertex where the oracle
    stopped."""
    want = outcome(reference_decoration_from_heights, tri, inv, heights)
    got = outcome(me.decoration_from_heights, tri, inv, heights)
    if not isinstance(want, tuple):
        assert np.array_equal(got.lengths, want.lengths)
        assert np.array_equal(got.radii, want.radii)
        return want
    assert want[0] is HeightsOutOfDomain and got[0] is HeightsOutOfDomain, (want, got)
    where, reason = want[1].split(": ", 1)
    if want[1].startswith(_GATE) or reason.startswith("hyperideal height"):
        assert got == want
    else:
        assert where in gate_names(got[1]), (want, got)
    return want


def oracle_failure(want):
    """What the oracle's outcome says went wrong, without where."""
    if not isinstance(want, tuple):
        return DecoratedMetric
    if want[1].startswith(_GATE):
        return "validate"
    reason = want[1].split(": ")[-1]
    return "denominator" if reason.endswith("underflows to 0") else reason.split(" ")[0]


def test_decoration_from_heights_matches_per_edge_oracle(rng):
    failures = set()
    tangent_kept = 0
    for bg in ALL_BACKGROUNDS:
        ref = me.default_reference_radius(bg) if bg is not Background.EUCLIDEAN else 0.0
        for tri in (octahedron(), grid_torus(3), Triangulation.genus_two_octagon()):
            n_v, n_e = tri.vertex_count, tri.edge_count
            for k in range(40):
                eps = np.ones(n_v, dtype=int)
                if bg is not Background.EUCLIDEAN and k % 2:
                    eps = (rng.random(n_v) >= 0.4).astype(int)  # ideal vertices
                lam = rng.uniform(0.1, 1.0 if k % 3 else 2.5, size=n_e)
                if k % 4 == 0:
                    lam[rng.integers(n_e)] = 0.0  # tangent vertex circles
                if bg is Background.SPHERICAL:
                    h = rng.uniform(0.9, 1.6, size=n_v)
                elif bg is Background.HYPERBOLIC:
                    h = np.where(eps == 1, rng.uniform(0.6, 1.5, n_v), rng.uniform(-0.3, 0.4, n_v))
                    if k % 10 == 3:
                        h[rng.integers(n_v)] = -0.1  # hyperideal height <= 0
                else:
                    h = rng.uniform(-0.4, 0.4, size=n_v)
                if k % 10 == 7:
                    h[-1] = 800.0 if bg is not Background.EUCLIDEAN else -800.0  # exp overflows
                inv = me.Invariant(tri, lam, eps)
                want = check_against_per_edge_oracle(tri, inv, me.Heights(h, bg, ref, eps))
                failures.add(oracle_failure(want))
                if isinstance(want, tuple):
                    continue
                for e in np.flatnonzero(lam == 0.0):
                    i, j = _endpoints(tri, e)
                    if eps[i] and eps[j]:  # tangency survives exactly
                        assert want.lengths[e] == want.radii[i] + want.radii[j], (bg, k)
                        tangent_kept += 1
    assert {DecoratedMetric, "hyperideal", "math", "validate"} <= failures, failures
    assert tangent_kept > 0
    # edge 0 is out of domain, and so is every edge at the vertex whose
    # exponentials overflow: the gate names them all
    tri = octahedron()
    v = next(v for v in range(tri.vertex_count) if v not in tri.edge_endpoints(0))
    eps = np.ones(tri.vertex_count, dtype=int)
    lam = np.full(tri.edge_count, 0.5)
    lam[0] = 100.0
    h = np.full(tri.vertex_count, 1.2)
    h[v] = 800.0
    ref = me.default_reference_radius(Background.SPHERICAL)
    args = (tri, me.Invariant(tri, lam, eps), me.Heights(h, Background.SPHERICAL, ref, eps))
    assert oracle_failure(check_against_per_edge_oracle(*args)) == "lambda"
    with pytest.raises(HeightsOutOfDomain) as raised:
        me.decoration_from_heights(*args)
    at_v = [e for e in range(tri.edge_count) if v in tri.edge_endpoints(e)]
    assert gate_names(str(raised.value)) == [
        f"edge {tri.edge_label(e)}" for e in [0] + at_v
    ] + [f"vertex {tri.vertex_label(v)}"]


def test_decoration_from_heights_matches_per_edge_oracle_at_extreme_heights(rng):
    """Ideal heights of +-800, lambdas of +-800 and tangent edges at
    heights whose exponential or radius overflows, mixed into otherwise
    valid inputs: values equal the edge-by-edge oracle's, and where the
    oracle fails, the error names the edge or vertex where it stopped."""
    failures = set()
    tri = grid_torus(3)
    n_v, n_e = tri.vertex_count, tri.edge_count
    for bg in ALL_BACKGROUNDS:
        ref = me.default_reference_radius(bg) if bg is not Background.EUCLIDEAN else 0.0
        for k in range(120):
            eps = (rng.random(n_v) >= 0.3).astype(int)
            if bg is Background.EUCLIDEAN:
                h = rng.uniform(-0.4, 0.4, size=n_v)
            elif bg is Background.SPHERICAL:
                h = rng.uniform(0.9, 1.6, size=n_v)
            else:
                h = rng.uniform(0.6, 1.5, size=n_v)
            lam = rng.uniform(0.1, 1.0, size=n_e)
            kind = k % 4
            if kind == 0:  # ideal heights of +-800; at -400 a Euclidean rho ** 2 overflows
                v = int(rng.integers(n_v))
                eps[v] = 0
                h[v] = (800.0, -800.0, -400.0)[k // 4 % 3]
            elif kind == 1:  # lambdas of +-800
                lam[rng.integers(n_e, size=2)] = rng.choice([800.0, -800.0], size=2)
            else:  # tangent edges whose ends' heights overflow
                e = int(rng.integers(n_e))
                i, j = _endpoints(tri, e)
                eps[[i, j]] = 1
                lam[e] = 0.0
                big = (709.9, 710.2, 800.0)[k % 3]  # e^h overflows; cosh h too from 710.48
                h[i] = -big if bg is Background.EUCLIDEAN else big
                if kind == 3:  # every edge at vertex i tangent
                    at_i = [f for f in range(n_e) if i in _endpoints(tri, f)]
                    lam[at_i] = 0.0
                    eps[[v for f in at_i for v in _endpoints(tri, f)]] = 1
                    if bg is Background.SPHERICAL:  # a later edge fails lambda < h_i + h_j
                        lam[max(f for f in range(n_e) if f not in at_i)] = 50.0
            inv = me.Invariant(tri, lam, eps)
            want = check_against_per_edge_oracle(tri, inv, me.Heights(h, bg, ref, eps))
            failures.add(oracle_failure(want))
    assert "math" in failures  # math range error: an exponential, cosh or sinh overflows
    assert "(34," in failures  # a Euclidean rho ** 2 overflows
    assert "denominator" in failures


@pytest.mark.parametrize("background", [Background.HYPERBOLIC, Background.SPHERICAL])
def test_underflowing_ideal_height_names_the_edge(double_triangle, background):
    # e^h / 2 of an ideal vertex at height -800 is 0: the edges at it
    # have a zero denominator, which raised a bare ZeroDivisionError;
    # their lengths are now infinite (cosh) or NaN (cosine), and the gate
    # names just those edges (spherical edges at it need lambda < h_i +
    # h_j to get that far)
    eps = np.array([0, 1, 1])
    h = np.array([-800.0, 1.2, 1.2])
    at_0 = [0 in double_triangle.edge_endpoints(e) for e in range(3)]
    lam = np.where(at_0, -900.0 if background is Background.SPHERICAL else 0.5, 0.5)
    inv = me.Invariant(double_triangle, lam, eps)
    heights = me.Heights(h, background, me.default_reference_radius(background), eps)
    want = check_against_per_edge_oracle(double_triangle, inv, heights)
    assert oracle_failure(want) == "denominator"
    length = "inf" if background is Background.HYPERBOLIC else "nan"
    with pytest.raises(HeightsOutOfDomain) as raised:
        me.decoration_from_heights(double_triangle, inv, heights)
    assert str(raised.value) == _GATE + "; ".join(
        f"edge {double_triangle.edge_label(e)}: length {length} not finite"
        for e in range(3) if at_0[e]
    )


@pytest.mark.parametrize(
    "fn, limit",
    [
        (math.exp, math.log(sys.float_info.max)),
        (math.cosh, math.acosh(sys.float_info.max)),
        (math.sinh, math.acosh(sys.float_info.max)),
        (lambda x: x ** 2, math.sqrt(sys.float_info.max)),
    ],
)
def test_overflow_limits_are_the_last_finite_arguments(fn, limit):
    # decoration_from_heights maps these calls with _each_or_nan: the
    # scalar value up to the last finite argument, NaN past it
    past = math.nextafter(limit, math.inf)
    with pytest.raises(OverflowError):
        fn(past)
    got = me._each_or_nan(fn, np.array([limit, past, -1.0, math.inf]))
    assert math.isfinite(got[0]) and got[0] == fn(limit)
    assert math.isnan(got[1])
    assert got[2] == fn(-1.0) and got[3] == math.inf


# -- omega maps -----------------------------------------------------------------------


def reference_omega_map(heights):
    """The per-vertex loop over numpy scalars that ``omega_map``
    replaced: the bit-for-bit reference."""
    background, reference_radius = heights.background, heights.reference_radius
    if background is Background.EUCLIDEAN:
        raise BadParameters("omega maps are defined for curved backgrounds only")
    norm = (
        math.sinh(reference_radius)
        if background is Background.HYPERBOLIC
        else math.cosh(reference_radius)
    )
    omega = np.zeros_like(heights.h)
    for v, hv in enumerate(heights.h):
        eps_v = heights.eps[v]
        sign = eps_v if background is Background.HYPERBOLIC else -eps_v
        omega[v] = me.tau(sign, hv) / norm
    return omega


def reference_omega_inverse(background, reference_radius, omega, eps):
    """The per-vertex loop over numpy scalars that ``omega_inverse``
    replaced: the bit-for-bit reference."""
    omega = np.asarray(omega, dtype=float)
    eps = np.asarray(eps, dtype=int)
    h = np.zeros_like(omega)

    def check_squared(v, t):
        if not math.isfinite(t * t):
            raise WeightOutOfRange(
                f"vertex {v}: weight {omega[v]} outside the image of the height map "
                "(squared weight not finite)"
            )

    if background is Background.HYPERBOLIC:
        s = math.sinh(reference_radius)
        for v in range(omega.size):
            t = float(omega[v]) * s
            if omega[v] <= 0 or (eps[v] == 1 and t <= 1.0):
                raise WeightOutOfRange(
                    f"vertex {v}: weight {omega[v]} outside the image of the height map"
                )
            check_squared(v, t)
            h[v] = math.log(t + math.sqrt(t * t - eps[v]))
    elif background is Background.SPHERICAL:
        c = math.cosh(reference_radius)
        for v in range(omega.size):
            if omega[v] <= 0:
                raise WeightOutOfRange(f"vertex {v}: weight {omega[v]} not positive")
            t = float(omega[v]) * c
            check_squared(v, t)
            h[v] = math.log(t + math.sqrt(t * t + eps[v]))
    else:
        raise BadParameters("omega maps are defined for curved backgrounds only")
    return me.Heights(h, background, reference_radius, eps)


def test_omega_maps_match_the_per_vertex_reference(rng):
    """Random mixes of ideal and hyperideal vertices, heights of up to
    +-800, and weights that are scaled, non-positive or 1e300: the same
    floats, or the same error type and message, which names the first
    failing vertex."""
    failures = set()
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL, Background.EUCLIDEAN):
        R = me.default_reference_radius(bg if bg is not Background.EUCLIDEAN else Background.SPHERICAL)
        for k in range(150):
            n = int(rng.integers(1, 9))
            eps = (rng.random(n) < 0.6).astype(int)
            h = np.where(eps == 1, rng.uniform(0.05, 4.0, n), rng.uniform(-3.0, 3.0, n))
            if k % 7 == 0:
                h[rng.integers(n)] = rng.choice([800.0, -800.0])
            hts = me.Heights(h, bg, R, eps)
            want = outcome(reference_omega_map, hts)
            got = outcome(me.omega_map, hts)
            if isinstance(want, tuple):
                assert got == want, (bg, k)
                failures.add(want[0])
                omega = rng.uniform(0.1, 3.0, n)
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want), (bg, k)
                omega = want * rng.uniform(1.0, 50.0)
            for v in rng.integers(n, size=int(rng.integers(0, 3))):
                omega[v] = rng.choice([0.0, -0.5, 0.3, 1e300, -1e300])
            want = outcome(reference_omega_inverse, bg, R, omega, eps)
            got = outcome(me.omega_inverse, bg, R, omega, eps)
            if isinstance(want, tuple):
                assert got == want, (bg, k)
                failures.add(want[0])
            else:
                assert np.array_equal(got.h, want.h) and np.array_equal(got.eps, want.eps), (bg, k)
                assert (got.background, got.reference_radius) == (want.background, want.reference_radius)
    assert failures == {OverflowError, WeightOutOfRange, BadParameters}



def test_omega_examples():
    R = me.default_reference_radius(Background.HYPERBOLIC)  # sinh R = 1
    eps = np.array([1])
    h = me.Heights(np.array([math.asinh(1.0)]), Background.HYPERBOLIC, R, eps)
    omega = me.omega_map(h)
    assert omega[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # ideal case, spherical, cosh R = 2: e^h - 0 = 2 e^rho, h = 0 -> omega = 1/4
    h0 = me.Heights(np.array([0.0]), Background.SPHERICAL, math.acosh(2.0), np.array([0]))
    omega0 = me.omega_map(h0)
    assert omega0[0] == pytest.approx(0.25, abs=1e-15)


def test_omega_round_trip(rng):
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL):
        R = me.default_reference_radius(bg)
        for _ in range(20):
            eps = (rng.random(5) > 0.3).astype(int)
            h = rng.uniform(0.5, 2.0, size=5)
            if bg is Background.HYPERBOLIC:
                h = np.where(eps == 1, h, rng.uniform(-1.0, 1.0, size=5))
            hts = me.Heights(h, bg, R, eps)
            omega = me.omega_map(hts)
            back = me.omega_inverse(bg, R, omega, eps)
            assert np.max(np.abs(back.h - h)) < 1e-12


def test_omega_monotone(rng):
    for bg in (Background.HYPERBOLIC, Background.SPHERICAL):
        R = me.default_reference_radius(bg)
        for eps_v in (0, 1):
            hs = np.linspace(0.2, 2.5, 40)
            omegas = [
                me.omega_map(me.Heights(np.array([hv]), bg, R, np.array([eps_v])))[0]
                for hv in hs
            ]
            assert all(b > a for a, b in zip(omegas, omegas[1:]))


def test_omega_out_of_range():
    R = me.default_reference_radius(Background.HYPERBOLIC)  # sinh R = 1
    with pytest.raises(WeightOutOfRange):
        me.omega_inverse(Background.HYPERBOLIC, R, np.array([0.9]), np.array([1]))
    with pytest.raises(WeightOutOfRange):
        me.omega_inverse(Background.SPHERICAL, me.default_reference_radius(Background.SPHERICAL),
                         np.array([-0.1]), np.array([0]))


# -- scale factors ----------------------------------------------------------------------


def test_scale_factors_identity_and_round_trip(rng):
    octa = octahedron()
    for bg in ALL_BACKGROUNDS:
        m = random_metric(octa, bg, rng)
        assert np.allclose(me.scale_factors(m, m), 0.0, atol=1e-14)
        u = rng.uniform(-0.12, 0.12, size=octa.vertex_count)
        try:
            m2 = me.conformal_change(m, u)
        except ResultInvalid:
            continue
        assert np.max(np.abs(me.scale_factors(m, m2) - u)) < 1e-10


def test_scale_factors_with_ideal_vertices(rng):
    octa = octahedron()
    found = 0
    for _ in range(10):
        m = random_metric(octa, Background.HYPERBOLIC, rng, ideal_fraction=0.4)
        if m.eps.min() == 1:
            continue
        u = rng.uniform(-0.1, 0.1, size=octa.vertex_count)
        try:
            m2 = me.conformal_change(m, u)
        except ResultInvalid:
            continue
        assert np.max(np.abs(me.scale_factors(m, m2) - u)) < 1e-10
        found += 1
    assert found >= 2


def test_scale_factors_non_dce_pair(rng):
    octa = octahedron()
    m = random_metric(octa, Background.HYPERBOLIC, rng)
    lengths = m.lengths.copy()
    lengths[0] *= 1.02
    m_perturbed = DecoratedMetric(octa, Background.HYPERBOLIC, lengths, m.radii)
    assert not me.validate(m_perturbed)
    u = me.scale_factors(m, m_perturbed)
    reproduced = me.conformal_change(m, u)
    assert np.max(np.abs(reproduced.lengths - m_perturbed.lengths)) > 1e-6  # not DCE


def test_scale_factors_not_comparable(rng):
    octa = octahedron()
    m = random_metric(octa, Background.HYPERBOLIC, rng)
    m_sph = random_metric(octa, Background.SPHERICAL, rng)
    with pytest.raises(NotComparable):
        me.scale_factors(m, m_sph)


def test_scale_factors_refuse_metrics_with_other_ids():
    # a flip keeps every id, so a flipped metric and the same metric on
    # canonical labels share the gluing but not the vertex ids; factors
    # read off both would pair different vertices
    m = cli.load_surface_file(str(FIXTURES / "octahedron_spherical.json"))[0]
    flipped = delaunay.flip_edge(m, 0)[0]
    canon, edge_map, vertex_map = flipped.triangulation.canonical()
    lengths, radii = np.empty(canon.edge_count), np.empty(canon.vertex_count)
    lengths[edge_map], radii[vertex_map] = flipped.lengths, flipped.radii
    relabeled = DecoratedMetric(canon, m.background, lengths, radii)
    assert canon.gluing == flipped.triangulation.gluing and vertex_map != sorted(vertex_map)
    for a, b in ((flipped, relabeled), (relabeled, flipped)):
        with pytest.raises(NotComparable) as raised:
            me.scale_factors(a, b)
        assert str(raised.value) == "metrics live on different triangulations"
    # a surface built again from the same gluing has the same ids
    rebuilt = Triangulation.build_from_gluing(canon.face_count, canon.edges)
    again = DecoratedMetric(rebuilt, m.background, lengths, radii)
    assert me.scale_factors(relabeled, again).tolist() == [0.0] * canon.vertex_count


def test_metric_invariant_and_heights_compare_by_identity():
    m = cli.load_surface_file(str(FIXTURES / "genus2_hyperbolic.json"))[0]
    copy = DecoratedMetric(m.triangulation, m.background, m.lengths.copy(), m.radii.copy())
    for a, b in (
        (m, copy),
        (me.lambda_lengths(m), me.lambda_lengths(m)),
        (me.heights_from_decoration(m), me.heights_from_decoration(m)),
    ):
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and isinstance(hash(b), int)
        assert a in {a} and b not in {a} and len({a, b}) == 2


def test_scale_factors_whose_radius_quotient_leaves_the_floats():
    # sfac(new) / sfac(old) underflows to 0 one way and overflows to inf
    # the other; the factor is then the difference of the two logs
    tri = Triangulation.genus_two_octagon()
    big, tiny = (DecoratedMetric(tri, Background.EUCLIDEAN, np.full(9, 1e11), np.array([r]))
                 for r in (1e10, 1e-320))
    want = float(mpmath.log(mpmath.mpf(1e10)) - mpmath.log(mpmath.mpf(1e-320)))
    assert abs(want - 759.8530918209144) <= 1e-12 * want
    for old, new, sign in ((big, tiny, -1.0), (tiny, big, 1.0)):
        (u,) = me.scale_factors(old, new).tolist()
        assert abs(u - sign * want) <= 1e-12 * want
    # inside the normal floats the quotient's log keeps its bits
    assert me.radius_scale_factor(Background.HYPERBOLIC, 0.25, 0.5) == math.log(
        math.sinh(0.5) / math.sinh(0.25)
    )
