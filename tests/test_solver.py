"""Cone-angle solver tests: gradients, Hessians, the functional, Newton."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, Triangulation, cli
from ddce import delaunay as dl
from ddce import metric as me
from ddce import solver as so
from ddce import trig
from ddce.errors import Infeasible, LineSearchStalled, MaxIterations, PathLeavesDomain

from conftest import (
    ALL_BACKGROUNDS,
    cfac,
    grid_torus,
    isosceles_sphere,
    octahedron,
    oracle_corpus,
    outcome,
    random_metric,
    scrambled_metric,
    with_stacked_faces,
)

# frozen oracle value: acosh of the root of cos(pi/9) = (x^2 - x)/(x^2 - 1)
UNIFORMIZATION_LENGTH = 3.4382142412301030919
HYP_EQUILATERAL_ANGLE = 0.91879787217802736904


# -- cone angles -------------------------------------------------------------------


def test_cone_angle_examples(double_triangle, genus2):
    m = DecoratedMetric(double_triangle, Background.EUCLIDEAN, np.ones(3), np.zeros(3))
    assert np.allclose(so.cone_angles(m), 2.0 * math.pi / 3.0, atol=1e-14)
    m_oct = DecoratedMetric(
        double_triangle, Background.SPHERICAL, np.full(3, math.pi / 2), np.zeros(3)
    )
    assert np.allclose(so.cone_angles(m_oct), math.pi, atol=1e-14)
    m_g2 = DecoratedMetric(genus2, Background.HYPERBOLIC, np.ones(9), np.zeros(1))
    assert so.cone_angles(m_g2)[0] == pytest.approx(18.0 * HYP_EQUILATERAL_ANGLE, abs=1e-12)


def reference_cone_angles(m):
    """Corner angles accumulated face by face, slot by slot."""
    tri = m.triangulation
    theta = np.zeros(tri.vertex_count)
    for f in range(tri.face_count):
        angles = trig.interior_angles(m.background, [m.lengths[e] for e in tri.face_edge_ids[f]])
        for s, v in enumerate(tri.face_vertex_ids[f]):
            theta[v] += angles[s]
    return theta


def test_cone_angles_match_per_face_oracle(rng):
    for name, m in oracle_corpus(rng):
        got, want = outcome(so.cone_angles, m), outcome(reference_cone_angles, m)
        if isinstance(want, tuple):
            assert got == want, name
        else:
            assert np.array_equal(got, want), name


def test_cone_angles_from_flip_geometries_are_exact(rng):
    # newton_solve sums the angles of the flipped metric's faces, which
    # stack the flip pass's geometries, with the np.bincount of
    # cone_angles, instead of calling cone_angles on the flipped metric
    flips = []
    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(4), Triangulation.genus_two_octagon()):
            for m in (random_metric(tri, bg, rng), scrambled_metric(tri, bg, rng, flips=6)):
                out, log = dl.flip_to_delaunay(m)
                flips.append(log.flip_count)
                t = out.triangulation
                angles = out.faces.angles.ravel()
                got = np.bincount(t.face_vertex_array.ravel(), angles, t.vertex_count)
                assert repr(got.tolist()) == repr(so.cone_angles(out).tolist())
    assert flips.count(0) >= 2 and max(flips) >= 5


def reference_angle_jacobian(m, geoms):
    """The angle Jacobian as a loop of entry updates, face by face and
    corner by corner: the assembly that one ``np.bincount`` replaced,
    with the same entries in the same order."""
    tri = m.triangulation
    bg = m.background
    n = tri.vertex_count
    jac = np.zeros((n, n))
    for geom, verts in zip(geoms, tri.face_vertex_ids):
        # per slot: this face's half q of the edge weight, in the product
        # form of delaunay.edge_weights (finite at tangency), and K(l)
        q, k = [], []
        for d, rho, length in zip(geom.d_tangent, geom.r_section, geom.lengths):
            q.append(d / (cfac(bg, rho) * trig.sfac(bg, length)))
            k.append(cfac(bg, length))
        for s in range(3):
            i = verts[s]
            # corner s sits on slots s and s + 2, towards corners s + 1, s + 2
            for slot, other in ((s, verts[(s + 1) % 3]), ((s + 2) % 3, verts[(s + 2) % 3])):
                jac[i, other] -= q[slot]
                jac[i, i] += q[slot] * k[slot]
    return jac


def test_angle_jacobian_matches_corner_by_corner_reference(rng):
    # loop edges (the one vertex of the genus-2 octagon) and faces glued
    # to themselves put several entries into one cell: each cell's sum
    # must come out in the loop's order
    metrics = [m for _, m in oracle_corpus(rng)]
    metrics += [random_metric(grid_torus(4), bg, rng) for bg in ALL_BACKGROUNDS]
    for bg in ALL_BACKGROUNDS:
        for tri in (Triangulation.genus_two_octagon(), isosceles_sphere()):
            metrics += [random_metric(tri, bg, rng), scrambled_metric(tri, bg, rng)]
    for m in metrics:
        geoms = dl.face_geometries(m)
        want = reference_angle_jacobian(m, geoms)
        for got in (so.angle_jacobian(with_stacked_faces(m)), so.angle_jacobian(m)):
            assert np.array_equal(got, want)
            assert repr(got.tolist()) == repr(want.tolist())


# -- Gauss-Bonnet gate --------------------------------------------------------------


def test_gauss_bonnet_examples():
    two_pi = 2.0 * math.pi
    assert so.gauss_bonnet_check(Background.HYPERBOLIC, [two_pi], 2, 1) == "feasible"
    assert so.gauss_bonnet_check(Background.EUCLIDEAN, [two_pi], 1, 1) == "feasible"
    assert (
        so.gauss_bonnet_check(Background.HYPERBOLIC, [two_pi] * 3, 0, 3) == "infeasible"
    )
    assert so.gauss_bonnet_check(Background.SPHERICAL, [two_pi], 0, 4) == "unknown"


def test_infeasible_raises_without_iterating(double_triangle):
    m = DecoratedMetric(double_triangle, Background.HYPERBOLIC, np.ones(3), np.zeros(3))
    with pytest.raises(Infeasible) as err:
        so.newton_solve(m, np.full(3, 2.0 * math.pi))
    assert err.value.report.residuals == []


# -- gradient and Hessian -------------------------------------------------------------


def test_gradient_is_defect(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    theta = so.cone_angles(m)
    assert np.allclose(so.gradient(m, theta), 0.0, atol=1e-15)
    target = theta + 0.1
    assert np.allclose(so.gradient(m, target), 0.1, atol=1e-12)


def test_gradient_matches_fd_of_functional(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    theta_target = so.cone_angles(m) * 0.97
    h0 = me.heights_from_decoration(m)
    inv = me.lambda_lengths(m)
    g = so.gradient(m, theta_target)
    d = 1e-5
    for v in range(3):
        hp, hm = h0.h.copy(), h0.h.copy()
        hp[v] += d
        hm[v] -= d
        vp = so.functional_value(
            m, me.Heights(hp, m.background, h0.reference_radius, inv.eps), theta_target
        )
        vm = so.functional_value(
            m, me.Heights(hm, m.background, h0.reference_radius, inv.eps), theta_target
        )
        fd = (vp - vm) / (2 * d)
        assert fd == pytest.approx(g[v], rel=1e-6, abs=1e-9)


def test_hessian_matches_fd_of_gradient(rng):
    for bg in ALL_BACKGROUNDS:
        m = random_metric(octahedron(), bg, rng)
        tri = m.triangulation
        inv = me.lambda_lengths(m)
        h0 = me.heights_from_decoration(m)
        hess = so.hessian(m)
        assert np.max(np.abs(hess - hess.T)) < 1e-12
        d = 1e-5
        theta_target = np.full(tri.vertex_count, 2.0 * math.pi)
        fd = np.zeros_like(hess)
        for v in range(tri.vertex_count):
            hp, hm = h0.h.copy(), h0.h.copy()
            hp[v] += d
            hm[v] -= d
            gp = so.gradient(
                me.decoration_from_heights(tri, inv, me.Heights(hp, bg, h0.reference_radius, inv.eps)),
                theta_target,
            )
            gm = so.gradient(
                me.decoration_from_heights(tri, inv, me.Heights(hm, bg, h0.reference_radius, inv.eps)),
                theta_target,
            )
            fd[:, v] = (gp - gm) / (2 * d)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(hess - fd)) / scale < 1e-5


def test_hessian_definiteness(rng):
    # hyperbolic: negative definite on weighted Delaunay metrics
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    m, _ = dl.flip_to_delaunay(m)
    eig = np.linalg.eigvalsh(so.hessian(m))
    assert eig.max() < -1e-12 * np.abs(eig).max()
    # Euclidean: constant kernel, remaining eigenvalues negative
    m_e = random_metric(octahedron(), Background.EUCLIDEAN, rng)
    m_e, _ = dl.flip_to_delaunay(m_e)
    hess = so.hessian(m_e)
    assert np.max(np.abs(hess @ np.ones(m_e.triangulation.vertex_count))) < 1e-10
    eig = np.sort(np.linalg.eigvalsh(hess))
    assert abs(eig[-1]) < 1e-10
    assert eig[-2] < 0


# -- functional --------------------------------------------------------------------


def test_functional_zero_and_antisymmetry(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    h0 = me.heights_from_decoration(m)
    inv = me.lambda_lengths(m)
    theta = np.full(6, 2.0 * math.pi)
    assert so.functional_value(m, h0, theta) == 0.0
    h1 = me.Heights(h0.h + 0.15, m.background, h0.reference_radius, inv.eps)
    m1 = me.decoration_from_heights(m.triangulation, inv, h1)
    forward = so.functional_value(m, h1, theta)
    backward = so.functional_value(m1, h0, theta)
    assert forward == pytest.approx(-backward, abs=1e-9)


def test_functional_path_independence(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    h0 = me.heights_from_decoration(m)
    inv = me.lambda_lengths(m)
    theta = np.full(6, 2.0 * math.pi)
    for _ in range(5):
        target = me.Heights(
            h0.h + rng.uniform(-0.15, 0.25, size=6), m.background, h0.reference_radius, inv.eps
        )
        via_a = [h0.h + rng.uniform(0.0, 0.2, size=6)]
        via_b = [h0.h + rng.uniform(-0.1, 0.1, size=6), h0.h + rng.uniform(0.0, 0.15, size=6)]
        va = so.functional_value(m, target, theta, via=via_a)
        vb = so.functional_value(m, target, theta, via=via_b)
        assert va == pytest.approx(vb, abs=1e-7)


def test_functional_path_leaves_domain(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    h0 = me.heights_from_decoration(m)
    inv = me.lambda_lengths(m)
    bad = me.Heights(h0.h - 10.0, m.background, h0.reference_radius, inv.eps)
    with pytest.raises(PathLeavesDomain):
        so.functional_value(m, bad, np.full(6, 2.0 * math.pi))


def test_functional_path_whose_exponential_overflows_leaves_domain():
    # toward a Euclidean height of -400, rho = e^400 is finite but rho ** 2
    # overflows on the way: the path leaves the domain, with no bare
    # OverflowError
    m = DecoratedMetric(
        Triangulation.genus_two_octagon(), Background.EUCLIDEAN, np.full(9, 2.5), np.array([0.3])
    )
    assert me.validate(m) == []
    toward = me.Heights(np.array([-400.0]), Background.EUCLIDEAN, 0.0, m.eps)
    with pytest.raises(PathLeavesDomain, match="length nan not finite"):
        so.functional_value(m, toward, [2.0 * math.pi])


# -- Newton solve ------------------------------------------------------------------


def test_zero_iterations_when_solved(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    m, _ = dl.flip_to_delaunay(m)
    theta = so.cone_angles(m)
    solved, report = so.newton_solve(m, theta)
    assert report.iterations == 0
    assert np.allclose(report.scale_factors, 0.0, atol=1e-12)
    assert np.array_equal(solved.lengths, m.lengths)


def test_reported_scale_factors_reproduce_the_solve():
    """Hyperbolic octahedra with ideal vertices that stay Delaunay: the
    report's scale factors turn the input into the solved metric, and
    are those that metric.scale_factors reads off the pair."""
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        m0 = random_metric(octahedron(), Background.HYPERBOLIC, rng, ideal_fraction=0.5)
        if m0.eps.min() == 1 or not all(dl.is_local_delaunay(m0, e) for e in range(12)):
            continue
        solved, report = so.newton_solve(m0, so.cone_angles(m0) * rng.uniform(0.9, 1.0, size=6))
        if sum(report.flips_per_iteration):
            continue
        back = me.conformal_change(m0, report.scale_factors)
        assert np.max(np.abs(back.lengths - solved.lengths)) <= 1e-12
        assert np.max(np.abs(back.radii - solved.radii)) <= 1e-12
        assert np.max(np.abs(me.scale_factors(m0, solved) - report.scale_factors)) <= 1e-12
        checked += 1
    assert checked >= 5


def test_genus2_uniformization_and_uniqueness(genus2):
    m0 = DecoratedMetric(genus2, Background.HYPERBOLIC, np.full(9, 2.0), np.zeros(1))
    start = time.time()
    solved, report = so.newton_solve(m0, np.array([2.0 * math.pi]), tol=1e-10, max_iter=25)
    elapsed = time.time() - start
    assert report.converged and report.iterations <= 25
    assert elapsed < 1.0
    assert abs(so.cone_angles(solved)[0] - 2.0 * math.pi) < 1e-10
    assert np.allclose(solved.lengths, UNIFORMIZATION_LENGTH, atol=1e-9)
    # second initialization in the same conformal class
    m1 = me.conformal_change(m0, np.array([0.15]))
    solved1, _ = so.newton_solve(m1, np.array([2.0 * math.pi]), tol=1e-10, max_iter=25)
    assert np.max(np.abs(np.sort(solved1.lengths) - np.sort(solved.lengths))) < 1e-8
    assert np.max(np.abs(solved1.radii - solved.radii)) < 1e-8


def test_decorated_genus2_solve(genus2):
    m0 = DecoratedMetric(genus2, Background.HYPERBOLIC, np.full(9, 2.5), np.array([0.3]))
    solved, report = so.newton_solve(m0, np.array([2.0 * math.pi]), tol=1e-10, max_iter=25)
    assert report.converged
    assert abs(so.cone_angles(solved)[0] - 2.0 * math.pi) < 1e-10
    assert all(g > 0 for g in report.functional_increase_bounds)
    # invariant preserved: lambda tables agree after flips
    lam0 = np.sort(me.lambda_lengths(m0).lam)
    lam1 = np.sort(me.lambda_lengths(solved).lam)
    assert np.max(np.abs(lam0 - lam1)) < 1e-9
    # result is weighted Delaunay
    assert dl.edge_weights(solved).min() >= -1e-12


def test_euclidean_torus_solve(rng):
    tri = grid_torus(3)
    m = random_metric(tri, Background.EUCLIDEAN, rng)
    theta = np.full(tri.vertex_count, 2.0 * math.pi)
    solved, report = so.newton_solve(m, theta, tol=1e-10, max_iter=40)
    assert report.converged
    final = so.cone_angles(solved)
    assert np.max(np.abs(final - 2.0 * math.pi)) < 1e-10
    assert abs(np.sum(final) - 2.0 * math.pi * tri.vertex_count) < 1e-10
    # gauge: first vertex height is zero
    assert abs(report.final_heights[0]) < 1e-12
    assert all(g > 0 for g in report.functional_increase_bounds)


def test_euclidean_uneven_targets(rng):
    tri = grid_torus(3)
    m = random_metric(tri, Background.EUCLIDEAN, rng)
    n = tri.vertex_count
    bump = rng.uniform(-0.3, 0.3, size=n)
    bump -= bump.mean()  # keep the Gauss-Bonnet equality
    theta = np.full(n, 2.0 * math.pi) + bump
    solved, report = so.newton_solve(m, theta, tol=1e-10, max_iter=40)
    assert report.converged
    assert np.max(np.abs(so.cone_angles(solved) - theta)) < 1e-10


def test_hyperbolic_random_targets(rng):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    n = 6
    theta = np.full(n, 2.0 * math.pi) + rng.uniform(-0.4, 0.2, size=n)
    while so.gauss_bonnet_check(Background.HYPERBOLIC, theta, 0, n) != "feasible":
        theta -= 0.3
    solved, report = so.newton_solve(m, theta, tol=1e-10, max_iter=40)
    assert report.converged
    assert np.max(np.abs(so.cone_angles(solved) - theta)) < 1e-10
    assert dl.edge_weights(solved).min() >= -1e-12
    assert all(g > 0 for g in report.functional_increase_bounds)


def test_solve_with_tangent_vertex_circles():
    # every edge of this surface has tangent vertex circles: the cotan
    # weights' product form keeps the Jacobian finite there
    path = Path(__file__).resolve().parent.parent / "fixtures" / "double_tangent_hyperbolic.json"
    m, _ = cli.load_surface_file(path)
    assert np.all(np.isfinite(so.angle_jacobian(m)))
    theta = 0.98 * so.cone_angles(m)
    solved, report = so.newton_solve(m, theta)
    assert report.converged
    assert np.max(np.abs(so.cone_angles(solved) - theta)) < 1e-10


@pytest.mark.parametrize("background", [Background.HYPERBOLIC, Background.SPHERICAL])
def test_stalled_line_search_names_spherical_targets_only_on_the_sphere(
    background, rng, monkeypatch
):
    m = random_metric(octahedron(), background, rng)
    # every trial is rejected, on both backgrounds
    monkeypatch.setattr(so, "_trial_gain", lambda *args, **kw: -1.0)
    with pytest.raises(LineSearchStalled) as info:
        so.newton_solve(m, 0.95 * so.cone_angles(m))
    expected = background is Background.SPHERICAL
    assert ("expected for spherical targets" in str(info.value)) == expected


GENUS2_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "genus2_hyperbolic.json"


def assert_partial_report(report, m0, steps):
    """A report of a solve that took ``steps`` Newton steps: one residual
    per step plus the one checked after the last, one flip count and
    one increase bound per step, and the heights, scale factors and
    vertex map in the input's labels."""
    n = m0.triangulation.vertex_count
    assert report.iterations == steps
    assert len(report.residuals) == steps + 1
    assert len(report.flips_per_iteration) == steps
    assert len(report.functional_increase_bounds) == steps
    assert sorted(report.vertex_map) == list(range(n))
    assert report.final_heights.shape == (n,) and np.all(np.isfinite(report.final_heights))
    assert report.scale_factors.shape == (n,) and np.all(np.isfinite(report.scale_factors))


def test_max_iter_caps_steps_and_checks_the_last_one():
    # the fixture needs exactly four steps at 2 pi: the residual after
    # the fourth is checked, so four steps are enough
    m, _ = cli.load_surface_file(GENUS2_FIXTURE)
    theta = np.array([2.0 * math.pi])
    solved, full = so.newton_solve(m, theta)
    assert full.converged and full.iterations == 4 and len(full.residuals) == 5
    capped, report = so.newton_solve(m, theta, max_iter=4)
    assert report.converged and report.iterations == 4
    assert report.residuals == full.residuals
    assert report.final_heights.tolist() == full.final_heights.tolist()
    assert capped.lengths.tolist() == solved.lengths.tolist()
    with pytest.raises(MaxIterations) as info:
        so.newton_solve(m, theta, max_iter=3)
    partial = info.value.report
    assert not partial.converged
    assert partial.message == "no convergence within 3 iterations"
    assert_partial_report(partial, m, 3)
    assert partial.residuals == full.residuals[:4]
    assert partial.functional_increase_bounds == full.functional_increase_bounds[:3]
    # zero steps: a solved metric converges on its one residual check,
    # an unsolved one is capped with that residual
    _, again = so.newton_solve(solved, theta, max_iter=0)
    assert again.converged and again.iterations == 0 and len(again.residuals) == 1
    with pytest.raises(MaxIterations) as info:
        so.newton_solve(m, theta, max_iter=0)
    assert_partial_report(info.value.report, m, 0)
    assert info.value.report.residuals == full.residuals[:1]
    assert info.value.report.scale_factors.tolist() == [0.0]


def test_stalled_solve_reports_its_accepted_steps(rng, monkeypatch):
    # the line search accepts two steps, then rejects every trial
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    theta = 0.95 * so.cone_angles(m)
    real_trial_gain, accepted = so._trial_gain, []

    def two_steps(*args):
        if len(accepted) == 2:
            return -1.0
        gain = real_trial_gain(*args)
        if gain > 0.0:
            accepted.append(gain)
        return gain

    monkeypatch.setattr(so, "_trial_gain", two_steps)
    with pytest.raises(LineSearchStalled) as info:
        so.newton_solve(m, theta)
    report = info.value.report
    assert not report.converged and report.message == "line search stalled"
    assert_partial_report(report, m, 2)
    assert report.functional_increase_bounds == accepted


def test_bookkeeping_gauss_bonnet_identity(rng):
    # sum of angle defects at the vertices minus the total face defect
    # (minus the area for hyperbolic, plus it for spherical) is 2 pi chi;
    # an end-to-end consistency check of orbit bookkeeping and trig
    from ddce import trig

    for bg in ALL_BACKGROUNDS:
        for tri in (octahedron(), grid_torus(3), Triangulation.genus_two_octagon()):
            m = random_metric(tri, bg, rng)
            theta = so.cone_angles(m)
            face_defect = 0.0
            for f in range(tri.face_count):
                angles = trig.interior_angles(bg, [m.lengths[e] for e in tri.face_edge_ids[f]])
                face_defect += math.pi - sum(angles)
            lhs = float(np.sum(2.0 * math.pi - theta)) - face_defect
            assert lhs == pytest.approx(2.0 * math.pi * tri.euler_characteristic, abs=1e-9)



def solve_outcome(m, theta):
    """The solved metric and everything its report holds."""
    out, report = so.newton_solve(m, theta, tol=1e-10, max_iter=30)
    return (
        out.lengths.tolist(), out.radii.tolist(), report.converged, report.iterations,
        report.residuals, report.flips_initial, report.flips_per_iteration,
        report.functional_increase_bounds, report.final_heights.tolist(),
        report.scale_factors.tolist(), report.vertex_map,
    )


def sheared_torus(n, background, rng, scale):
    """n x n grid torus with the lengths of the lattice (1, 0), (0.35, 0.9):
    every built-in diagonal is the long one, so the first flip pass flips
    them all and the solve then re-flips near-cocircular quads."""
    tri = grid_torus(n)
    norms = {"a": 1.0, "b": math.hypot(0.35, 0.9), "d": math.hypot(1.35, 0.9)}
    lengths = np.zeros(tri.edge_count)
    for f in range(tri.face_count):
        # grid_torus faces run a, b, diagonal (even) or diagonal, a, b (odd)
        for slot, kind in enumerate("abd" if f % 2 == 0 else "dab"):
            lengths[tri.edge_index[(f, slot)]] = norms[kind] * scale
    lengths *= 1.0 + rng.uniform(-0.02, 0.02, size=lengths.size)
    radii = rng.uniform(0.1, 0.25, size=tri.vertex_count) * scale
    return DecoratedMetric(tri, background, lengths, radii)


def newton_cases(rng):
    """(metric, targets) pairs whose solves re-flip: a random genus-2
    octagon, a scrambled octahedron and sheared hyperbolic and Euclidean
    3x3 and 4x4 tori."""
    cases = [
        (random_metric(Triangulation.genus_two_octagon(), Background.HYPERBOLIC, rng),
         np.array([2.0 * math.pi])),
        (scrambled_metric(octahedron(), Background.HYPERBOLIC, rng), np.full(6, 2.0)),
    ]
    for n in (3, 4):
        # alternating targets pull neighbouring vertices apart
        sign = np.array([(-1.0) ** (i + j) for i in range(n) for j in range(n)])
        for bg, scale, base in ((Background.HYPERBOLIC, 0.6, 0.55), (Background.EUCLIDEAN, 1.0, 1.0)):
            d = 0.3 * sign + rng.uniform(-0.03, 0.03, size=n * n)
            if bg is Background.EUCLIDEAN:
                d -= d.mean()  # Gauss-Bonnet equality
            cases.append((sheared_torus(n, bg, rng, scale), 2.0 * math.pi * (base + d)))
    return cases


def test_newton_solve_reuses_flip_geometries_exactly(rng, monkeypatch):
    cases = newton_cases(rng)
    passes = []
    real_face_geometries = dl.face_geometries

    def counted(m):
        passes.append(m)
        return real_face_geometries(m)

    got = []
    for m, theta in cases:
        passes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(dl, "face_geometries", counted)
            got.append(solve_outcome(m, theta))
        # one pass per flip_to_delaunay (the initial one and one per
        # accepted step), none for the Jacobian
        assert len(passes) == 1 + len(got[-1][6])
    # reference: the Jacobian recomputes every face geometry of its metric
    real_jacobian = so.angle_jacobian
    with monkeypatch.context() as mp:
        mp.setattr(so, "angle_jacobian", lambda m: real_jacobian(with_stacked_faces(m)))
        want = [solve_outcome(m, theta) for m, theta in cases]
    # repr tells floats apart bit for bit
    assert repr(got) == repr(want)
    assert sum(sum(w[6]) for w in want) >= 10  # re-flips happen during the solves
    assert all(w[2] for w in want)  # every solve converges


def test_slope_bounds_decide_every_trial_as_the_quadrature_does(rng, monkeypatch):
    # the acceptance-suite genus-2 solves (criteria 5 and 10) besides the
    # re-flipping cases: undecorated (one ideal vertex), decorated, and
    # decorated after a conformal change
    genus2 = Triangulation.genus_two_octagon()
    g2 = [
        DecoratedMetric(genus2, Background.HYPERBOLIC, np.full(9, 2.0), np.zeros(1)),
        DecoratedMetric(genus2, Background.HYPERBOLIC, np.full(9, 2.4), np.array([0.25])),
        me.conformal_change(
            DecoratedMetric(genus2, Background.HYPERBOLIC, np.full(9, 2.4), np.array([0.25])),
            np.array([0.1]),
        ),
        DecoratedMetric(genus2, Background.HYPERBOLIC, np.full(9, 2.5), np.array([0.3])),
    ]
    cases = newton_cases(rng) + [(m, np.array([2.0 * math.pi])) for m in g2]
    real_trial_gain, real_cone_angles = so._trial_gain, so.cone_angles
    evaluations = []
    trials = []

    def counted_cone_angles(m):
        evaluations[-1] += 1
        return real_cone_angles(m)

    def checked(chart, theta, h_from, h_to, grad_from, m_to):
        evaluations.append(0)
        with monkeypatch.context() as mp:
            mp.setattr(so, "cone_angles", counted_cone_angles)
            try:
                gain = real_trial_gain(chart, theta, h_from, h_to, grad_from, m_to)
            except PathLeavesDomain:
                gain = None
        try:
            quadrature = so._segment_integral(chart, theta, h_from, h_to, panels=8)
        except PathLeavesDomain:
            quadrature = None
        end_slope = float(np.dot(theta - real_cone_angles(m_to), h_to - h_from))
        trials.append((chart, theta, h_from, h_to, gain, quadrature, end_slope))
        if gain is None:
            raise PathLeavesDomain("slope node outside the domain")
        return gain

    monkeypatch.setattr(so, "_trial_gain", checked)
    for m, theta in cases:
        assert so.newton_solve(m, theta, tol=1e-10, max_iter=30)[1].converged
    monkeypatch.undo()

    def accepts(value):
        return value is not None and value > 0.0

    assert [accepts(t[4]) for t in trials] == [accepts(t[5]) for t in trials]
    assert max(evaluations) <= 8
    refined = [t for t in trials if t[6] <= 0.0 and accepts(t[4])]
    assert refined
    for chart, theta, h_from, h_to, bound, _, _ in refined:
        # the functional's increase over the step, measured from the
        # canonical heights of the trial's base point (ideal vertices
        # at height zero)
        m_from = me.decoration_from_heights(chart[0], chart[1], me.Heights(h_from, *chart[2:]))
        base = me.heights_from_decoration(m_from)
        to = me.Heights(base.h + (h_to - h_from), base.background, base.reference_radius, base.eps)
        assert 0.0 < bound <= so.functional_value(m_from, to, theta)
