"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them all).

Criteria at a glance, with their tolerances pinned here:
 1. Hessian matches central finite differences of the gradient
    (step 1e-5, relative error < 1e-5) on 50 random metrics per
    background with |V| <= 12, in under 30 s.
 2. Concavity: hyperbolic weighted-Delaunay Hessians have all
    eigenvalues < -1e-12 * |H|; Euclidean ones kill the constant vector
    (residual < 1e-10) and are otherwise negative.
 3. DCE invariance: lambda tables before/after conformal change agree
    within 1e-10 on 100 pairs per background; cosh(lambda) equals the
    inversive distance within 1e-10 on hyperideal edges.
 4. Flip algorithm: 200 randomized fixtures per background terminate
    within 10 |E| flips, end with min weight >= -1e-12, preserve cone
    angles per flip within 1e-10, and (spherical) never decrease the
    support-function minimum.
 5. Uniformization: the genus-2 one-vertex fixture reaches
    max|theta - 2 pi| < 1e-10 in <= 25 Newton iterations and < 1 s; two
    initializations agree in lengths and radii within 1e-8.
 6. Feasibility gate: the three Gauss-Bonnet examples answer exactly
    (feasible, feasible, infeasible); infeasible solves exit 4 without
    iterating.
 7. Transition limit: face angle sums approach pi monotonically with
    max defect < 1e-5 at t = 1e4, and the decorated cotan weights reach
    the Euclidean ones within 1e-5.
 8. Bookkeeping Gauss-Bonnet identity within 1e-9 on every fixture.
 9. Path independence of the functional value within 1e-7 on 50 trials.
10. Byte-identical CLI outputs across two runs over the fixture corpus.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, Triangulation
from ddce import cli
from ddce import delaunay as dl
from ddce import metric as me
from ddce import solver as so
from ddce import transition as tr
from ddce import trig
from ddce.errors import Infeasible, PathLeavesDomain

from conftest import ALL_BACKGROUNDS, grid_torus, octahedron, random_metric, scrambled_metric

RNG = np.random.default_rng(90210)

TRIANGULATIONS = [
    Triangulation.double_triangle(),
    Triangulation.genus_two_octagon(),
    octahedron(),
    grid_torus(3),
]


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _metric_corpus(background, count, ideal_every=0, min_vertices=1):
    out = []
    k = 0
    while len(out) < count:
        tri = TRIANGULATIONS[k % len(TRIANGULATIONS)]
        k += 1
        if tri.vertex_count < min_vertices:
            continue
        frac = 0.3 if (ideal_every and k % ideal_every == 0) else 0.0
        if background is Background.EUCLIDEAN:
            frac = 0.0
        out.append(random_metric(tri, background, RNG, ideal_fraction=frac))
    return out


def test_criterion_1_hessian_vs_fd():
    start = time.time()
    worst = 0.0
    step = 1e-5
    for bg in ALL_BACKGROUNDS:
        # one-vertex Euclidean fixtures carry only the scale gauge: both
        # the Hessian and the gradient variation vanish identically and a
        # relative comparison is meaningless, so require |V| >= 2 there
        min_v = 2 if bg is Background.EUCLIDEAN else 1
        for m in _metric_corpus(bg, 50, ideal_every=7, min_vertices=min_v):
            tri = m.triangulation
            assert tri.vertex_count <= 12
            inv = me.lambda_lengths(m)
            h0 = me.heights_from_decoration(m)
            hess = so.hessian(m)
            fd = np.zeros_like(hess)
            for v in range(tri.vertex_count):
                hp, hm = h0.h.copy(), h0.h.copy()
                hp[v] += step
                hm[v] -= step
                tp = so.cone_angles(
                    me.decoration_from_heights(tri, inv, me.Heights(hp, bg, h0.reference_radius, inv.eps))
                )
                tm = so.cone_angles(
                    me.decoration_from_heights(tri, inv, me.Heights(hm, bg, h0.reference_radius, inv.eps))
                )
                fd[:, v] = -(tp - tm) / (2 * step)
            rel = np.max(np.abs(hess - fd)) / max(np.max(np.abs(fd)), 1e-30)
            worst = max(worst, rel)
    elapsed = time.time() - start
    _report(
        1,
        worst < 1e-5 and elapsed < 30.0,
        f"hessian vs finite differences: max rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_concavity():
    worst_hyp = -math.inf
    worst_kernel = 0.0
    worst_euc = -math.inf
    for k in range(50):
        m = random_metric(TRIANGULATIONS[k % len(TRIANGULATIONS)], Background.HYPERBOLIC, RNG)
        m, _ = dl.flip_to_delaunay(m)
        eig = np.linalg.eigvalsh(so.hessian(m))
        worst_hyp = max(worst_hyp, eig.max() / np.abs(eig).max())
        m_e = random_metric(TRIANGULATIONS[k % len(TRIANGULATIONS)], Background.EUCLIDEAN, RNG)
        m_e, _ = dl.flip_to_delaunay(m_e)
        hess = so.hessian(m_e)
        n = m_e.triangulation.vertex_count
        worst_kernel = max(worst_kernel, float(np.max(np.abs(hess @ np.ones(n)))))
        eig = np.sort(np.linalg.eigvalsh(hess))
        if n > 1:
            worst_euc = max(worst_euc, eig[-2])
    ok = worst_hyp < -1e-12 and worst_kernel < 1e-10 and worst_euc < 0
    _report(
        2,
        ok,
        f"hyperbolic max eig ratio {worst_hyp:.2e}, euclidean kernel residual "
        f"{worst_kernel:.2e}, next eigenvalue {worst_euc:.2e}",
    )


def test_criterion_3_dce_invariance():
    worst_lam = 0.0
    worst_inv = 0.0
    for bg in ALL_BACKGROUNDS:
        done = 0
        while done < 100:
            tri = TRIANGULATIONS[done % len(TRIANGULATIONS)]
            m = random_metric(tri, bg, RNG)
            u = RNG.uniform(-0.15, 0.15, size=tri.vertex_count)
            try:
                m2 = me.conformal_change(m, u)
            except me.ResultInvalid:
                continue
            done += 1
            lam1 = me.lambda_lengths(m).lam
            lam2 = me.lambda_lengths(m2).lam
            worst_lam = max(worst_lam, float(np.max(np.abs(lam1 - lam2))))
            for e in range(tri.edge_count):
                i, j = tri.edge_endpoints(e)
                inv = trig.inversive_distance(bg, m2.lengths[e], m2.radii[i], m2.radii[j])
                worst_inv = max(worst_inv, abs(math.cosh(lam2[e]) - inv))
    ok = worst_lam < 1e-10 and worst_inv < 1e-10
    _report(3, ok, f"lambda drift {worst_lam:.2e}, cosh(lambda) vs inversive {worst_inv:.2e}")


def test_criterion_4_flip_algorithm():
    max_ratio = 0.0
    worst_weight = math.inf
    worst_theta = 0.0
    support_ok = True
    for bg in ALL_BACKGROUNDS:
        for k in range(200):
            tri = (octahedron(), grid_torus(3))[k % 2]
            if k % 5 < 3:
                m = scrambled_metric(tri, bg, RNG, flips=3 + k % 4)
            else:
                m = random_metric(tri, bg, RNG)
            flipped, log = dl.flip_to_delaunay(m)
            max_ratio = max(max_ratio, log.flip_count / m.triangulation.edge_count)
            worst_weight = min(worst_weight, float(dl.edge_weights(flipped).min()))
            # replay the log: per-flip cone-angle preservation and
            # (spherical) support monotonicity
            current = m
            support_prev = log.initial_support_min
            for rec in log.records:
                e = next(
                    e
                    for e in range(current.triangulation.edge_count)
                    if current.triangulation.edge_label(e) == rec.edge_label
                )
                theta_before = so.cone_angles(current)
                current, _ = dl.flip_edge(current, e)
                theta_after = so.cone_angles(current)  # a flip keeps vertex ids
                dev = max(
                    abs(theta_after[v] - theta_before[v])
                    for v in range(len(theta_before))
                )
                worst_theta = max(worst_theta, dev)
                if bg is Background.SPHERICAL:
                    if rec.support_min < support_prev - 1e-12:
                        support_ok = False
                    support_prev = rec.support_min
    ok = max_ratio <= 10.0 and worst_weight >= -1e-12 and worst_theta < 1e-10 and support_ok
    _report(
        4,
        ok,
        f"max flips/|E| {max_ratio:.2f}, min final weight {worst_weight:.2e}, "
        f"max cone-angle drift {worst_theta:.2e}, support monotone {support_ok}",
    )


def test_criterion_5_uniformization():
    tri = Triangulation.genus_two_octagon()
    m0 = DecoratedMetric(tri, Background.HYPERBOLIC, np.full(9, 2.0), np.zeros(1))
    start = time.time()
    solved, report = so.newton_solve(m0, np.array([2.0 * math.pi]), tol=1e-10, max_iter=25)
    elapsed = time.time() - start
    residual = float(np.max(np.abs(so.cone_angles(solved) - 2.0 * math.pi)))
    m1 = me.conformal_change(
        DecoratedMetric(tri, Background.HYPERBOLIC, np.full(9, 2.4), np.array([0.25])),
        np.array([0.1]),
    )
    solved1, _ = so.newton_solve(m1, np.array([2.0 * math.pi]), tol=1e-10, max_iter=25)
    m2 = DecoratedMetric(tri, Background.HYPERBOLIC, np.full(9, 2.4), np.array([0.25]))
    solved2, _ = so.newton_solve(m2, np.array([2.0 * math.pi]), tol=1e-10, max_iter=25)
    agree = max(
        float(np.max(np.abs(np.sort(solved1.lengths) - np.sort(solved2.lengths)))),
        float(np.max(np.abs(np.sort(solved1.radii) - np.sort(solved2.radii)))),
    )
    ok = residual < 1e-10 and report.iterations <= 25 and elapsed < 1.0 and agree < 1e-8
    _report(
        5,
        ok,
        f"residual {residual:.2e} in {report.iterations} iterations ({elapsed:.2f} s), "
        f"uniqueness deviation {agree:.2e}",
    )


def test_criterion_6_feasibility_gate(tmp_path):
    two_pi = 2.0 * math.pi
    answers = (
        so.gauss_bonnet_check(Background.HYPERBOLIC, [two_pi], 2, 1),
        so.gauss_bonnet_check(Background.EUCLIDEAN, [two_pi], 1, 1),
        so.gauss_bonnet_check(Background.HYPERBOLIC, [two_pi] * 3, 0, 3),
    )
    gate_ok = answers == ("feasible", "feasible", "infeasible")
    tri = Triangulation.double_triangle()
    m = DecoratedMetric(tri, Background.HYPERBOLIC, np.ones(3), np.zeros(3))
    with pytest.raises(Infeasible) as err:
        so.newton_solve(m, np.full(3, two_pi))
    no_iterations = err.value.report.residuals == []
    path = tmp_path / "sphere3.json"
    cli.write_surface_file(path, m)
    code = cli.main(["solve", str(path), "--theta", "2pi"])
    ok = gate_ok and no_iterations and code == 4
    _report(6, ok, f"answers {answers}, exit code {code}, iterated: {not no_iterations}")


def test_criterion_7_transition_limit():
    ts = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    worst_defect = 0.0
    worst_wdev = 0.0
    monotone = True
    corpus = [random_metric(TRIANGULATIONS[k % len(TRIANGULATIONS)], Background.HYPERBOLIC, RNG) for k in range(8)]
    corpus.append(
        DecoratedMetric(
            Triangulation.genus_two_octagon(), Background.HYPERBOLIC, np.full(9, 2.5), np.array([0.3])
        )
    )
    for m in corpus:
        path = tr.build_transition(m, ts)
        defects = [row.max_angle_defect for row in path.rows]
        if not all(b < a for a, b in zip(defects, defects[1:])):
            monotone = False
        worst_defect = max(worst_defect, defects[-1])
        worst_wdev = max(worst_wdev, path.rows[-1].max_weight_deviation)
    ok = monotone and worst_defect < 1e-5 and worst_wdev < 1e-5
    _report(
        7,
        ok,
        f"angle defect at t=1e4: {worst_defect:.2e} (monotone {monotone}), "
        f"weight deviation {worst_wdev:.2e}",
    )


@pytest.mark.parametrize("seed, draw", [(14, 1), (0, 7), (9, 3), (22, 5)])
def test_criterion_7_weights_on_a_fresh_draw(seed, draw):
    # criterion 7's bounds on one of its eight metrics, drawn afresh from
    # default_rng(seed): the angle defect falls like 1/t^2, and so must
    # the weight deviation.  A kernel that lost accuracy in the cotan
    # weights let it turn up after t = 1e3 on these draws, to 1.0e-5 to
    # 1.4e-5 at t = 1e4.
    rng = np.random.default_rng(seed)
    metrics = [
        random_metric(TRIANGULATIONS[k % len(TRIANGULATIONS)], Background.HYPERBOLIC, rng)
        for k in range(draw + 1)
    ]
    path = tr.build_transition(metrics[draw], [1.0, 10.0, 100.0, 1000.0, 10000.0])
    assert path.rows[-1].max_angle_defect < 1e-8
    assert path.rows[-1].max_weight_deviation < 1e-5


def test_criterion_8_gauss_bonnet_bookkeeping():
    worst = 0.0
    for bg in ALL_BACKGROUNDS:
        for m in _metric_corpus(bg, 12, ideal_every=5):
            tri = m.triangulation
            theta = so.cone_angles(m)
            face_defect = sum(
                math.pi - sum(trig.interior_angles(bg, [m.lengths[e] for e in tri.face_edge_ids[f]]))
                for f in range(tri.face_count)
            )
            lhs = float(np.sum(2.0 * math.pi - theta)) - face_defect
            worst = max(worst, abs(lhs - 2.0 * math.pi * tri.euler_characteristic))
    _report(8, worst < 1e-9, f"identity residual {worst:.2e}")


def test_criterion_9_path_independence():
    worst = 0.0
    for k in range(50):
        tri = TRIANGULATIONS[k % len(TRIANGULATIONS)]
        bg = ALL_BACKGROUNDS[k % 3]
        m = random_metric(tri, bg, RNG)
        h0 = me.heights_from_decoration(m)
        inv = me.lambda_lengths(m)
        n = tri.vertex_count
        theta = np.full(n, 2.0 * math.pi)
        target = me.Heights(
            h0.h + RNG.uniform(-0.05, 0.15, size=n), bg, h0.reference_radius, inv.eps
        )
        via_a = [h0.h + RNG.uniform(0.0, 0.1, size=n)]
        via_b = [h0.h + RNG.uniform(-0.04, 0.04, size=n), h0.h + RNG.uniform(0.0, 0.08, size=n)]
        try:
            va = so.functional_value(m, target, theta, via=via_a)
            vb = so.functional_value(m, target, theta, via=via_b)
        except (me.HeightsOutOfDomain, PathLeavesDomain):
            continue
        worst = max(worst, abs(va - vb))
    _report(9, worst < 1e-7, f"max path disagreement {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    corpus = []
    rng = np.random.default_rng(4)
    for k, bg in enumerate(ALL_BACKGROUNDS):
        m = random_metric(octahedron(), bg, rng)
        p = tmp_path / f"c{k}.json"
        cli.write_surface_file(p, m)
        corpus.append(str(p))
    g2 = tmp_path / "g2.json"
    cli.write_surface_file(
        g2,
        DecoratedMetric(
            Triangulation.genus_two_octagon(), Background.HYPERBOLIC, np.full(9, 2.5), np.array([0.3])
        ),
    )
    corpus.append(str(g2))
    pulled = tmp_path / "pulled.json"
    cli.write_surface_file(
        pulled,
        DecoratedMetric(
            Triangulation.square_torus(), Background.EUCLIDEAN, np.array([1.0, 1.0, 1.9]), np.array([0.0])
        ),
    )
    corpus.append(str(pulled))

    driver = (
        "import sys\nfrom ddce import cli\n"
        "paths = sys.argv[1:-1]\nout = sys.argv[-1]\n"
        "for p in paths:\n"
        "    print('===', 'validate', p); cli.main(['validate', p])\n"
        "    print('===', 'delaunay', p); cli.main(['delaunay', p, '--out', out + p.replace('/', '_') + '.del'])\n"
        "    print('===', 'invariant', p); cli.main(['invariant', p])\n"
        "for p in paths:\n"
        "    print('===', 'transition', p)\n"
        "    cli.main(['transition', p, '--t-list', '1,10,100', '--out-prefix', out + p.replace('/', '_')])\n"
        f"print('=== solve'); cli.main(['solve', {corpus[-2]!r}, '--theta', '2pi', '--out', out + 'solved.json'])\n"
    )
    runs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        outdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", driver, *corpus, str(outdir) + "/"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}
        runs.append((proc.stdout, files))
    identical = runs[0] == runs[1]
    n_files = len(runs[0][1])
    _report(10, identical, f"two runs over {len(corpus)} fixtures, {n_files} files compared")
