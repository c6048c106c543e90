"""Command-line interface tests: parsing, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from ddce import Background, DecoratedMetric, Triangulation
from ddce import cli
from ddce import metric as me
from ddce import transition as tr

from conftest import octahedron, random_metric


def write(tmp_path, name, metric, extra=None):
    path = tmp_path / name
    cli.write_surface_file(path, metric, extra)
    return str(path)


@pytest.fixture
def genus2_file(tmp_path):
    tri = Triangulation.genus_two_octagon()
    m = DecoratedMetric(tri, Background.HYPERBOLIC, np.full(9, 2.5), np.array([0.3]))
    return write(tmp_path, "g2.json", m)


def run(*argv):
    return cli.main(list(argv))


# -- validate ---------------------------------------------------------------------


def test_validate_ok(genus2_file, capsys):
    assert run("validate", genus2_file) == 0
    out = capsys.readouterr().out
    assert "genus 2" in out


def test_validate_names_violations(tmp_path, capsys):
    tri = Triangulation.double_triangle()
    m = DecoratedMetric(tri, Background.EUCLIDEAN, np.ones(3), np.full(3, 0.6))
    path = write(tmp_path, "bad.json", m)
    assert run("validate", path) == 1
    out = capsys.readouterr().out
    assert "0:0" in out and "circles intersect" in out


@pytest.mark.parametrize("command", [["validate"], ["invariant"], ["solve", "--theta", "2pi"]])
@pytest.mark.parametrize("key", ["lengths", "radii"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_metric_is_invalid(tmp_path, genus2_file, capsys, command, key, value):
    doc = json.load(open(genus2_file))
    doc[key]["0:0"] = value  # json writes the NaN / Infinity tokens it also reads
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))
    assert run(command[0], str(path), *command[1:]) == 1
    assert "not finite" in capsys.readouterr().out


def test_truncated_file_is_parse_error(tmp_path, genus2_file):
    text = open(genus2_file).read()[:-40]
    broken = tmp_path / "broken.json"
    broken.write_text(text)
    assert run("validate", str(broken)) == 2


def test_missing_length_is_parse_error(tmp_path, genus2_file):
    doc = json.load(open(genus2_file))
    first = sorted(doc["lengths"])[0]
    del doc["lengths"][first]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 2


def test_round_trip_is_byte_stable(genus2_file):
    m, _ = cli.load_surface_file(genus2_file)
    assert cli.surface_file_text(m) == open(genus2_file).read()


# -- delaunay ---------------------------------------------------------------------


def test_delaunay_idempotent(tmp_path, capsys):
    tri = Triangulation.square_torus()
    m = DecoratedMetric(tri, Background.EUCLIDEAN, np.array([1.0, 1.0, 1.9]), np.array([0.0]))
    path = write(tmp_path, "pulled.json", m)
    out_path = str(tmp_path / "flipped.json")
    assert run("delaunay", path, "--out", out_path) == 0
    first = capsys.readouterr().out
    assert first.startswith("flips: 1")
    assert run("delaunay", out_path) == 0
    second = capsys.readouterr().out
    assert second.startswith("flips: 0")


def test_delaunay_spherical_support_log(tmp_path, rng, capsys):
    from conftest import scrambled_metric

    m = scrambled_metric(octahedron(), Background.SPHERICAL, rng, flips=4)
    path = write(tmp_path, "sph.json", m)
    assert run("delaunay", path) == 0
    out = capsys.readouterr().out
    mins = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines() if "support-min" in line]
    assert len(mins) >= 1
    assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))


# -- invariant ---------------------------------------------------------------------


def test_invariant_tangency_prints_zero(tmp_path, capsys):
    # all vertex circles mutually tangent: every edge has lambda = 0
    tri = Triangulation.double_triangle()
    m = DecoratedMetric(tri, Background.HYPERBOLIC, np.ones(3), np.full(3, 0.5))
    path = write(tmp_path, "tangent.json", m)
    assert run("invariant", path) == 0
    out = capsys.readouterr().out
    lams = [float(line.split()[-1]) for line in out.splitlines() if line.startswith("edge")]
    assert lams == [0.0, 0.0, 0.0]
    assert "eps 1" in out


def test_invariant_stable_under_conformal_change(tmp_path, rng, capsys):
    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    u = rng.uniform(-0.1, 0.1, size=6)
    m2 = me.conformal_change(m, u)
    p1 = write(tmp_path, "a.json", m)
    p2 = write(tmp_path, "b.json", m2)
    assert run("invariant", p1) == 0
    out1 = capsys.readouterr().out
    assert run("invariant", p2) == 0
    out2 = capsys.readouterr().out
    lam1 = sorted(float(l.split()[-1]) for l in out1.splitlines() if l.startswith("edge"))
    lam2 = sorted(float(l.split()[-1]) for l in out2.splitlines() if l.startswith("edge"))
    assert np.allclose(lam1, lam2, atol=1e-9)


def test_invariant_shared_across_backgrounds(tmp_path, rng, capsys):
    # a hyperbolic metric and its Euclidean limit print the same table
    from ddce import delaunay as dl

    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    m_del, _ = dl.flip_to_delaunay(m)
    inv = me.lambda_lengths(m_del)
    h1 = me.heights_from_decoration(m_del)
    m_euc, _ = tr.euclidean_limit(m_del.triangulation, inv, h1)
    p1 = write(tmp_path, "hyp.json", m_del)
    p2 = write(tmp_path, "euc.json", m_euc)
    assert run("invariant", p1) == 0
    out1 = capsys.readouterr().out
    assert run("invariant", p2) == 0
    out2 = capsys.readouterr().out
    lam1 = sorted(float(l.split()[-1]) for l in out1.splitlines() if l.startswith("edge"))
    lam2 = sorted(float(l.split()[-1]) for l in out2.splitlines() if l.startswith("edge"))
    assert np.allclose(lam1, lam2, atol=1e-9)


# -- solve -------------------------------------------------------------------------


def test_solve_already_achieved(tmp_path, rng, capsys):
    from ddce import solver as so
    from ddce import delaunay as dl

    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    m, _ = dl.flip_to_delaunay(m)
    theta = so.cone_angles(m)
    extra = {"theta_target": theta}
    path = write(tmp_path, "solved.json", m, extra)
    assert run("solve", path) == 0
    out = capsys.readouterr().out
    assert "converged in 0 iterations" in out


def test_solve_genus2(genus2_file, tmp_path, capsys):
    out_path = str(tmp_path / "uniformized.json")
    assert run("solve", genus2_file, "--theta", "2pi", "--out", out_path) == 0
    assert "converged" in capsys.readouterr().out
    solved, _ = cli.load_surface_file(out_path)
    from ddce import solver as so

    assert abs(so.cone_angles(solved)[0] - 2.0 * math.pi) < 1e-10


def test_solve_infeasible_exit_code(tmp_path, capsys):
    tri = Triangulation.double_triangle()
    m = DecoratedMetric(tri, Background.HYPERBOLIC, np.ones(3), np.zeros(3))
    path = write(tmp_path, "sphere3.json", m)
    assert run("solve", path, "--theta", "2pi") == 4
    out = capsys.readouterr().out
    assert "infeasible" in out


def test_solve_theta_file(tmp_path, rng, capsys):
    from ddce import solver as so

    tri = octahedron()
    m = random_metric(tri, Background.HYPERBOLIC, rng)
    path = write(tmp_path, "m.json", m)
    theta = np.full(6, 0.6 * 2.0 * math.pi)  # sum/2pi = 3.6 < 2g - 2 + |V| = 4
    table = {m.triangulation.vertex_label(v): float(theta[v]) for v in range(6)}
    tpath = tmp_path / "theta.json"
    tpath.write_text(json.dumps(table))
    out_path = str(tmp_path / "out.json")
    assert run("solve", path, "--theta", str(tpath), "--out", out_path) == 0
    solved, _ = cli.load_surface_file(out_path)
    assert np.max(np.abs(so.cone_angles(solved) - theta)) < 1e-10


@pytest.mark.parametrize("theta", ["-1", "0", "nan", "inf", "-2pi", "file"])
def test_solve_rejects_bad_theta(tmp_path, genus2_file, capsys, theta):
    if theta == "file":
        path = tmp_path / "theta.json"
        path.write_text('{"0:0": NaN}')
        theta = str(path)
    assert run("solve", genus2_file, f"--theta={theta}") == 2
    assert "positive and finite" in capsys.readouterr().err


# -- transition ---------------------------------------------------------------------


def test_transition_outputs(tmp_path, genus2_file, capsys):
    prefix = str(tmp_path / "tw")
    assert run("transition", genus2_file, "--t-list", "1,10,100", "--out-prefix", prefix) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "t,max_angle_defect,max_weight_deviation"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "10", "100"]
    defects = [float(r[1]) for r in rows]
    assert defects[0] > defects[1] > defects[2]
    # t = 1 metrics equal the (flipped) input
    m1, _ = cli.load_surface_file(f"{prefix}_t1.json")
    m0, _ = cli.load_surface_file(genus2_file)
    assert np.max(np.abs(np.sort(m1.lengths) - np.sort(m0.lengths))) < 1e-12
    assert (tmp_path / "tw_diagnostics.csv").exists()
    assert (tmp_path / "tw_limit.json").exists()


def test_transition_rejects_euclidean(tmp_path, rng, capsys):
    m = random_metric(octahedron(), Background.EUCLIDEAN, rng)
    path = write(tmp_path, "euc.json", m)
    assert run("transition", path) == 1
    assert "already Euclidean" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # t = 1e300 overflows to inf heights
@pytest.mark.parametrize(
    "t_list, code, message",
    [
        ("1,nan", 2, "finite"),
        ("1,inf", 2, "finite"),
        ("1,0.5", 2, "finite"),
        ("1,1e300", 1, "not finite"),  # heights out of domain, not a parse error
    ],
)
def test_transition_t_list_errors(genus2_file, capsys, t_list, code, message):
    assert run("transition", genus2_file, "--t-list", t_list) == code
    assert message in capsys.readouterr().err


# -- determinism ---------------------------------------------------------------------


def test_byte_identical_outputs(tmp_path, genus2_file):
    import subprocess
    import sys

    outs = []
    for k in (1, 2):
        out_path = tmp_path / f"solved{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ddce.cli", "solve", genus2_file, "--theta", "2pi",
             "--out", str(out_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        outs.append((proc.stdout, out_path.read_bytes()))
    assert outs[0] == outs[1]
