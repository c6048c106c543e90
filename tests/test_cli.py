"""Command-line interface tests: parsing, exit codes, determinism."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddce import Background, DecoratedMetric, Triangulation
from ddce import cli, delaunay, solver
from ddce import metric as me
from ddce import transition as tr
from ddce.errors import BadParameters, DDCEError

from conftest import octahedron, random_metric, reference_surface_file_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_DOCS = {path.stem: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}


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


@pytest.mark.parametrize(
    "fixture, key, value, want",
    [
        # one negative radius: a vertex line, and no line per face at the vertex
        ("genus2_hyperbolic", "radii", -0.1, ["vertex 0:0: negative radius -0.1"]),
        # every side 3.3: one perimeter line per face, and no line per side
        ("octahedron_spherical", "lengths", 3.3, [
            f"face {f}: perimeter 9.899999999999999 not below 2*pi" for f in range(8)
        ]),
    ],
)
def test_validate_prints_one_line_per_violated_condition(tmp_path, capsys, fixture, key, value, want):
    doc = FIXTURE_DOCS[fixture]
    doc = {**doc, key: {label: value for label in doc[key]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 1
    assert capsys.readouterr().out.splitlines() == [f"invalid: {line}" for line in want]


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


def test_missing_length_is_parse_error(tmp_path, genus2_file, capsys):
    doc = json.load(open(genus2_file))
    first = sorted(doc["lengths"])[0]
    del doc["lengths"][first]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: lengths: missing edge labels {[first]}\n"


@pytest.mark.parametrize("key", ["lengths", "radii", "theta_target", "heights"])
def test_bad_table_entries_are_parse_errors(tmp_path, genus2_file, capsys, key):
    doc = json.load(open(genus2_file))
    good = doc.get(key, doc["radii"])  # the optional tables are keyed as radii are
    first = sorted(good)[0]
    kind = "edge" if key == "lengths" else "vertex"
    path = tmp_path / "bad.json"
    for table, message in (
        ({**good, "9:9": 1.0}, f"{key}: unknown {kind} label '9:9'"),
        ({**good, first: "1"}, f"{key}[{first}]: not a number"),
        # an int literal of 401 digits once ended in exit 1 with "int too
        # large to convert to float"
        ({**good, first: 10**400}, f"{key}[{first}]: integer too large for a float"),
        ([1.0], f"{key} must be an object"),
    ):
        path.write_text(json.dumps({**doc, key: table}))
        assert run("validate", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"



@pytest.mark.parametrize("entry", [0.5, 0.0, 1e300, "0", None, [0]])
def test_non_integer_gluing_entry_is_parse_error(tmp_path, genus2_file, capsys, entry):
    doc = json.load(open(genus2_file))
    doc["gluing"][0][0][0] = entry
    path = tmp_path / "gluing.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 2
    assert "bad gluing" in capsys.readouterr().err


@pytest.mark.parametrize("gluing", [{}, 5, "0:0 1:2", None])
def test_gluing_that_is_not_a_list_is_parse_error(tmp_path, genus2_file, capsys, gluing):
    doc = json.load(open(genus2_file))
    doc["gluing"] = gluing
    path = tmp_path / "gluing.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: gluing must be a list\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [doc], "top level is not an object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "radii"}, "missing key 'radii'"),
        (lambda doc: {**doc, "background": "flat"}, "unknown background 'flat'"),
        (lambda doc: {**doc, "background": 5}, "unknown background 5"),
        (lambda doc: {**doc, "faces": 0}, "faces must be a positive integer"),
        pytest.param(
            lambda doc: {**doc, "faces": True}, "faces must be a positive integer", id="faces-true"
        ),
        # the face count alone once sized the builder's tables
        pytest.param(
            lambda doc: {**doc, "faces": 10**30},
            f"bad gluing ({10**30} faces have {3 * 10**30} half-edges, "
            "but 9 gluing pairs cover 18)",
            id="faces-1e30",
        ),
        pytest.param(
            lambda doc: {**doc, "faces": 7},
            "bad gluing (7 faces have 21 half-edges, but 9 gluing pairs cover 18)",
            id="faces-plus-one",
        ),
    ],
)
def test_malformed_document_is_parse_error(tmp_path, genus2_file, capsys, edit, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(edit(json.load(open(genus2_file)))))
    assert run("validate", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "argv, written",
    [
        (["delaunay", "--out", "{d}/x.json"], "{d}/x.json"),
        (["solve", "--theta", "2pi", "--out", "{d}/x.json"], "{d}/x.json"),
        (["transition", "--t-list", "1,10", "--out-prefix", "{d}/tw"], "{d}/tw_t1.json"),
    ],
)
def test_unwritable_output_is_parse_error(tmp_path, genus2_file, capsys, argv, written):
    # an output that cannot be written ends like an input that cannot be read
    missing = tmp_path / "missing"
    assert run("validate", str(missing / "in.json")) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}/in.json: ")
    argv = [arg.format(d=missing) for arg in argv]
    assert run(argv[0], genus2_file, *argv[1:]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {written.format(d=missing)}: ")
    assert not missing.exists()


def test_round_trip_is_byte_stable(genus2_file):
    m, _ = cli.load_surface_file(genus2_file)
    assert cli.surface_file_text(m) == open(genus2_file).read()


@pytest.mark.parametrize("name", sorted(FIXTURE_DOCS))
def test_writer_matches_the_generic_emitter(name, rng):
    m, _ = cli.load_surface_file(str(FIXTURES / f"{name}.json"))
    flipped, _ = delaunay.flip_to_delaunay(m)
    n = m.triangulation.vertex_count
    extra = {"theta_target": rng.uniform(0.5, 7.0, n), "heights": list(rng.normal(size=n))}
    for metric in (m, flipped):
        for ext in (None, extra):
            assert cli.surface_file_text(metric, ext) == reference_surface_file_text(metric, ext)


@pytest.mark.parametrize(
    "name",
    ["genus2_hyperbolic", "genus2_undecorated", "square_torus_cocircular", "square_torus_pulled"],
)
def test_writer_matches_the_generic_emitter_on_solved_metrics(name):
    m, _ = cli.load_surface_file(str(FIXTURES / f"{name}.json"))
    solved, _ = solver.newton_solve(m, np.full(m.triangulation.vertex_count, 2 * math.pi))
    assert cli.surface_file_text(solved) == reference_surface_file_text(solved)


EDGE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, -math.inf, math.inf, -0.0, 0.0, 5e-324, 1e-310, 1e308, -1e308]),
)


@given(st.sampled_from(sorted(FIXTURE_DOCS)), st.sampled_from(list(Background)), st.data())
def test_writer_matches_the_generic_emitter_on_any_floats(name, background, data):
    tri = Triangulation.build_from_gluing(FIXTURE_DOCS[name]["faces"], FIXTURE_DOCS[name]["gluing"])
    n_e, n_v = tri.edge_count, tri.vertex_count
    lengths = data.draw(st.lists(EDGE_FLOATS, min_size=n_e, max_size=n_e))
    radii = data.draw(st.lists(EDGE_FLOATS, min_size=n_v, max_size=n_v))
    heights = st.lists(EDGE_FLOATS, min_size=n_v, max_size=n_v)
    extra = data.draw(st.none() | st.fixed_dictionaries({"heights": heights}))
    m = DecoratedMetric(tri, background, lengths, radii)
    assert cli.surface_file_text(m, extra) == reference_surface_file_text(m, extra)


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


def test_invariant_reuses_flip_geometries(tmp_path, rng, capsys, monkeypatch):
    from ddce import delaunay

    m = random_metric(octahedron(), Background.HYPERBOLIC, rng)
    path = write(tmp_path, "m.json", m)
    assert run("invariant", path) == 0
    want = capsys.readouterr().out
    passes = []
    real = delaunay.face_geometries
    monkeypatch.setattr(delaunay, "face_geometries", lambda m: passes.append(m) or real(m))
    assert run("invariant", path) == 0
    assert capsys.readouterr().out == want
    assert len(passes) == 1  # the flip pass; the tessellation reuses its geometries


def test_invariant_and_transition_skip_the_support_function(tmp_path, capsys, monkeypatch):
    # both discard the flip log's support values, so a spherical input
    # must not realize a face for the support function
    from ddce import delaunay

    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "octahedron_spherical.json"
    fixture = str(fixture)
    m, _ = cli.load_surface_file(fixture)
    assert m.background is Background.SPHERICAL
    assert run("invariant", fixture) == 0
    want_out = capsys.readouterr().out
    want_path = tr.build_transition(m, [1.0, 10.0, 100.0])

    def refuse(geom, radii, corners):
        raise AssertionError("support function evaluated")

    monkeypatch.setattr(delaunay, "_face_support_max", refuse)
    with pytest.raises(AssertionError):
        delaunay.flip_to_delaunay(m)  # the default tracks support on the sphere
    assert run("invariant", fixture) == 0
    assert capsys.readouterr().out == want_out
    got_path = tr.build_transition(m, [1.0, 10.0, 100.0])
    assert repr(got_path.rows) == repr(want_path.rows)
    assert [x.lengths.tolist() for x in got_path.metrics] == [
        x.lengths.tolist() for x in want_path.metrics
    ]
    prefix = str(tmp_path / "octahedron")
    assert run("transition", fixture, "--t-list", "1,10", "--out-prefix", prefix) == 0


def test_spherical_solve_skips_the_support_function(capsys, monkeypatch):
    # newton_solve reads no support value from its flip logs, so a
    # spherical solve must not evaluate the support function either
    from ddce import delaunay

    fixture = str(Path(__file__).resolve().parent.parent / "fixtures" / "octahedron_spherical.json")
    assert run("solve", fixture, "--theta", "2pi") == 3
    want = capsys.readouterr()

    def refuse(geom, radii, corners):
        raise AssertionError("support function evaluated")

    monkeypatch.setattr(delaunay, "_face_support_max", refuse)
    assert run("solve", fixture, "--theta", "2pi") == 3
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert "line search stalled (expected for spherical targets)" in want.out + want.err


def test_solve_max_iter_caps_newton_steps(capsys):
    # genus2_hyperbolic needs exactly four steps at 2 pi; the residual
    # after the last step allowed is checked and printed
    fixture = str(FIXTURES / "genus2_hyperbolic.json")
    assert run("solve", fixture, "--theta", "2pi", "--max-iter", "4") == 0
    out = capsys.readouterr().out
    assert out.startswith("converged in 4 iterations")
    assert out.count(" residual ") == 5
    assert run("solve", fixture, "--theta", "2pi", "--max-iter", "3") == 3
    out = capsys.readouterr().out
    assert out.startswith("not converged: no convergence within 3 iterations\n")
    assert out.count(" residual ") == 4


def test_invariant_rejects_radii_whose_product_underflows(tmp_path, capsys):
    # the genus-2 fixture as a Euclidean metric, its radius scaled by
    # 2**-1000: valid, but 2 r_i r_j underflows to 0 in the inversive
    # distance, which once printed lambda 0 on every edge and exit 0
    doc = json.loads(json.dumps(FIXTURE_DOCS["genus2_hyperbolic"]))
    doc["background"] = "euclidean"
    doc["radii"] = {label: r * 2.0**-1000 for label, r in doc["radii"].items()}
    path = tmp_path / "tiny-radii.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 0
    capsys.readouterr()
    assert run("invariant", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "inversive distance inf is not finite" in captured.err


def test_kernel_overflow_names_the_edge(tmp_path, capsys):
    # every length of the genus-2 fixture times 1000: valid, but the
    # face kernel overflows on its first edge, which once printed only
    # "error: math range error"
    doc = json.loads(json.dumps(FIXTURE_DOCS["genus2_hyperbolic"]))
    doc["lengths"] = {label: l * 1000 for label, l in doc["lengths"].items()}
    path = tmp_path / "long-edges.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 0
    capsys.readouterr()
    for command in ("delaunay", "invariant"):
        assert run(command, str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: edge 0:0: the face kernel overflows (math range error)\n"


def test_kernel_division_by_zero_names_the_face(tmp_path, capsys):
    # every length and radius of the genus-2 fixture times 144 (sides of
    # 360): valid, but a corner angle rounds to 0 and the face kernel
    # divides by its sine, which once printed only "error: float
    # division by zero"
    doc = json.loads(json.dumps(FIXTURE_DOCS["genus2_hyperbolic"]))
    for key in ("lengths", "radii"):
        doc[key] = {label: x * 144 for label, x in doc[key].items()}
    path = tmp_path / "long-edges.json"
    path.write_text(json.dumps(doc))
    assert run("validate", str(path)) == 0
    capsys.readouterr()
    for argv in (
        ("delaunay", str(path)),
        ("invariant", str(path)),
        ("solve", str(path), "--theta", "2pi", "--out", str(tmp_path / "solved.json")),
        ("transition", str(path), "--t-list", "1,10", "--out-prefix", str(tmp_path / "tw")),
    ):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: face 0: the face kernel divides by zero (float division by zero)\n"
        )


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
    m_euc, _ = tr.euclidean_limit(inv, h1)
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


@pytest.mark.parametrize("theta", ["-1", "0", "nan", "inf", "-2pi", "file", "xpi", "list", "huge"])
def test_solve_rejects_bad_theta(tmp_path, genus2_file, capsys, monkeypatch, theta):
    monkeypatch.chdir(tmp_path)  # no file is named xpi
    message = "target angles must be positive and finite"
    if theta == "xpi":  # neither 'Npi' nor a number, so a file that does not exist
        message = "--theta: not a number, 'Npi', or readable file "
        message += "([Errno 2] No such file or directory: 'xpi')"
    elif theta in ("file", "list", "huge"):
        path = tmp_path / "theta.json"
        if theta == "file":
            path.write_text('{"0:0": NaN}')
        elif theta == "huge":
            path.write_text(json.dumps({"0:0": 10**400}))
            message = "--theta file[0:0]: integer too large for a float"
        else:
            path.write_text("[6.283185307179586]")
            message = "--theta file: top level is not an object"
        theta = str(path)
    assert run("solve", genus2_file, f"--theta={theta}") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--theta", "2pi", "--tol", "nan"], "tol must be finite and non-negative"),
        (["solve", "--theta", "2pi", "--tol", "inf"], "tol must be finite and non-negative"),
        (["solve", "--theta", "2pi", "--tol", "-1"], "tol must be finite and non-negative"),
        (["solve", "--theta", "2pi", "--max-iter", "-3"], "max_iter must be non-negative"),
        (["invariant", "--tol", "nan"], "--tol: tol must be finite and non-negative"),
        (["invariant", "--tol", "inf"], "--tol: tol must be finite and non-negative"),
        (["invariant", "--tol", "-1"], "--tol: tol must be finite and non-negative"),
    ],
)
def test_bad_tolerance_or_iteration_cap_is_parse_error(genus2_file, capsys, argv, message):
    assert run(argv[0], genus2_file, *argv[1:]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


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


def test_transition_keeps_exact_tangency(tmp_path, capsys):
    # every edge of the fixture has tangent vertex circles (lambda 0 between
    # hyperideal vertices); the heights round trip must keep l = r_i + r_j
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "double_tangent_hyperbolic.json"
    prefix = str(tmp_path / "tangent")
    assert run("transition", str(fixture), "--t-list", "1,10,100,1000", "--out-prefix", prefix) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "10", "100", "1000"]
    for t in (1, 10, 100, 1000):
        m, _ = cli.load_surface_file(f"{prefix}_t{t}.json")
        for e in range(m.triangulation.edge_count):
            i, j = m.triangulation.edge_endpoints(e)
            assert m.lengths[e] == m.radii[i] + m.radii[j]


@pytest.mark.parametrize(
    "t_list, code, message",
    [
        ("1,nan", 2, "finite"),
        ("1,inf", 2, "finite"),
        ("1,0.5", 2, "finite"),
        ("1,1e300", 1, "squared weight not finite"),  # weight out of range, not a parse error
    ],
)
def test_transition_t_list_errors(genus2_file, capsys, t_list, code, message):
    assert run("transition", genus2_file, "--t-list", t_list) == code
    assert message in capsys.readouterr().err


# -- entry point ---------------------------------------------------------------------


def test_usage_errors_and_help_return_their_exit_codes(capsys):
    assert run("solve") == 2
    assert "the following arguments are required: path" in capsys.readouterr().err
    assert run("frobnicate") == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run("--help") == 0
    assert capsys.readouterr().out.startswith("usage: ddce")


def test_parser_is_built_once_and_reentrant(genus2_file, capsys):
    cli.build_parser.cache_clear()
    assert run("validate", genus2_file) == 0
    first = capsys.readouterr().out
    assert run("validate", genus2_file, "--tol", "1") == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run("validate", genus2_file) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser.cache_info().misses == 1


def test_no_option_leaks_between_calls(tmp_path, genus2_file, capsys, monkeypatch):
    tols = []
    real = solver.newton_solve

    def spy(m, theta, tol, max_iter):
        tols.append(tol)
        return real(m, theta, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(solver, "newton_solve", spy)
    assert run("solve", genus2_file, "--theta", "2pi", "--tol", "1e-3") == 0
    assert run("solve", genus2_file, "--theta", "2pi") == 0
    assert tols == [1e-3, 1e-10]
    out = tmp_path / "flipped.json"
    assert run("delaunay", genus2_file, "--out", str(out)) == 0
    out.unlink()
    before = sorted(tmp_path.iterdir())
    assert run("delaunay", genus2_file) == 0
    assert sorted(tmp_path.iterdir()) == before


# -- fuzz ----------------------------------------------------------------------------

def classified_main(argv):
    """``cli.main(argv)`` with what decided its exit code: the exception
    that the command or argparse raised to ``main`` (argparse's
    SystemExit included), or None when the command returned its code.
    Returns ``(code, caught, stdout, stderr)``."""
    parser, caught = cli.build_parser(), []

    class Recording:
        def parse_args(self, args):
            try:
                parsed = parser.parse_args(args)
            except SystemExit as ex:
                caught.append(ex)
                raise
            command = parsed.func

            def recorded(parsed_args):
                try:
                    return command(parsed_args)
                except Exception as ex:
                    caught.append(ex)
                    raise

            parsed.func = recorded
            return parsed

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", Recording)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, (caught[0] if caught else None), out.getvalue(), err.getvalue()


def assert_documented_exit(code, caught, out, err):
    """The exit code comes from its documented cause, with no traceback:
    1 from a DDCEError of the computation (not a rejected argument), the
    invalid-metric report or the refusal of a Euclidean transition; 2
    from a parse error (a CliError of code 2) or argparse; 3 and 4 from
    the solver's reports; 0 from a command that returned."""
    assert "Traceback" not in err
    if code == 1 and caught is not None and not isinstance(caught, cli.CliError):
        assert isinstance(caught, DDCEError) and not isinstance(caught, BadParameters), repr(caught)
        assert err.startswith("error: "), err
        return
    expected = {
        0: caught is None,
        1: (caught is None or (isinstance(caught, cli.CliError) and caught.code == 1))
        and (out.startswith("invalid: ") or out == "transition: input is already Euclidean\n"),
        2: isinstance(caught, SystemExit) or (isinstance(caught, cli.CliError) and caught.code == 2),
        3: caught is None and out.startswith("not converged: "),
        4: caught is None and out.startswith("infeasible: "),
    }
    assert expected.get(code), (code, repr(caught), out[:200], err[:200])


def huge_radii_document():
    """The genus-2 fixture with every length 2.5 and every radius half
    the largest float: the sum of two radii overflows to inf."""
    doc = json.loads(json.dumps(FIXTURE_DOCS["genus2_hyperbolic"]))
    doc["lengths"] = {label: 2.5 for label in doc["lengths"]}
    doc["radii"] = {label: 8.98846567431158e307 for label in doc["radii"]}
    return doc


@st.composite
def surface_documents(draw):
    """A fixture, valid as it is, perhaps in another background, with
    all lengths and radii scaled by one power of two (which keeps a
    Euclidean metric valid), perhaps the radii alone scaled down, and
    up to two lengths or radii replaced by any float (NaN and
    infinities too)."""
    doc = json.loads(json.dumps(FIXTURE_DOCS[draw(st.sampled_from(sorted(FIXTURE_DOCS)))]))
    if draw(st.booleans()):
        doc["background"] = draw(st.sampled_from(["spherical", "euclidean", "hyperbolic"]))
    scale = {"lengths": 2.0 ** draw(st.integers(-20, 12))}
    scale["radii"] = scale["lengths"] * 2.0 ** -draw(st.sampled_from([0, 0, 3, 1000]))
    for key in ("lengths", "radii"):
        doc[key] = {label: value * scale[key] for label, value in doc[key].items()}
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["lengths", "radii"]))
        label = draw(st.sampled_from(sorted(doc[key])))
        doc[key][label] = draw(st.floats())
    return doc


@settings(max_examples=150)
@given(surface_documents(), st.sampled_from(["validate", "delaunay", "invariant"]))
@example(huge_radii_document(), "validate")  # radius sums overflow: no numpy warning may leak
def test_fuzzed_surface_files_end_in_an_exit_code(tmp_path_factory, doc, command):
    # any surface file ends in a result or a one-line error with a
    # documented exit code, never in a traceback
    path = tmp_path_factory.getbasetemp() / "fuzzed-surface.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens, which the reader takes
    code, caught, out, err = classified_main([command, str(path)])
    assert_documented_exit(code, caught, out, err)


NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 100).map(str),
    st.sampled_from(["", "pi", "-pi", "abc", "1e999", "0x10", "1,2", " 2 "]),
)
THETA_TEXT = st.one_of(
    st.sampled_from(["2pi", "6.283185307179586", "3pi"]),
    st.floats(0.05, 4.0).map(lambda x: f"{x!r}pi"),
    st.tuples(NUMBER_TEXT, st.sampled_from(["", "pi"])).map("".join),
)
NON_SPHERICAL = sorted(n for n, doc in FIXTURE_DOCS.items() if doc["background"] != "spherical")


@st.composite
def solve_and_transition_arguments(draw):
    """``solve`` on a non-spherical fixture or ``transition`` on any,
    each option perhaps given: a value in its useful range, or any
    number, or text that may not parse."""
    if draw(st.booleans()):
        argv = ["solve", str(FIXTURES / f"{draw(st.sampled_from(NON_SPHERICAL))}.json")]
        if draw(st.integers(0, 3)):
            argv.append("--theta=" + draw(THETA_TEXT))
        if draw(st.booleans()):
            argv.append("--tol=" + draw(st.floats(0.0, 1.0).map(repr) | NUMBER_TEXT))
        if draw(st.booleans()):
            argv.append("--max-iter=" + draw(st.integers(-2, 30).map(str) | NUMBER_TEXT))
        return argv
    argv = ["transition", str(FIXTURES / f"{draw(st.sampled_from(sorted(FIXTURE_DOCS)))}.json")]
    if draw(st.integers(0, 3)):
        increasing = st.lists(st.floats(1.0, 1e5), max_size=4, unique=True).map(sorted)
        texts = increasing.map(lambda ts: [repr(t) for t in ts]) | st.lists(NUMBER_TEXT, max_size=4)
        argv.append("--t-list=" + ",".join(draw(texts)))
    return argv


@settings(max_examples=150)
@given(solve_and_transition_arguments())
@example(  # t * omega overflows: the inf weight is refused by name, with no numpy warning
    ["transition", str(FIXTURES / "double_octant_spherical.json"), "--t-list=7.864323565871281e+307"]
)
def test_fuzzed_arguments_end_in_an_exit_code(argv):
    assert_documented_exit(*classified_main(argv))


@st.composite
def solve_and_transition_files(draw):
    """``solve --theta 2pi`` with at most five iterations on a
    non-spherical fixture, or ``transition`` on any, with the fixture's
    lengths or radii changed: a whole table, or one or two of its
    values, scaled, negated, NaN, infinite or 1e3."""
    command = draw(st.sampled_from(["solve", "transition"]))
    names = NON_SPHERICAL if command == "solve" else sorted(FIXTURE_DOCS)
    doc = json.loads(json.dumps(FIXTURE_DOCS[draw(st.sampled_from(names))]))
    change = st.sampled_from(["scale", "negate", "nan", "inf", "-inf", "1e3"])
    for _ in range(draw(st.integers(1, 2))):
        table = doc[draw(st.sampled_from(["lengths", "radii"]))]
        labels = sorted(table)
        if draw(st.booleans()):
            labels = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=2))
        kind, factor = draw(change), draw(st.sampled_from([1e-3, 0.5, 2.0, 10.0]))
        for label in labels:
            table[label] = {
                "scale": table[label] * factor, "negate": -table[label], "nan": math.nan,
                "inf": math.inf, "-inf": -math.inf, "1e3": 1e3,
            }[kind]
    if command == "solve":
        return doc, ["solve", "--theta", "2pi", "--max-iter", str(draw(st.integers(0, 5)))]
    return doc, ["transition"]


@settings(max_examples=120)
@given(solve_and_transition_files())
def test_fuzzed_surface_files_through_solve_and_transition(tmp_path_factory, case):
    # a changed fixture ends in a result or in one error line, with a
    # documented exit code, through the commands that solve and deform
    doc, argv = case
    path = tmp_path_factory.getbasetemp() / "fuzzed-run.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens, which the reader takes
    code, caught, out, err = classified_main([argv[0], str(path), *argv[1:]])
    assert_documented_exit(code, caught, out, err)
    lines = err.splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines


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
