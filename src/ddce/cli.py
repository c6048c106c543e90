"""Batch front end: file I/O, validation, and pipelines.

Surface files are self-describing JSON with an explicit half-edge
gluing (vertex-indexed triangle lists cannot express the self-gluings
and multi-edges this package supports):

    {
      "background": "hyperbolic" | "spherical" | "euclidean",
      "faces": <count>,
      "gluing": [[[f, s], [g, t]], ...],
      "lengths": {"<edge label>": <float>, ...},
      "radii": {"<vertex label>": <float>, ...},
      "theta_target": {"<vertex label>": <float>},   # optional
      "heights": {"<vertex label>": <float>}         # optional
    }

Labels are the canonical (lexicographically least) half-edge of each
orbit, written "f:s".  Floats are emitted with 17 significant digits,
so writing and re-reading a canonical file is byte-stable.

Exit codes: 0 ok, 1 invalid metric, 2 parse error (or an input that
cannot be read or an output that cannot be written), 3 non-convergence,
4 infeasible target.
All geometry lives in the library; the commands only compose it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import delaunay, solver, transition
from .errors import (
    BadParameters,
    DDCEError,
    Infeasible,
    LineSearchStalled,
    MaxIterations,
    NonInvolution,
    DisconnectedSurface,
)
from .metric import DecoratedMetric, lambda_lengths, validate
from .surface import Triangulation, parse_half_edge_label
from .trig import Background

EXIT_OK = 0
EXIT_INVALID_METRIC = 1
EXIT_PARSE_ERROR = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INFEASIBLE = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# -- writing ----------------------------------------------------------------------

def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        raise CliError(EXIT_PARSE_ERROR, f"cannot write {path}: {ex}")


def write_surface_file(path, m: DecoratedMetric, extra=None):
    _write_text(path, surface_file_text(m, extra))


def _table(key, labels, values):
    rows = (f'    "{label}": {format(float(v), ".17g")}' for label, v in zip(labels, values))
    return f'  "{key}": {{\n' + ",\n".join(rows) + "\n  }"


def surface_file_text(m: DecoratedMetric, extra=None) -> str:
    """The file of ``m`` in its fixed layout: background, faces, one
    gluing pair per line, then the lengths, the radii and each
    per-vertex ``extra`` table, in edge and vertex order."""
    tri = m.triangulation
    vertex_labels = [tri.vertex_label(v) for v in range(tri.vertex_count)]
    gluing = ",\n".join(f"    [[{f}, {s}], [{g}, {t}]]" for (f, s), (g, t) in tri.edges)
    parts = [
        f'  "background": "{m.background.name_lower}"',
        f'  "faces": {tri.face_count}',
        f'  "gluing": [\n{gluing}\n  ]',
        _table("lengths", [tri.edge_label(e) for e in range(tri.edge_count)], m.lengths),
        _table("radii", vertex_labels, m.radii),
    ]
    parts += [_table(key, vertex_labels, values) for key, values in (extra or {}).items()]
    return "{\n" + ",\n".join(parts) + "\n}\n"


# -- reading ----------------------------------------------------------------------

def _label_table(tri, mapping, what, kind="vertex"):
    """Values of a table keyed by the labels of every vertex (or, with
    ``kind="edge"``, every edge) of ``tri``, in id order."""
    if not isinstance(mapping, dict):
        raise CliError(EXIT_PARSE_ERROR, f"{what} must be an object")
    if kind == "vertex":
        index, count, label_of = tri.vertex_index, tri.vertex_count, tri.vertex_label
    else:
        index, count, label_of = tri.edge_index, tri.edge_count, tri.edge_label
    values = np.zeros(count)
    seen = set()
    for label, value in mapping.items():
        try:
            k = index[parse_half_edge_label(label)]
        except (KeyError, ValueError):
            raise CliError(EXIT_PARSE_ERROR, f"{what}: unknown {kind} label {label!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CliError(EXIT_PARSE_ERROR, f"{what}[{label}]: not a number")
        try:
            values[k] = float(value)
        except OverflowError:  # an int literal beyond the float range
            raise CliError(EXIT_PARSE_ERROR, f"{what}[{label}]: integer too large for a float") from None
        seen.add(k)
    missing = set(range(count)) - seen
    if missing:
        labels = sorted(label_of(k) for k in missing)
        raise CliError(EXIT_PARSE_ERROR, f"{what}: missing {kind} labels {labels}")
    return values


def load_surface_file(path):
    """Parse and build (metric, extras).  Raises CliError with exit
    code 2 on any structural problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise CliError(EXIT_PARSE_ERROR, f"cannot read {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise CliError(EXIT_PARSE_ERROR, f"{path}: not valid JSON ({ex})")
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE_ERROR, f"{path}: top level is not an object")
    for key in ("background", "faces", "gluing", "lengths", "radii"):
        if key not in doc:
            raise CliError(EXIT_PARSE_ERROR, f"{path}: missing key {key!r}")
    try:
        background = Background.from_name(doc["background"])
    except ValueError as ex:
        raise CliError(EXIT_PARSE_ERROR, f"{path}: {ex}")
    if type(doc["faces"]) is not int or doc["faces"] <= 0:  # not a bool either
        raise CliError(EXIT_PARSE_ERROR, f"{path}: faces must be a positive integer")
    if not isinstance(doc["gluing"], list):
        raise CliError(EXIT_PARSE_ERROR, f"{path}: gluing must be a list")
    try:
        tri = Triangulation.build_from_gluing(doc["faces"], doc["gluing"])
    except (NonInvolution, DisconnectedSurface) as ex:
        raise CliError(EXIT_PARSE_ERROR, f"{path}: bad gluing ({ex})")

    lengths = _label_table(tri, doc["lengths"], f"{path}: lengths", "edge")
    radii = _label_table(tri, doc["radii"], f"{path}: radii")

    extras = {}
    for key in ("theta_target", "heights"):
        if key in doc:
            extras[key] = _label_table(tri, doc[key], f"{path}: {key}")
    metric = DecoratedMetric(tri, background, lengths, radii)
    return metric, extras


def _load_valid(path):
    metric, extras = load_surface_file(path)
    diagnostics = validate(metric)
    if diagnostics:
        for line in diagnostics:
            print(f"invalid: {line}")
        raise CliError(EXIT_INVALID_METRIC, f"{path}: metric is invalid")
    return metric, extras


# -- commands ---------------------------------------------------------------------

def cmd_validate(args) -> int:
    metric, _ = load_surface_file(args.path)
    diagnostics = validate(metric)
    if diagnostics:
        for line in diagnostics:
            print(f"invalid: {line}")
        return EXIT_INVALID_METRIC
    tri = metric.triangulation
    print(
        f"valid {metric.background.name_lower} metric: genus {tri.genus}, "
        f"{tri.vertex_count} vertices, {tri.edge_count} edges, {tri.face_count} faces"
    )
    return EXIT_OK


def cmd_delaunay(args) -> int:
    metric, extras = _load_valid(args.path)
    flipped, log = delaunay.flip_to_delaunay(metric)
    print(f"flips: {log.flip_count}")
    if log.initial_support_min is not None:
        print(f"support-min initial {format(log.initial_support_min, '.17g')}")
    for rec in log.records:
        line = f"flip {rec.edge_label} new-length {format(rec.new_length, '.17g')}"
        if rec.support_min is not None:
            line += f" support-min {format(rec.support_min, '.17g')}"
        print(line)
    if args.out:
        inverse = np.argsort(log.vertex_map)
        mapped = {key: np.asarray(values)[inverse] for key, values in extras.items()}
        write_surface_file(args.out, flipped, mapped)
    return EXIT_OK


def cmd_invariant(args) -> int:
    metric, _ = _load_valid(args.path)
    flipped, _ = delaunay.flip_to_delaunay(metric, track_support=False)
    inv = lambda_lengths(flipped)
    try:
        tess = delaunay.extract_tessellation(flipped, tol=args.tol)
    except BadParameters as ex:
        raise CliError(EXIT_PARSE_ERROR, f"--tol: {ex}")
    tri = flipped.triangulation
    for e in tess.kept_edges:
        print(f"edge {tri.edge_label(e)} lambda {format(float(inv.lam[e]), '.17g')}")
    for v in range(tri.vertex_count):
        print(f"vertex {tri.vertex_label(v)} eps {int(inv.eps[v])}")
    return EXIT_OK


def _parse_theta(args, metric, extras):
    tri = metric.triangulation
    if args.theta is None:
        if "theta_target" in extras:
            return extras["theta_target"]
        raise CliError(EXIT_PARSE_ERROR, "no --theta given and file has no theta_target")
    text = args.theta.strip().lower()
    if text.endswith("pi"):
        try:
            factor = float(text[:-2]) if text[:-2] else 1.0
            return np.full(tri.vertex_count, factor * math.pi)
        except ValueError:
            pass
    try:
        return np.full(tri.vertex_count, float(text))
    except ValueError:
        pass
    try:
        with open(args.theta, "r", encoding="utf-8") as fh:
            mapping = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise CliError(EXIT_PARSE_ERROR, f"--theta: not a number, 'Npi', or readable file ({ex})")
    if not isinstance(mapping, dict):
        raise CliError(EXIT_PARSE_ERROR, "--theta file: top level is not an object")
    return _label_table(tri, mapping, "--theta file")


def cmd_solve(args) -> int:
    metric, extras = _load_valid(args.path)
    theta = _parse_theta(args, metric, extras)
    try:
        solved, report = solver.newton_solve(metric, theta, tol=args.tol, max_iter=args.max_iter)
    except BadParameters as ex:
        raise CliError(EXIT_PARSE_ERROR, str(ex))
    except Infeasible as ex:
        print(f"infeasible: {ex}")
        return EXIT_INFEASIBLE
    except (MaxIterations, LineSearchStalled) as ex:
        print(f"not converged: {ex}")
        for k, res in enumerate(ex.report.residuals):
            print(f"iteration {k} residual {format(res, '.17g')}")
        return EXIT_NO_CONVERGENCE
    print(f"converged in {report.iterations} iterations ({report.flips_initial} initial flips)")
    for k, res in enumerate(report.residuals):
        print(f"iteration {k} residual {format(res, '.17g')}")
    for k, (flips, gain) in enumerate(zip(report.flips_per_iteration, report.functional_increase_bounds)):
        print(f"step {k} flips {flips} functional-increase-at-least {format(gain, '.17g')}")
    if args.out:
        write_surface_file(args.out, solved)
    return EXIT_OK


def cmd_transition(args) -> int:
    metric, _ = _load_valid(args.path)
    if metric.background is Background.EUCLIDEAN:
        print("transition: input is already Euclidean")
        return EXIT_INVALID_METRIC
    try:
        ts = [float(t) for t in args.t_list.split(",") if t.strip()]
    except ValueError:
        raise CliError(EXIT_PARSE_ERROR, f"--t-list: cannot parse {args.t_list!r}")
    try:
        path = transition.build_transition(metric, ts)
    except BadParameters as ex:
        raise CliError(EXIT_PARSE_ERROR, f"--t-list: {ex}")
    lines = ["t,max_angle_defect,max_weight_deviation"]
    for row in path.rows:
        lines.append(
            f"{format(row.t, '.17g')},{format(row.max_angle_defect, '.17g')},"
            f"{format(row.max_weight_deviation, '.17g')}"
        )
    csv_text = "\n".join(lines) + "\n"
    if args.out_prefix:
        for k, (t, mt) in enumerate(zip(path.ts, path.metrics)):
            write_surface_file(f"{args.out_prefix}_t{format(t, 'g')}.json", mt)
        write_surface_file(f"{args.out_prefix}_limit.json", path.euclidean_metric)
        _write_text(f"{args.out_prefix}_diagnostics.csv", csv_text)
    sys.stdout.write(csv_text)
    return EXIT_OK


# -- entry point ------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("path", help="surface file (JSON)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse
    costs more to build than most commands take to run."""
    parser = argparse.ArgumentParser(
        prog="ddce",
        description="decorated discrete conformal equivalence toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a surface file")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("delaunay", help="flip to a weighted Delaunay triangulation")
    _add_common(p)
    p.add_argument("--out", help="write the flipped metric here")
    p.set_defaults(func=cmd_delaunay)

    p = sub.add_parser("invariant", help="print the lambda-length table")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-9, help="tessellation weight tolerance")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("solve", help="solve the prescribed cone-angle problem")
    _add_common(p)
    p.add_argument("--theta", help="constant (e.g. 2pi or 6.28), or a JSON file per vertex")
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance (sup norm)")
    p.add_argument("--max-iter", type=int, default=50, help="Newton step cap")
    p.add_argument("--out", help="write the solved metric here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("transition", help="sample the transition family toward Euclidean")
    _add_common(p)
    p.add_argument("--t-list", default="1,10,100,1000,10000", help="comma-separated parameters")
    p.add_argument("--out-prefix", help="write per-t metrics and diagnostics CSV here")
    p.set_defaults(func=cmd_transition)
    return parser


def main(argv=None) -> int:
    """Run one command; with ``argv`` given, return its exit code (a
    usage error and ``--help`` included), else exit with it."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
    except SystemExit as ex:  # argparse: 2 on a usage error, 0 after --help
        code = ex.code
    except CliError as ex:
        print(f"error: {ex}", file=sys.stderr)
        code = ex.code
    except DDCEError as ex:
        print(f"error: {ex}", file=sys.stderr)
        code = EXIT_INVALID_METRIC
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
