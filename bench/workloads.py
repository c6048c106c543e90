"""The four benchmark workloads and the checks behind ``failed``.

Each workload is a fixed batch of ops built from a seed.  An op is one
call of a public entry point of ``ddce`` on generated inputs; its check
recomputes what the output promises, and its digest lets a run compare
outputs across passes, across traced and untraced passes, and across
runs with the same seed.  NOTES.md gives the reason for each workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ddce import Background, Triangulation, cli, delaunay, solver, transition
from ddce import metric as me
from ddce.errors import DDCEError

import gen

#: transition parameters of the ``transition`` workload
TRANSITION_TS = (1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1e3, 1e4, 1e5)
#: Newton tolerance of the ``solve`` workload
SOLVE_TOL = 1e-10
#: smallest edge weight a solved metric may keep (weighted Delaunay)
WEIGHT_FLOOR = -1e-9
#: slack for the spherical support minimum, as in acceptance criterion 4
SUPPORT_SLACK = 1e-12


@dataclass
class Op:
    """One op of a batch.  ``run`` takes no arguments; ``check`` returns
    a list of problems (empty when the output is right); ``counts``
    returns the FlipLog/SolveReport figures of the output."""

    name: str
    run: object
    check: object
    digest: object
    counts: object = lambda out: {}
    shape: dict = field(default_factory=dict)
    known_failure: str = ""
    outdir: str = ""


def _shape(m) -> dict:
    tri = m.triangulation
    return {"V": tri.vertex_count, "E": tri.edge_count, "F": tri.face_count}


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _metric_parts(m) -> tuple:
    return (m.background.name, m.triangulation.edges, m.lengths, m.radii)


def _validated(m, what):
    bad = me.validate(m)
    if bad:
        raise RuntimeError(f"generated {what} is invalid: {bad[:3]}")
    return m


# -- solve ----------------------------------------------------------------------

def _solve_op(name, m, theta) -> Op:
    def run():
        return solver.newton_solve(m, theta, tol=SOLVE_TOL)

    def check(out):
        solved, report = out
        problems = []
        if not report.converged:
            problems.append("not converged")
        target = np.empty_like(theta)
        target[report.vertex_map] = theta
        residual = float(np.max(np.abs(solver.cone_angles(solved) - target)))
        if not residual <= SOLVE_TOL:
            problems.append(f"recomputed residual {residual:.3e} > {SOLVE_TOL}")
        w_min = float(np.min(delaunay.edge_weights(solved)))
        if not w_min >= WEIGHT_FLOOR:
            problems.append(f"edge weight {w_min:.3e} below {WEIGHT_FLOOR}")
        return problems

    def digest(out):
        solved, report = out
        return _hash(*_metric_parts(solved), report.iterations, report.residuals)

    def counts(out):
        report = out[1]
        return {
            "iterations": report.iterations,
            "flips_initial": report.flips_initial,
            "reflips": sum(report.flips_per_iteration),
        }

    return Op(name, run, check, digest, counts, _shape(m))


def solve_ops(rng) -> list:
    ops = []
    for n in (4, 5):
        m = _validated(gen.sheared_lattice_torus(n, Background.HYPERBOLIC, rng, 0.6), "torus")
        theta = gen.checkerboard_targets(rng, n, 0.55, 0.3, 0.03)
        ops.append(_solve_op(f"hyperbolic_torus_{n}x{n}", m, theta))
    for k in range(2):
        tri = Triangulation.genus_two_octagon()
        m = gen.heights_chart_metric(tri, Background.HYPERBOLIC, rng, heights=(0.9, 1.1))
        ops.append(_solve_op(f"genus2_octagon_{k}", m, np.array([2.0 * math.pi])))
    for k in range(2):
        m = _validated(gen.sheared_lattice_torus(4, Background.EUCLIDEAN, rng, 1.0), "torus")
        theta = gen.checkerboard_targets(rng, 4, 1.0, 0.3, 0.03, zero_mean=True)
        ops.append(_solve_op(f"euclidean_torus_4x4_{k}", m, theta))
    return ops


# -- flip -----------------------------------------------------------------------

def _flip_op(name, m) -> Op:
    spherical = m.background is Background.SPHERICAL

    def run():
        return delaunay.flip_to_delaunay(m)

    def check(out):
        flipped, log = out
        problems = []
        geoms = delaunay.face_geometries(flipped)
        stale = [
            e for e in range(flipped.triangulation.edge_count)
            if not delaunay.is_local_delaunay(flipped, e, geoms=geoms)
        ]
        if stale:
            problems.append(f"{len(stale)} edges not local Delaunay")
        if spherical:
            prev = log.initial_support_min
            for rec in log.records:
                if rec.support_min < prev - SUPPORT_SLACK:
                    problems.append(f"support minimum fell from {prev} to {rec.support_min}")
                    break
                prev = rec.support_min
        return problems

    def digest(out):
        flipped, log = out
        support = [r.support_min for r in log.records]
        return _hash(*_metric_parts(flipped), [r.edge_label for r in log.records], support)

    def counts(out):
        log = out[1]
        return {"flips": log.flip_count, "sweeps": log.sweeps}

    return Op(name, run, check, digest, counts, _shape(m))


def flip_ops(rng) -> list:
    ops = []
    for bg, scale in ((Background.EUCLIDEAN, 1.0), (Background.HYPERBOLIC, 0.6)):
        for n in (8, 12):
            m = _validated(gen.sheared_lattice_torus(n, bg, rng, scale), "torus")
            ops.append(_flip_op(f"{bg.name_lower}_torus_{n}x{n}", m))
    for n in (5, 6):
        m = _validated(gen.sheared_lattice_torus(n, Background.SPHERICAL, rng, 0.3), "torus")
        ops.append(_flip_op(f"spherical_torus_{n}x{n}", m))
    return ops


# -- transition -----------------------------------------------------------------

def _delaunay_heights_chart_metric(n, bg, rng, ideal_fraction, max_tries=50):
    """Heights-chart metric on the n x n grid torus, flipped to weighted
    Delaunay so that the timed transition does no flips.  A draw whose
    flips make non-adjacent vertex circles meet is redrawn: the package
    assumes such circles disjoint and does not check them."""
    tri = gen.grid_torus(n)
    for _ in range(max_tries):
        m = gen.heights_chart_metric(tri, bg, rng, ideal_fraction=ideal_fraction)
        try:
            flipped, _log = delaunay.flip_to_delaunay(m)
        except DDCEError:
            continue
        return _validated(flipped, "transition input")
    raise RuntimeError(f"no Delaunay heights-chart metric in {max_tries} tries")


def _transition_op(name, m) -> Op:
    def run():
        return transition.build_transition(m, TRANSITION_TS)

    def check(out):
        defects = [row.max_angle_defect for row in out.rows]
        if [row.t for row in out.rows] != list(TRANSITION_TS):
            return ["rows do not match the requested parameters"]
        for (t0, d0), (t1, d1) in zip(zip(TRANSITION_TS, defects), zip(TRANSITION_TS[1:], defects[1:])):
            if not d1 < d0:
                return [f"max_angle_defect does not decrease from t={t0:g} ({d0}) to t={t1:g} ({d1})"]
        return []

    def digest(out):
        rows = [(r.t, r.max_angle_defect, r.max_weight_deviation) for r in out.rows]
        return _hash(rows, *[mt.lengths for mt in out.metrics], *_metric_parts(out.euclidean_metric))

    return Op(name, run, check, digest, shape=_shape(m))


def transition_ops(rng) -> list:
    return [
        _transition_op(
            "hyperbolic_torus_12x12",
            _delaunay_heights_chart_metric(12, Background.HYPERBOLIC, rng, 0.2),
        ),
        _transition_op(
            "spherical_torus_10x10",
            _delaunay_heights_chart_metric(10, Background.SPHERICAL, rng, 0.0),
        ),
    ]


# -- cli ------------------------------------------------------------------------

#: documented exit codes that differ from 0 (README, ``ddce.cli``):
#: 4 for an infeasible target, 1 for a transition from a Euclidean input
EXPECTED_CODES = {
    ("double_tangent_hyperbolic", "solve"): 4,
    ("square_torus_cocircular", "transition"): 1,
    ("square_torus_pulled", "transition"): 1,
}
#: ops that fail at the time of writing; they are run and counted
#: as failed, never skipped
KNOWN_FAILURES = {
    ("double_tangent_hyperbolic", "transition"): (
        "tangency is documented as supported, but the heights round trip "
        "loses one ulp on tangent edges and the command exits 1 at t=1"
    ),
}


def _cli_op(fixture, command, argv, outdir) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    expected = EXPECTED_CODES.get((fixture, command), 0)

    def check(out):
        code = out[0]
        if code != expected:
            return [f"exit code {code}, documented {expected}: {out[2].strip()[:200]}"]
        return []

    def digest(out):
        files = sorted(os.listdir(outdir))
        contents = []
        for name in files:
            with open(os.path.join(outdir, name), "rb") as fh:
                contents.append(fh.read())
        return _hash(out[0], out[1], files, *contents)

    return Op(f"{command}:{fixture}", run, check, digest,
              known_failure=KNOWN_FAILURES.get((fixture, command), ""), outdir=outdir)


def cli_ops(rng, fixtures_dir, scratch_dir) -> list:
    """The 33 commands over the committed fixtures, in a seeded order.
    Every op writes into a directory of its own under ``scratch_dir``."""
    specs = []
    for path in sorted(os.listdir(fixtures_dir)):
        if not path.endswith(".json"):
            continue
        fixture = path[:-5]
        full = os.path.join(fixtures_dir, path)
        with open(full, encoding="utf-8") as fh:
            background = json.load(fh)["background"]
        specs += [
            (fixture, "validate", ["validate", full]),
            (fixture, "delaunay", ["delaunay", full, "--out", "{out}/flipped.json"]),
            (fixture, "invariant", ["invariant", full]),
            (fixture, "transition",
             ["transition", full, "--t-list", "1,10,100,1000", "--out-prefix", "{out}/tw"]),
        ]
        if background != "spherical":
            # spherical solves end in the documented stall after 0.5-1.2 s,
            # which times the stall rather than a solve
            specs.append(
                (fixture, "solve", ["solve", full, "--theta", "2pi", "--out", "{out}/solved.json"])
            )
    ops = []
    for k in rng.permutation(len(specs)):
        fixture, command, argv = specs[int(k)]
        outdir = os.path.join(scratch_dir, f"op{len(ops):02d}")
        os.makedirs(outdir, exist_ok=True)
        ops.append(_cli_op(fixture, command, [a.format(out=outdir) for a in argv], outdir))
    return ops


def clear_outputs(ops) -> None:
    """Remove the files cli ops wrote, so each pass starts empty."""
    for op in ops:
        if op.outdir:
            for name in os.listdir(op.outdir):
                os.remove(os.path.join(op.outdir, name))
