"""Spans recorded from outside the program, by wrapping its public
functions where their callers look them up.

Several names are imported into other modules (``solver``,
``transition`` and ``cli`` import ``decoration_from_heights``,
``lambda_lengths`` and ``validate`` by name), so a wrapper replaces the
function in every ``ddce`` module that holds it, not only in the module
that defines it.  Spans are kept in memory as flat arrays (name, start,
end, parent) and written out when the run ends.  The program has no
queues or threads, so no layer has waiting time to report.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

import numpy as np

import ddce
from ddce import cli, delaunay, metric, solver, surface, transition, trig
from ddce.errors import HeightsOutOfDomain

MODULES = (ddce, surface, trig, metric, delaunay, solver, transition, cli)

#: span name -> (owner, attribute); the owner is a module or a class
FUNCTIONS = {
    "surface.flip": (surface.Triangulation, "flip"),
    "surface.build_from_gluing": (surface.Triangulation, "build_from_gluing"),
    "trig.face_circle": (trig, "face_circle"),
    "trig.interior_angles": (trig, "interior_angles"),
    "trig.diagonal_length": (trig, "diagonal_length"),
    "metric.decoration_from_heights": (metric, "decoration_from_heights"),
    "metric.validate": (metric, "validate"),
    "metric.lambda_lengths": (metric, "lambda_lengths"),
    "delaunay.flip_to_delaunay": (delaunay, "flip_to_delaunay"),
    "delaunay.is_local_delaunay": (delaunay, "is_local_delaunay"),
    "delaunay.face_geometries": (delaunay, "face_geometries"),
    "delaunay.edge_weights": (delaunay, "edge_weights"),
    "delaunay.support_minimum": (delaunay, "support_minimum"),
    "solver.newton_solve": (solver, "newton_solve"),
    "solver.cone_angles": (solver, "cone_angles"),
    "solver.angle_jacobian": (solver, "angle_jacobian"),
    "transition.build_transition": (transition, "build_transition"),
    "transition.scale_family": (transition, "scale_family"),
    "cli.main": (cli, "main"),
    "cli.load_surface_file": (cli, "load_surface_file"),
    "cli.surface_file_text": (cli, "surface_file_text"),
}
#: numpy's dense solvers, counted only while ``newton_solve`` runs
LINEAR_SOLVE = "solver.linear_solve"
SPAN_NAMES = tuple(FUNCTIONS) + (LINEAR_SOLVE,)


class Tracer:
    """Span recorder.  ``install`` swaps the wrappers in and ``uninstall``
    restores every original; spans are recorded only while ``active``,
    so the benchmark's own checks never count as program work."""

    def __init__(self):
        self.active = False
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self._solves_open = 0
        # counters read from FlipLog, SolveReport and raised exceptions
        self.flips = 0
        self.sweeps = 0
        self.iterations = 0
        self.reflips = 0
        self.rejected = 0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name_id):
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        name_id = SPAN_NAMES.index(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                tracer._observe_error(name, ex)
                raise
            finally:
                tracer._exit(idx)
            tracer._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_linear_solve(self, fn):
        name_id = SPAN_NAMES.index(LINEAR_SOLVE)
        tracer = self

        def wrapper(*args, **kwargs):
            if not (tracer.active and tracer._solves_open):
                return fn(*args, **kwargs)
            idx = tracer._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        return wrapper

    def _observe(self, name, result):
        if name == "delaunay.flip_to_delaunay":
            log = result[1]
            self.flips += log.flip_count
            self.sweeps += log.sweeps
        elif name == "solver.newton_solve":
            self._observe_report(result[1])

    def _observe_error(self, name, ex):
        if name == "metric.decoration_from_heights" and isinstance(ex, HeightsOutOfDomain):
            self.rejected += 1
        elif name == "solver.newton_solve" and getattr(ex, "report", None) is not None:
            self._observe_report(ex.report)

    def _observe_report(self, report):
        self.iterations += report.iterations
        self.reflips += sum(report.flips_per_iteration)

    # -- installation ------------------------------------------------------

    def install(self):
        for name, (owner, attr) in FUNCTIONS.items():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = self._wrap(name, raw.__func__)
                    self._swap(owner, attr, classmethod(wrapped))
                else:
                    self._swap(owner, attr, self._wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if name == "solver.newton_solve":
                wrapped = self._count_open_solves(wrapped)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapped)
        for attr in ("solve", "lstsq"):
            self._swap(np.linalg, attr, self._wrap_linear_solve(getattr(np.linalg, attr)))

    def _count_open_solves(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._solves_open += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._solves_open -= 1

        return wrapper

    def _swap(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        return {
            "flips": self.flips,
            "sweeps": self.sweeps,
            "iterations": self.iterations,
            "reflips": self.reflips,
            "rejected": self.rejected,
        }

    def span_totals(self) -> dict:
        """Per span name: call count and self seconds.  Self time is a
        span's duration minus the time its child spans cover."""
        n = len(self.starts)
        dur = np.frombuffer(self.ends, dtype=float)[:n] - np.frombuffer(self.starts, dtype=float)[:n]
        names = np.frombuffer(self.names, dtype=np.int32)[:n]
        parents = np.frombuffer(self.parents, dtype=np.int32)[:n]
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        self_s = np.bincount(names, weights=self_time, minlength=len(SPAN_NAMES))
        return {
            name: {"calls": int(calls[k]), "self_s": float(self_s[k])}
            for k, name in enumerate(SPAN_NAMES)
        }

    def reset(self):
        """Drop recorded spans and counters (between traced passes)."""
        if self._stack:
            raise RuntimeError("reset while spans are open")
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]
        self.flips = self.sweeps = self.iterations = self.reflips = self.rejected = 0

    def write(self, path):
        """Write the recorded spans as gzipped JSON (times in ns from the
        first span)."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        doc = {
            "span_names": list(SPAN_NAMES),
            "name": list(self.names),
            "parent": list(self.parents),
            "start_ns": [round((t - t0) * 1e9) for t in self.starts],
            "end_ns": [round((t - t0) * 1e9) for t in self.ends],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
