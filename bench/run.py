"""Benchmark of the ddce library pipelines and command line.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 24 --trace 0

Workloads: solve, flip, transition, cli (NOTES.md says why each).  Ops
run one at a time (a closed loop with one client).  The run is split
into ``SHARDS`` worker processes started one after another
(worker.py); each builds the inputs from the seed and repeats the
workload's fixed batch of ops for its share of ``--seconds``.  Every op
is timed against a reference probe (timing.py) and its output is
checked.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` the workers also wrap
the package's public functions (spans.py) and the run reports the
per-layer metrics instead.  A full run record, and the spans of a traced
run, are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = ROOT / ".bench_out"

WORKLOADS = ("solve", "flip", "transition", "cli")
#: worker processes per run; a process keeps a speed offset of its own
#: for its lifetime, so pooling several shrinks the run-to-run spread
SHARDS = 3
#: fresh-interpreter imports timed for ``setup_s`` before each shard
IMPORTS_PER_SHARD = 2

#: wrappers each workload is known to reach; a traced run in which one
#: of them never fires has lost a call site
REACHED = {
    "solve": {
        "surface.flip", "surface.build_from_gluing", "trig.face_circle",
        "trig.interior_angles", "trig.diagonal_length", "metric.decoration_from_heights",
        "metric.validate", "metric.lambda_lengths", "delaunay.flip_to_delaunay",
        "delaunay.is_local_delaunay", "delaunay.face_geometries", "solver.newton_solve",
        "solver.cone_angles", "solver.angle_jacobian", "solver.linear_solve",
    },
    "flip": {
        "surface.flip", "surface.build_from_gluing", "trig.face_circle",
        "trig.interior_angles", "trig.diagonal_length", "metric.validate",
        "delaunay.flip_to_delaunay", "delaunay.is_local_delaunay",
        "delaunay.face_geometries", "delaunay.support_minimum",
    },
    "transition": {
        "trig.face_circle", "trig.interior_angles", "metric.decoration_from_heights",
        "metric.validate", "metric.lambda_lengths", "delaunay.flip_to_delaunay",
        "delaunay.is_local_delaunay", "delaunay.face_geometries", "delaunay.edge_weights",
        "transition.build_transition", "transition.scale_family",
    },
    "cli": {
        "surface.flip", "surface.build_from_gluing", "trig.face_circle",
        "trig.interior_angles", "trig.diagonal_length", "metric.decoration_from_heights",
        "metric.validate", "metric.lambda_lengths", "delaunay.flip_to_delaunay",
        "delaunay.is_local_delaunay", "delaunay.face_geometries", "delaunay.edge_weights",
        "delaunay.support_minimum", "solver.newton_solve", "solver.cone_angles",
        "solver.angle_jacobian", "solver.linear_solve", "transition.build_transition",
        "transition.scale_family", "cli.main", "cli.load_surface_file",
        "cli.surface_file_text",
    },
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- measuring ------------------------------------------------------------------

def run_shard(args, scratch) -> dict:
    """Run one worker process and return its raw results."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
         repr(args.seconds / SHARDS), str(args.trace), str(scratch)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge(shards) -> dict:
    """Pool the passes of several shards."""
    return {
        "ops": shards[0]["ops"],
        "passes": [p for shard in shards for p in shard["passes"]],
        "traced": [p for shard in shards for p in shard["traced"]],
        "spans": [t for shard in shards for t in shard["spans"]],
        "rss_mb": max(shard["rss_mb"] for shard in shards),
        "spans_per_pass": shards[-1].get("spans_per_pass", 0),
    }


def measured_shards(args, scratch):
    """Run the shards, timing set-up between them: fresh-interpreter
    ``import ddce`` and input builds (generation and validation), both
    reference-normalised.  Spreading these samples over the run keeps a
    short slow phase from deciding ``setup_s``."""
    import timing
    import worker
    # importing here also writes the bytecode cache, which users do not
    # pay for on each run; the build samples then time generation only
    import workloads  # noqa: F401

    cmd = [sys.executable, "-c", "import ddce"]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def fresh_import():
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)

    imports, builds, shards = [], [], []
    for _ in range(SHARDS):
        imports += [timing.timed(fresh_import)[1].norm_s for _ in range(IMPORTS_PER_SHARD)]
        builds.append(timing.timed(worker.build_ops, args.workload, args.seed, scratch)[1].norm_s)
        shards.append(run_shard(args, scratch))
    return merge(shards), imports, builds


def op_medians(passes):
    """Each op's median normalised time across passes."""
    return [statistics.median(p[k]["norm"] for p in passes) for k in range(len(passes[0]))]


def batch_seconds(passes):
    """Time to complete the batch once: the sum of the op medians."""
    return sum(op_medians(passes))


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- correctness ----------------------------------------------------------------

def failures(ops, passes):
    """(failed count, unexpected problems) over every op of every pass."""
    failed, unexpected = 0, []
    for results in passes:
        for op, res in zip(ops, results):
            if res["problems"]:
                failed += 1
                if not op["known_failure"]:
                    unexpected.append(f"{op['name']}: {'; '.join(res['problems'])}")
    return failed, unexpected


def consistency(ops, passes):
    """Outputs and counts must repeat exactly across passes, which come
    from several processes (and, when traced, from traced passes too)."""
    first = passes[0]
    return [
        f"{op['name']}: output differs between passes"
        for results in passes[1:]
        for op, a, b in zip(ops, first, results)
        if (a["digest"], a["counts"]) != (b["digest"], b["counts"])
    ]


def code_fingerprint():
    """Hash of the package and benchmark sources: outputs of two runs
    are compared only when both ran the same code."""
    h = hashlib.sha256()
    for folder in (SRC / "ddce", HERE):
        for path in sorted(folder.glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def same_seed_check(workload, seed, ops, results):
    """Compare this run's outputs with the last run of the same seed
    and code in this checkout, and store them for the next one."""
    path = OUT / "digests" / f"{workload}-seed{seed}-{code_fingerprint()}.json"
    current = {op["name"]: [res["digest"], res["counts"]] for op, res in zip(ops, results)}
    if path.exists():
        previous = json.loads(path.read_text())
        return [f"{name}: output differs from an earlier run with the same seed"
                for name in current if previous.get(name) != current[name]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, sort_keys=True))
    return []


def trace_checks(workload, spans, counters, totals):
    problems = []
    calls = {name: v["calls"] for name, v in spans.items()}
    for other_spans, other_counters in totals[1:]:
        if {n: v["calls"] for n, v in other_spans.items()} != calls or other_counters != counters:
            problems.append("span counts differ between traced passes")
            break
    silent = sorted(n for n in REACHED[workload] if calls[n] == 0)
    if silent:
        problems.append(f"wrappers never fired: {silent}")
    if calls["surface.flip"] != counters["flips"]:
        problems.append(f"surface.flip fired {calls['surface.flip']} times, "
                        f"FlipLog.flip_count sums to {counters['flips']}")
    return problems


# -- reporting ------------------------------------------------------------------

def environment():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def raw_totals(passes):
    flat = [r for p in passes for r in p]
    return {
        "wall_s": sum(r["wall"] for r in flat),
        "cpu_s": sum(r["cpu"] for r in flat),
        "ref_s_median": statistics.median(r["ref"] for r in flat),
    }


def op_records(ops, passes):
    return [
        dict(op, counts=passes[0][k]["counts"], digest=passes[0][k]["digest"],
             problems=passes[0][k]["problems"],
             **{f"{key}_s": [p[k][key] for p in passes] for key in ("norm", "wall", "cpu", "ref")})
        for k, op in enumerate(ops)
    ]


def emit(record, metrics, problems, attempted, failed):
    """Print one line per metric with its sample count, then the result
    line, and write the run record."""
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    record.update(metrics=metrics, problems=problems, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, environment=environment())
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))


def end_to_end(args, scratch):
    run, imports, builds = measured_shards(args, scratch)
    setup_s = statistics.median(imports) + statistics.median(builds)
    ops, passes = run["ops"], run["passes"]
    failed, problems = failures(ops, passes)
    problems += consistency(ops, passes)
    problems += same_seed_check(args.workload, args.seed, ops, passes[0])
    medians = op_medians(passes)
    n = len(ops) * len(passes)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": len(imports) + len(builds)},
        "batch_s": {"value": sum(medians), "unit": "s", "samples": n},
        "op_p50_s": {"value": quantile(medians, 50), "unit": "s", "samples": n},
        "op_p90_s": {"value": quantile(medians, 90), "unit": "s", "samples": n},
        "peak_rss_mb": {"value": run["rss_mb"], "unit": "MB", "samples": SHARDS},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 0, "seconds": args.seconds,
        "shards": SHARDS, "passes": len(passes),
        "setup": {"import_norm_s": imports, "build_norm_s": builds},
        "raw": raw_totals(passes), "ops": op_records(ops, passes),
    }
    emit(record, metrics, problems, n, failed)


def per_layer(args, scratch):
    import spans as tracing

    run = merge([run_shard(args, scratch) for _ in range(SHARDS)])
    ops, plain, traced, totals = run["ops"], run["passes"], run["traced"], run["spans"]
    failed, problems = failures(ops, plain + traced)
    problems += consistency(ops, plain + traced)
    problems += same_seed_check(args.workload, args.seed, ops, plain[0])
    spans, counters = totals[0]
    problems += trace_checks(args.workload, spans, counters, totals)

    traced_time = sum(r["wall"] for p in traced for r in p)
    n = len(traced)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        share = sum(t[0][name]["self_s"] for t in totals) / traced_time
        metrics[f"{name}.calls"] = {"value": spans[name]["calls"], "unit": "count", "samples": n}
        metrics[f"{name}.self_share"] = {"value": share, "unit": "ratio", "samples": n}
    checks = spans["delaunay.is_local_delaunay"]["calls"]
    iterations = counters["iterations"]
    extra = {
        "metric.decoration_from_heights.rejected": (counters["rejected"], "count"),
        "delaunay.flips": (counters["flips"], "count"),
        "delaunay.sweeps": (counters["sweeps"], "count"),
        "delaunay.flip_yield": (counters["flips"] / checks if checks else 0.0, "ratio"),
        "solver.iterations": (iterations, "count"),
        "solver.reflips": (counters["reflips"], "count"),
        "solver.cone_angles.per_iteration": (
            spans["solver.cone_angles"]["calls"] / iterations if iterations else 0.0, "count"),
        "trace_overhead": (batch_seconds(traced) / batch_seconds(plain) - 1.0, "ratio"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit, "samples": n}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1, "seconds": args.seconds,
        "shards": SHARDS, "passes": {"untraced": len(plain), "traced": n},
        "spans_per_pass": run["spans_per_pass"],
        "raw": {"untraced": raw_totals(plain), "traced": raw_totals(traced)},
        "ops": op_records(ops, traced),
    }
    emit(record, metrics, problems, len(ops) * (len(plain) + n), failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddce" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no ddce sources under {SRC} (run from a repository checkout)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    scratch = OUT / "tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        (per_layer if args.trace else end_to_end)(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
