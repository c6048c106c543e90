"""One shard of a benchmark run: build the inputs, repeat the batch, and
print the raw results as one JSON line.

    python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1> <scratch dir>

``run.py`` starts its shards one after another and merges them; see
NOTES.md for why a run is split over several processes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
OUT = ROOT / ".bench_out"


def build_ops(workload, seed, scratch):
    import numpy as np
    import workloads

    rng = np.random.default_rng(seed)
    if workload == "cli":
        return workloads.cli_ops(rng, str(FIXTURES), str(scratch))
    return {"solve": workloads.solve_ops, "flip": workloads.flip_ops,
            "transition": workloads.transition_ops}[workload](rng)


def run_pass(ops, tracer=None) -> list:
    """Run every op once, timed, and check its output."""
    import timing
    import workloads

    workloads.clear_outputs(ops)
    results = []
    for op in ops:
        def call(op=op):
            if tracer is not None:
                tracer.active = True
            try:
                return op.run(), None
            except Exception as ex:  # a failing op is counted, not fatal
                return None, ex
            finally:
                if tracer is not None:
                    tracer.active = False

        (out, error), sample = timing.timed(call)
        row = {"norm": sample.norm_s, "wall": sample.wall_s, "cpu": sample.cpu_s,
               "ref": sample.ref_s}
        if error is not None:
            row.update(problems=[f"raised {type(error).__name__}: {error}"],
                       digest=f"error:{type(error).__name__}", counts={})
        else:
            row.update(problems=op.check(out), digest=op.digest(out), counts=op.counts(out))
        results.append(row)
    return results


def shard(workload, seed, seconds, trace, scratch) -> dict:
    """Repeat the batch while at least half of another pass fits into
    ``seconds`` (at least once).  With ``trace``, untraced and traced
    passes alternate, so both see the same phases of the machine and
    ``trace_overhead`` compares like with like."""
    ops = build_ops(workload, seed, scratch)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    plain, traced, totals = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ops))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            totals.append([tracer.span_totals(), tracer.counters()])
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(plain) > seconds:
            break
    result = {
        "ops": [{"name": op.name, "shape": op.shape, "known_failure": op.known_failure}
                for op in ops],
        "passes": plain,
        "traced": traced,
        "spans": totals,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans_per_pass"] = len(tracer.starts)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.json.gz")
    return result


def main(argv) -> int:
    workload, seed, seconds, trace, scratch = argv
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    print(json.dumps(shard(workload, int(seed), float(seconds), int(trace), Path(scratch))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
