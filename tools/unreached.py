"""List the lines of ``src/ddce`` that tier-1 never runs.

    python3 tools/unreached.py [PYTEST ARGS...]

runs tier-1 (``pytest -q`` from the repository root with ``src`` on
``PYTHONPATH``, and any extra arguments) in this process under a
``sys.settrace`` line tracer that records the lines run in
``src/ddce``, imports included; the tests' subprocesses run untraced.
Then it prints ``path:line: source`` for every line of a ``src/ddce``
code object (``co_lines``) that never ran, then their count, and exits
with pytest's status.  It needs the standard library and pytest alone.
When ``GITHUB_STEP_SUMMARY`` names a file, the same listing is appended
to it.  Tracing every call makes tier-1 take about twice as long.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ddce"


def code_lines(path: Path) -> set:
    """The line numbers of every code object compiled from ``path``:
    the module, and every class body, function, lambda and
    comprehension in it."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def line_tracer(ran: dict):
    """A ``sys.settrace`` function that adds each line run in a file of
    ``ran`` (keyed by real path) to that file's set, and traces no
    other file."""
    by_name = {}  # co_filename -> its set in ran, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        seen = by_name[name]
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    return on_call


def main(args: list) -> int:
    import pytest

    files = sorted(PACKAGE.glob("*.py"))
    ran = {os.path.realpath(path): set() for path in files}
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the tests' subprocesses import ddce from src too, and run untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    tracer = line_tracer(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = []
    for path in files:
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(ROOT).as_posix()
        for line in sorted(code_lines(path) - ran[os.path.realpath(path)]):
            report.append(f"{name}:{line}: {source[line - 1].strip()}")
    report.append(f"src/ddce lines that tier-1 never runs: {len(report)}")
    print("\n".join(report))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write(f"### {report[-1]}\n\n```\n" + "\n".join(report[:-1]) + "\n```\n\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
