"""Count the code lines of ``src/ddce``: the lines of its ``*.py`` files
that are not blank, not ``#`` comments and not inside a module, class
or function docstring.

    python3 tools/code_lines.py [ROOT]

prints ``src/ddce code lines: N`` with one line per file, counted under
ROOT (default: the repository this script lives in).  When
``GITHUB_STEP_SUMMARY`` names a file, the same figures are appended to
it as a table.
"""

import ast
import os
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by the docstrings of the module and of every
    class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(root: Path) -> None:
    counts = {path.name: code_lines(path) for path in sorted((root / "src" / "ddce").glob("*.py"))}
    total = sum(counts.values())
    print(f"src/ddce code lines: {total}")
    for name, n in counts.items():
        print(f"  {name}: {n}")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write(f"### `src/ddce` code lines: {total}\n\n| file | code lines |\n|---|---|\n")
            out.writelines(f"| `{name}` | {n} |\n" for name, n in counts.items())
            out.write("\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
