"""The README's examples run as written, so they cannot drift from the code."""

import contextlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_example_runs():
    section = README[README.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md (Library example)", "exec"), {})
    assert out.getvalue().strip()
