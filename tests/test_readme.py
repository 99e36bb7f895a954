"""The README's library example runs and prints what the README says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_commented_values():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["[1, 199, 3, 2, 5]", "4240820544 6368", "False"]
    assert lines[3:5] == ["False [6529]", "True"]
    assert lines[-2:] == ["(6529,)", "99.92%"]
