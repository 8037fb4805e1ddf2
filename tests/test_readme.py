"""The README's "Library use" example runs as written."""

import contextlib
import io
import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _library_use_block() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library use section has one python block"
    return blocks[0]


def test_library_use_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_use_block(), README, "exec"), {})
    values = out.getvalue().split()
    assert len(values) == 5
    err, omega, lower, upper = map(float, values[:4])
    assert all(math.isfinite(v) for v in (err, omega, lower, upper))
    assert lower <= upper
