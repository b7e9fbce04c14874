"""The README's quick library example runs as written and prints the values
its comments state, so the document keeps up with the API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_library_example_prints_its_stated_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Quick library example.*?```python\n(.*?)```", text,
                      re.S).group(1)
    stated = re.findall(r"print\(.*\)\s+# (\d\.\d+)", block)
    assert stated == ["0.682099", "0.682689"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(stated)
    for value, prefix in zip(printed, stated):
        assert value.startswith(prefix), (value, prefix)
