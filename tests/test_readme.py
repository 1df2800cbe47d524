"""The README's Python quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_start_runs():
    section = README.read_text().split("## Quick start (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # the block ends by printing each certified bound's kind first
    first_words = {line.split()[0] for line in out.getvalue().splitlines() if line}
    assert first_words & {"L1", "L2"}
