"""The README's minimal session runs against the current API."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_session_prints_unit_constants():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    alpha, beta = (float(word) for word in out.getvalue().split())
    assert abs(alpha - 1.0) <= 1e-12
    assert abs(beta - 1.0) <= 1e-12
