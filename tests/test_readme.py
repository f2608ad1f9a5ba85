"""The README's library example runs as written.

The ``python`` block under "## Library example" in README.md is executed
as it stands and must print ``0 True``, the line its last comment
promises: the half-line shift is a pure shift, and its Wold split
stabilizes.
"""

import contextlib
import io
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The source of the first ``python`` block after the "## Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_example_prints_its_promised_line():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue() == "0 True\n"
