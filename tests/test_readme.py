"""The README's library quick start runs as written.

Each ``print`` line of the block prints one line, and a comment on it gives
that line: the comment is the printed text, or the printed text followed by
``, `` and a remark.
"""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first Python block under the README's "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_its_comments_say():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints) > 0
    for line, got in zip(prints, printed):
        if "# " in line:
            comment = line.split("# ", 1)[1]
            assert comment == got or comment.startswith(got + ", "), (line, got)
