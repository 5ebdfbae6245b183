"""The README's Python examples run as written and print what they say.

Every fenced ``python`` block runs in order in one namespace.  A line
``print(...)  # text`` must print exactly ``text``.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_and_print_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, f"README.md python block {i}", "exec"),
                 namespace)
        said = re.findall(r"^print\(.*\)[ \t]+# (.*)$", block, flags=re.M)
        assert out.getvalue().splitlines() == said
