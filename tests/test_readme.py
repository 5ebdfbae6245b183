"""The README's examples run as written and print what they say.

Every fenced ``python`` block runs in order in one namespace.  A line
``print(...)  # text`` must print exactly ``text``.

A shell block of ``$ hypercolor ...`` commands runs too, in a fresh
directory, when each command either shows its output below it or
writes it with ``--out`` (no pipes or line continuations); the output
shown must be exactly what the command prints.
"""

import contextlib
import io
import re
from pathlib import Path

from hypercolor.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced(lang):
    """The line lists of the README's fenced blocks tagged lang."""
    blocks, inside = [], None
    for line in README.read_text().splitlines():
        if not line.startswith("```"):
            if inside is not None:
                blocks[-1].append(line)
        elif inside is None:
            inside = line[3:]
            blocks.append([])
        else:
            if inside != lang:
                blocks.pop()
            inside = None
    return blocks


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


def test_shell_blocks_print_what_they_show(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for block in _fenced(""):
        cmds = []  # (argv, lines shown below the command)
        for line in block:
            if line.startswith("$ "):
                cmds.append((line[2:].split(), []))
            elif cmds:
                cmds[-1][1].append(line)
        if not cmds or any(argv[0] != "hypercolor" or "|" in argv
                           or "\\" in argv or not (shown or "--out" in argv)
                           for argv, shown in cmds):
            continue
        for argv, shown in cmds:
            assert main(argv[1:]) == 0, argv
            assert capsys.readouterr().out.splitlines() == shown, argv
            ran.append(" ".join(argv))
    assert "hypercolor solve h.json --t 4" in ran
