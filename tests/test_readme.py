"""The README's library examples must run, and its command lines parse, as printed."""

import re
import shlex
from pathlib import Path

from optrees.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README lost its library example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("optrees ")]
    assert lines, "README lost its command-line block"
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
