"""The examples in README.md run as shown."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from chordshapes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    """The text of the README section headed ``title``, up to the next
    heading of any level."""
    start = README.index(f"\n{title}\n") + len(title) + 2
    end = README.find("\n#", start)
    return README[start:] if end < 0 else README[start:end]


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", _section("## Library example"), re.S)
    with redirect_stdout(io.StringIO()) as out:
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue().splitlines()[1] == "1832"


def test_cli_examples_print_what_readme_shows(monkeypatch, capsys):
    block = re.search(r"```sh\n(.*?)```", _section("### Example"), re.S).group(1)
    examples = re.findall(
        r"^\$ printf '([^']*)' \| chordshapes (\w+)\n(.*?)(?:\n\n|\Z)",
        block,
        re.S | re.M,
    )
    assert [command for _, command, _ in examples] == ["genus", "shape"]
    for text, command, shown in examples:
        monkeypatch.setattr("sys.stdin", io.StringIO(text.replace("\\n", "\n")))
        assert main([command]) == 0
        assert capsys.readouterr().out == shown.rstrip("\n") + "\n"
