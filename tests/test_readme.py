"""Every `sieved-ops` example in README.md's sh blocks runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from sievedops.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    """The `sieved-ops` lines of the sh blocks, trailing comments stripped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [shlex.split(line, comments=True)
            for block in blocks for line in block.splitlines()
            if line.startswith("sieved-ops ")]


def test_readme_has_examples():
    assert len(readme_commands()) >= 11


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""
