"""The README's examples run as written: the Library block executes, every
`solab` line of the Command line block resolves its plan with exit 0, and so
does its example config file."""

import re
import shlex
from pathlib import Path

import pytest

from solab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first fenced block of the language under the level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _commands():
    """The block's solab lines, continuations joined and comments dropped."""
    text = _block("Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


COMMANDS = _commands()


def test_command_line_block_lists_every_example():
    assert len(COMMANDS) == 11
    assert all(argv[0] == "solab" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[:2]) for argv in COMMANDS])
def test_command_line_example_resolves(argv, capsys):
    assert main([*argv[1:], "--dry-run"]) == 0
    assert capsys.readouterr().err == ""


def test_config_example_resolves(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(_block("Command line", "json"), encoding="utf-8")
    assert main(["report", "--config", str(path), "--dry-run"]) == 0
    assert capsys.readouterr().err == ""


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
