"""The README's "Command line" section against the parser: its command table
lists exactly the commands `cli` dispatches, and its usage line names exactly
the parser's flags, so a command or flag cannot change without the docs. The
`cli` module docstring carries the same usage line and command list."""

import re
from pathlib import Path

from wavefield import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section() -> str:
    text = README.read_text()
    start = text.index("\n## Command line\n")
    return text[start:text.index("\n## ", start + 1)]


def _usage(text: str) -> str:
    [line] = [line.strip() for line in text.splitlines()
              if line.strip().startswith("wavefield <command>")]
    return line


def _flags() -> set:
    return {flag for action in cli._build_parser()._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


def _command_table(section: str) -> list:
    """First-column names of the table headed "| command | what it evaluates |"."""
    lines = section[section.index("| command "):].splitlines()
    assert "what it evaluates" in lines[0]
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    return rows


def test_readme_command_table_lists_exactly_the_commands():
    table = _command_table(_section())
    assert len(table) == len(set(table))
    assert set(table) == set(cli._HANDLERS)


def test_readme_usage_line_names_exactly_the_flags():
    assert set(re.findall(r"--[\w-]+", _usage(_section()))) == _flags()


def test_cli_docstring_matches_the_readme():
    assert _usage(cli.__doc__) == _usage(_section())
    [listed] = re.findall(r"^Commands: (.*)\.$", cli.__doc__, flags=re.MULTILINE)
    assert listed.split(", ") == list(cli._HANDLERS)
