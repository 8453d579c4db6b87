"""The README's "Command line" section against the parser: its command table
lists exactly the commands `cli` dispatches, each with the grid that `cli`'s
command table declares, its usage line names exactly the parser's flags, and
its exit-code list names exactly the codes the error classes declare, so a
command, grid, flag or exit code cannot change without the docs. The `cli`
module docstring carries the same usage line and command list."""

import re
from pathlib import Path

from wavefield import cli, errors

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
    """(command, grid cell) rows of the table headed "| command | what it evaluates | grid |"."""
    lines = section[section.index("| command "):].splitlines()
    assert [cell.strip() for cell in lines[0].split("|")[1:-1]] == [
        "command", "what it evaluates", "grid"]
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.split("|")]
        rows.append((cells[1].strip("`"), cells[3]))
    return rows


def _grids(cell: str):
    """A grid cell as `cli._COMMANDS` states it: None for "ignored", else the
    `grid.param` values in order, None first for a leading "none"."""
    if cell == "ignored":
        return None
    return (None,) * cell.startswith("none") + tuple(re.findall(r"`(\w+)`", cell))


def test_readme_command_table_lists_exactly_the_commands():
    names = [name for name, _ in _command_table(_section())]
    assert len(names) == len(set(names))
    assert set(names) == set(cli._COMMANDS)


def test_readme_grid_column_is_the_command_table():
    assert {name: _grids(cell) for name, cell in _command_table(_section())} \
        == {name: grids for name, (_, grids) in cli._COMMANDS.items()}


def test_readme_exit_codes_are_those_the_error_classes_declare():
    text = _section()
    start = text.index("\nExit codes")
    listed = re.findall(r"^- (\d): ", text[start:text.index("\n\nNo config", start)],
                        flags=re.MULTILINE)
    declared = {cls.exit_code for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.WavefieldError)}
    assert [int(code) for code in listed] == [0, *sorted(declared)]


def test_readme_usage_line_names_exactly_the_flags():
    assert set(re.findall(r"--[\w-]+", _usage(_section()))) == _flags()


def test_cli_docstring_matches_the_readme():
    assert _usage(cli.__doc__) == _usage(_section())
    [listed] = re.findall(r"^Commands: (.*)\.$", cli.__doc__, flags=re.MULTILINE)
    assert listed.split(", ") == list(cli._COMMANDS)
