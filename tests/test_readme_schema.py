"""The README's "Config schema" section against the code: its JSON example sets
exactly the `eval` keys of `green.EVAL_INPUTS` and the `field` keys of
`FieldConfig`, and its profile-kind bullets name exactly the kinds of
`fields._PROFILE_KINDS` with their parameters in order, so a key cannot be
added in one place only."""

import dataclasses
import json
import re
from pathlib import Path

from wavefield.cli import parse_config
from wavefield.fields import _PROFILE_KINDS, FieldConfig
from wavefield.green import EVAL_INPUTS

README = Path(__file__).resolve().parents[1] / "README.md"


def _section() -> str:
    text = README.read_text()
    start = text.index("\n### Config schema\n")
    return text[start:text.index("\n### ", start + 1)]


def _example() -> dict:
    [block] = re.findall(r"```json\n(.*?)```", _section(), flags=re.DOTALL)
    return json.loads(block)


def _kind_bullets() -> dict:
    """kind -> the parameters its bullet names before any parenthesis, in order."""
    kinds = {}
    for line in _section().splitlines():
        match = re.match(r"- `(\w+)`(?::(.*))?$", line)
        if match:
            named = re.findall(r"`([^`]+)`", (match.group(2) or "").split("(")[0])
            kinds[match.group(1)] = tuple(token.split()[0] for token in named)
    return kinds


def test_readme_example_sets_exactly_the_eval_inputs():
    assert list(_example()["eval"]) == list(EVAL_INPUTS)


def test_readme_example_sets_exactly_the_field_config_keys():
    assert set(_example()["field"]) == {f.name for f in dataclasses.fields(FieldConfig)} \
        == {"g", "B", "profile"}


def test_readme_example_is_a_valid_config():
    assert parse_config(json.dumps(_example())).grid_param == "pL3"


def test_readme_profile_bullets_name_exactly_the_kinds_and_their_parameters():
    assert _kind_bullets() == {kind: names for kind, (_, names) in _PROFILE_KINDS.items()}
