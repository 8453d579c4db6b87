"""Every config value is checked once, by `fields._real`, the check the
library constructors apply themselves: the CLI accepts a value exactly when
the constructor behind its slot does, names the value's JSON path when it
does not, and exits 2 for any config it cannot read. Whatever JSON value one
slot of a valid config holds, `parse_config` raises only the package's own
errors and `main` exits with a documented code."""

import copy
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefield.cli import main, parse_config
from wavefield.errors import WavefieldError
from wavefield.fields import FieldConfig, PulseProfile, TabulatedProfile
from wavefield.green import EvalContext

_PHI = [-2.0 + 0.5 * i for i in range(9)]

#: A valid config that sets every optional key, with a one-point grid.
VALID = {
    "field": {"g": 0.9, "B": 0.5,
              "profile": {"kind": "pulse", "amplitude": 0.4, "frequency": 1.1, "sigma": 1.5}},
    "eval": {"m": 0.8, "x_a": [0.1, -0.2, 0.3, 0.0], "x_b": [0.6, 0.4, -0.1, 0.5],
             "pL": [0.0, 0.0, 0.2, 2.0], "theta": math.pi / 2.0, "abs_tol": 1e-10,
             "rel_tol": 1e-8},
    "grid": {"param": "pL3", "values": [2.0]},
}
TABULATED = {"kind": "tabulated", "phi": _PHI, "a1": [0.1 * p for p in _PHI],
             "a2": [0.0] * len(_PHI)}


def _vector(key: str, i: int, value) -> dict:
    return {key: [value if j == i else x for j, x in enumerate(VALID["eval"][key])]}


_EVAL = {key: VALID["eval"][key] for key in ("m", "x_a", "x_b", "pL")}
_PULSE = {k: v for k, v in VALID["field"]["profile"].items() if k != "kind"}

#: Each numeric slot of the config: its path (JSON keys and indexes) and the
#: library constructor that receives the value in that slot.
NUMERIC_SLOTS = {
    "field.g": (("field", "g"), lambda v: FieldConfig(g=v, B=0.5)),
    "field.B": (("field", "B"), lambda v: FieldConfig(g=0.9, B=v)),
    "field.profile.amplitude": (("field", "profile", "amplitude"),
                                lambda v: PulseProfile(**{**_PULSE, "amplitude": v})),
    "field.profile.frequency": (("field", "profile", "frequency"),
                                lambda v: PulseProfile(**{**_PULSE, "frequency": v})),
    "field.profile.sigma": (("field", "profile", "sigma"),
                            lambda v: PulseProfile(**{**_PULSE, "sigma": v})),
    "field.profile.a1[2]": (("field", "profile", "a1", 2), lambda v: TabulatedProfile(
        TABULATED["phi"], [v if i == 2 else a for i, a in enumerate(TABULATED["a1"])],
        TABULATED["a2"])),
    **{f"eval.{key}": (("eval", key), lambda v, key=key: EvalContext(
        **{**_EVAL, key: v}, cfg=FieldConfig(g=0.9, B=0.5)))
       for key in ("m", "theta", "abs_tol", "rel_tol")},
    **{f"eval.{key}[{i}]": (("eval", key, i), lambda v, key=key, i=i: EvalContext(
        **{**_EVAL, **_vector(key, i, v)}, cfg=FieldConfig(g=0.9, B=0.5)))
       for key in ("x_a", "x_b", "pL") for i in range(4)},
    "grid.values[0]": (("grid", "values", 0), lambda v: EvalContext(
        **{**_EVAL, **_vector("pL", 3, v)}, cfg=FieldConfig(g=0.9, B=0.5))),
}

#: Every path a value can be put at: the numeric slots, and the blocks,
#: vectors and strings that hold them.
SLOTS = [path for path, _ in NUMERIC_SLOTS.values()] + [
    (), ("field",), ("field", "profile"), ("field", "profile", "kind"), ("field", "profile", "a1"),
    ("eval",), ("eval", "x_a"), ("eval", "pL"), ("grid",), ("grid", "param"),
    ("grid", "values")]


def _config(*changes, base=VALID):
    """`base` (the tabulated profile for its own slots) with the value of each
    (path, value) of `changes` at its path, in turn."""
    config = copy.deepcopy(base)
    if any(path[:3] == ("field", "profile", "a1") for path, _ in changes):
        config["field"]["profile"] = copy.deepcopy(TABULATED)
    for path, value in changes:
        if not path:
            return value
        holder = config
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
    return config


def _accepts(build) -> bool:
    try:
        build()
    except WavefieldError:
        return False
    return True


def _gf(directory: Path, content: bytes, command: str = "gf"):
    """(exit status, CSV path) of `gf`, or of `command`, on a config file
    holding `content`."""
    config_path, out = directory / "config.json", directory / "out.csv"
    config_path.write_bytes(content)
    return main([command, "--config", str(config_path), "--out", str(out)]), out


def _exits_as_documented(directory: Path, config, command: str = "gf") -> bool:
    """Whether `command` on `config` exits with a documented code."""
    # the CLI runs under the default warning filters: an overflow warns, it does not raise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        status, _ = _gf(directory, json.dumps(config).encode(), command)
    return status in (0, 2, 3, 4, 5)


@pytest.mark.parametrize("value", [2 ** 70, 10 ** 400, True, "1", None, float("nan"), 0.5, 3],
                         ids=["2**70", "10**400", "true", "text", "null", "nan", "0.5", "3"])
@pytest.mark.parametrize("slot", NUMERIC_SLOTS)
def test_the_cli_accepts_a_value_exactly_when_the_library_does(slot, value):
    path, build = NUMERIC_SLOTS[slot]
    text = json.dumps(_config((path, value)))
    assert _accepts(lambda: parse_config(text)) == _accepts(lambda: build(value))


@pytest.mark.parametrize("slot", ["field.g", "field.B", "eval.m", "eval.theta", "eval.abs_tol",
                                  "eval.rel_tol", "eval.x_a[1]", "eval.pL[3]", "grid.values[0]"])
def test_an_integer_too_large_for_a_float_exits_2_naming_its_path_once(tmp_path, capsys, slot):
    path, _ = NUMERIC_SLOTS[slot]
    status, out = _gf(tmp_path, json.dumps(_config((path, 10 ** 400))).encode())
    assert status == 2 and not out.exists()
    named = slot.split("[")[0] if slot.startswith("eval.") else slot    # a vector names itself
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: must be ") and err.count(named) == 1


@pytest.mark.parametrize("content", [b'{"field": \xff}', b'{"a":' * 100_000],
                         ids=["not-utf-8", "nested-100000-deep"])
def test_a_config_that_cannot_be_decoded_exits_2(tmp_path, capsys, content):
    status, out = _gf(tmp_path, content)
    assert status == 2 and not out.exists() and not Path(f"{out}.json").exists()
    assert capsys.readouterr().err.startswith("error: $: ")


def test_a_config_in_utf_16_is_read():
    text = json.dumps(VALID).encode("utf-16")
    assert parse_config(text).normalized() == parse_config(json.dumps(VALID)).normalized()


_SCALARS = (st.none() | st.booleans() | st.text(max_size=4) | st.floats()
            | st.integers(-10 ** 400, 10 ** 400) | st.sampled_from([2 ** 64, 2 ** 70, -10 ** 400]))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=5)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=10)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SLOTS), _JSON)
def test_any_json_value_in_any_slot_gives_a_package_error_or_a_documented_exit(
        tmp_path_factory, path, value):
    config = _config((path, value))
    try:
        parse_config(json.dumps(config))
    except WavefieldError:
        pass
    assert _exits_as_documented(tmp_path_factory.mktemp("slot"), config)


#: README's example config: the circular field at its endpoints, one grid point.
CIRCULAR = {**VALID, "field": {"g": 0.9, "B": 0.5, "profile": {
    "kind": "circular", "amplitude": 0.4, "frequency": 1.1}}}
_FAR = (("eval", "x_b"), [0.6, 0.4, -5.0, 5.0])
_NARROW = (("field", "profile"), {"kind": "pulse", "amplitude": 0.4, "frequency": 1.1,
                                  "sigma": 5e-324})


@pytest.mark.parametrize("command, changes", [
    ("gf", [_NARROW]), ("K", [_NARROW, (("grid",), {"param": "phi", "values": [-0.6]})]),
    ("gf", [(("field", "profile", "frequency"), 1e308), _FAR]), ("gf", [(("field", "B"), 1e308), _FAR])],
    ids=["gf-sigma-5e-324", "K-sigma-5e-324", "gf-frequency-1e308", "gf-B-1e308"])
def test_a_turn_count_past_the_largest_float_gives_a_documented_exit(tmp_path, command, changes):
    # 1/sigma or the rotation |beta| + frequency is inf, and so is the phase
    # pass's count of seeded panels: the pass runs unseeded
    assert _exits_as_documented(tmp_path, _config(*changes, base=CIRCULAR), command)


_EXTREMES = st.sampled_from([1e308, -1e308, 5e-324, 1e200])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([path for path, _ in NUMERIC_SLOTS.values()]),
                min_size=2, max_size=2, unique=True), _EXTREMES, _EXTREMES)
def test_extreme_values_in_two_slots_at_once_give_a_documented_exit(
        tmp_path_factory, paths, first, second):
    # an overflow may need two large values at once, as a frequency times a span
    config = _config((paths[0], first), (paths[1], second))
    assert _exits_as_documented(tmp_path_factory.mktemp("slots"), config)
