import argparse
import csv
import dataclasses
import functools
import gc
import json
import math
import os
import re
import subprocess
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavefield
from wavefield import cli, errors, green, verification
from wavefield.cli import (_matrix_columns, _matrix_row, main, parse_config, render_csv,
                          render_sidecar)
from wavefield.conventions import NODE_CAP, convention_ledger
from wavefield.errors import QuadratureFailure, RangeError, SchemaError
from wavefield.fields import CircularProfile, FieldConfig
from wavefield.green import EvalContext, green_function, spin_factor
from wavefield.kernels import near_caustic, phase_pass, schwinger_kernel
from wavefield.quadrature import adaptive_quad
from wavefield.verification import CheckResult


def _field(profile=None):
    if profile is None:
        profile = {"kind": "circular", "amplitude": 0.4, "frequency": 1.1}
    return {"g": 0.9, "B": 0.5, "profile": profile}


def _eval(**overrides):
    block = {"m": 0.8, "x_a": [0.1, -0.2, 0.3, 0.0], "x_b": [0.6, 0.4, -0.1, 0.5],
             "pL": [0.0, 0.0, 0.2, 2.0]}
    block.update(overrides)
    return block


def _config(**overrides):
    cfg = {"field": _field(), "eval": _eval()}
    cfg.update(overrides)
    return cfg


#: With this grid, `_config()` is the README's example config.
_README_GRID = {"param": "pL3", "values": [1.8, 1.9, 2.0]}


def _invoke(tmp_path, command, cfg, *extra, name="out.csv"):
    cfg_path = tmp_path / f"{name}.config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    status = main([command, "--config", str(cfg_path), "--out", str(out)] + list(extra))
    return status, out


def _rows(out_path):
    with open(out_path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_config_defaults():
    rc = parse_config(json.dumps(_config()))
    assert rc.ctx.theta == math.pi / 2.0
    assert rc.ctx.abs_tol == 1e-10 and rc.ctx.rel_tol == 1e-8
    assert rc.grid_param is None and rc.grid_values == ()
    assert rc.ctx.volkov_sign == +1
    assert isinstance(rc.ctx.cfg.profile, CircularProfile)


def test_parse_config_profile_as_plain_string():
    rc = parse_config(json.dumps({"field": _field(profile="zero"), "eval": _eval()}))
    assert rc.ctx.cfg.profile.is_zero


def test_schema_error_paths():
    cases = [
        ({"field": dict(_field(), Bmax=2.0), "eval": _eval()}, "field.Bmax"),
        ({"field": {"g": 0.9, "B": 0.5}, "eval": _eval()}, "field.profile"),
        ({"field": _field(), "eval": _eval(x_a=[0.0, 0.0])}, "eval.x_a"),
        ({"field": _field(), "eval": _eval(y0=[0.1, 0.2, 0.0, 0.0])}, "eval.y0"),
        ({"field": _field(), "eval": _eval(e0_max=60.0)}, "eval.e0_max"),
        (_config(grid={"param": "pL3", "values": [1.8, "two"]}), "grid.values[1]"),
        ({"field": _field(), "eval": _eval(m=float("nan"))}, "eval.m"),
        ({"field": dict(_field(), g=2 ** 70), "eval": _eval()}, "field.g"),
        ({"field": _field(), "eval": _eval(x_a=[0.1, False, 0.3, 0.0])}, "eval.x_a"),
        (_config(extra={}), "$.extra"),
        ({"eval": _eval()}, "field"),
    ]
    for cfg, path in cases:
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(cfg))
        assert err.value.path == path


def test_range_rejections(tmp_path, capsys):
    with pytest.raises(RangeError):
        parse_config(json.dumps({"field": _field(), "eval": _eval(theta=2.0)}))
    with pytest.raises(RangeError):
        parse_config(json.dumps(_config(grid={"param": "pL3", "values": [1.8, 2.2, 2.0]})))
    # a context out of range names the input's JSON path and its value
    cases = [({"theta": 2.0}, "eval.theta must lie in (0, pi/2], got 2.0"),
             ({"abs_tol": 0.0}, "eval.abs_tol must be positive, got 0.0"),
             ({"rel_tol": -1e-08}, "eval.rel_tol must be positive, got -1e-08"),
             ({"pL": [0.1, 0.0, 0.2, 2.0]},
              "eval.pL must be longitudinal (transverse slots zero), got [0.1, 0.0, 0.2, 2.0]")]
    for overrides, message in cases:
        status, out = _invoke(tmp_path, "gf", _config(eval=_eval(**overrides)))
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"
    # the same check on the flag names the flag
    for angle, got in (("2", "2.0"), ("0", "0.0")):
        status, out = _invoke(tmp_path, "gf", _config(), "--angle", angle)
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: --angle: theta must lie in (0, pi/2], got {got}\n"


def test_gf_grid_rows_and_frozen_header(tmp_path):
    grid = {"param": "pL3", "values": [1.8, 1.9, 2.0, 2.1, 2.2]}
    status, out = _invoke(tmp_path, "gf", _config(grid=grid))
    assert status == 0
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    expected = ["grid_value"]
    for i in range(4):
        for j in range(4):
            expected += [f"g{i}{j}_re", f"g{i}{j}_im"]
    expected += ["error_estimate", "nodes"]
    assert table[0] == expected
    assert len(table) == 6
    assert [row[0] for row in table[1:]] == [format(v, ".17g") for v in grid["values"]]


def test_gf_byte_determinism(tmp_path):
    grid = {"param": "xb0", "values": [0.5, 0.7, 0.9]}
    status1, out1 = _invoke(tmp_path, "gf", _config(grid=grid), name="a.csv")
    status2, out2 = _invoke(tmp_path, "gf", _config(grid=grid), name="b.csv")
    assert status1 == status2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert Path(str(out1) + ".json").read_bytes() == Path(str(out2) + ".json").read_bytes()


def test_zero_wave_vector_limit_is_an_input_not_a_command(tmp_path, capsys):
    # the limit is `gf` with "profile": "zero"; argparse refuses a `gf-k0` command
    with pytest.raises(SystemExit) as stop:
        _invoke(tmp_path, "gf-k0", _config())
    assert stop.value.code == 2
    assert "invalid choice: 'gf-k0'" in capsys.readouterr().err


#: Each error class and the exit code `main` returns for it: a class whose code
#: changes edits this pin.
_EXIT_CODE_OF = {
    errors.WavefieldError: 5, SchemaError: 2, RangeError: 2, errors.InvalidProfile: 2,
    errors.DivisionByZero: 3, errors.KernelSingularity: 3, errors.ResonantDenominator: 3,
    errors.SingularForm: 3, QuadratureFailure: 4, errors.StepCalibrationFailure: 4,
}


def test_the_exit_code_table_names_every_error_class():
    assert set(_EXIT_CODE_OF) == {cls for cls in vars(errors).values()
                                  if isinstance(cls, type) and issubclass(cls, errors.WavefieldError)}


@pytest.mark.parametrize("error", list(_EXIT_CODE_OF), ids=lambda cls: cls.__name__)
def test_an_error_exits_with_its_class_code(tmp_path, monkeypatch, capsys, error):
    def failing(rc):
        raise error("raised")

    monkeypatch.setitem(cli._COMMANDS, "gf", (failing, cli._COMMANDS["gf"][1]))
    status, out = _invoke(tmp_path, "gf", _config())
    assert status == error.exit_code == _EXIT_CODE_OF[error]
    assert not out.exists()
    assert capsys.readouterr().err == "error: raised\n"


def test_exit_code_schema(tmp_path):
    status, out = _invoke(tmp_path, "gf", _config(bogus=1))
    assert status == 2
    assert not out.exists()


def test_phase_origin_is_not_a_config_field(tmp_path, capsys):
    # the phase integrals start at dot(k, x_a); a pinned origin is an unknown field
    status, out = _invoke(tmp_path, "gf", _config(field=dict(_field(), phi0=0.0)))
    assert status == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: field.phi0: unknown field\n"


def test_unwritable_output_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_config()))
    out = tmp_path / "missing" / "out.csv"
    assert main(["gf", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("error:") == 1


def test_exit_code_singularity(tmp_path):
    cfg = _config(grid={"param": "e0", "values": [3.141592653589793]})
    cfg["field"] = {"g": 1.0, "B": 2.0, "profile": "zero"}
    status, _ = _invoke(tmp_path, "kernel", cfg)
    assert status == 3


def test_exit_code_quadrature(tmp_path):
    cfg = _config()
    cfg["eval"] = _eval(m=2.0, pL=[0.0, 0.0, 0.0, 1.0])
    status, _ = _invoke(tmp_path, "gf", cfg)
    assert status == 4


def test_quadrature_failure_reports_its_nodes_and_error(tmp_path, monkeypatch, capsys):
    # a node budget too small for the ray: the failure carries both figures
    monkeypatch.setattr(green, "adaptive_quad", functools.partial(adaptive_quad, node_cap=60))
    status, out = _invoke(tmp_path, "gf", _config())
    assert status == 4
    assert not out.exists()
    detail = re.search(r"after (\d+) nodes with error estimate (\S+)", capsys.readouterr().err)
    assert 0 < int(detail.group(1)) <= 60
    assert float(detail.group(2)) > 0.0


@pytest.mark.parametrize("angle", ["1e-200", "1e-300"])
def test_overflowing_error_estimate_exits_4(tmp_path, capsys, angle):
    # on a ray this close to the real axis the K15 - G7 norms overflow to inf;
    # inf <= inf used to read as converged and write G of about 1e197
    status, out = _invoke(tmp_path, "gf", _config(), "--angle", angle)
    assert status == 4
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: value norm inf or error estimate is not "
                                              "finite (error estimate inf)")


def test_nearly_real_ray_exhausts_the_node_budget(tmp_path, capsys):
    # a ray all but on the real axis runs past the kernel's caustics, which the
    # ray does not check for: the node budget ends it (exit 4, not 3)
    status, out = _invoke(tmp_path, "gf", _config(), "--angle", "1e-12")
    assert status == 4
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: node budget {NODE_CAP} exhausted")


def test_non_finite_field_values_exit_2(tmp_path):
    for key in ("g", "B"):
        cfg = _config()
        cfg["field"][key] = float("nan")
        status, out = _invoke(tmp_path, "gf", cfg, name=f"{key}.csv")
        assert status == 2
        assert not out.exists()


_GRID = [-2.0 + 0.25 * i for i in range(17)]


def _tabulated(**overrides):
    profile = {"kind": "tabulated", "phi": list(_GRID),
               "a1": [math.exp(-p * p) for p in _GRID], "a2": [0.0] * len(_GRID)}
    profile.update(overrides)
    return profile


@pytest.mark.parametrize("profile", [
    {"kind": "circular", "amplitude": "strong", "frequency": 1.1},
    _tabulated(phi=["start"] + _GRID[1:]),
    _tabulated(a1=[float("nan")] + [0.0] * (len(_GRID) - 1)),
    {"kind": "pulse", "amplitude": 0.4, "frequency": 1.1, "sigma": float("nan")},
    {"kind": "circular", "amplitude": float("inf"), "frequency": 1.1},
], ids=["text-amplitude", "text-in-phi", "nan-in-a1", "nan-sigma", "infinite-amplitude"])
def test_malformed_profile_parameters_exit_2(tmp_path, profile):
    status, out = _invoke(tmp_path, "gf", _config(field=_field(profile)))
    assert status == 2
    assert not out.exists()


_FAILED = CheckResult(criterion=1, name="clifford-algebra", max_deviation=1.0, tolerance=1e-14,
                      passed=False, detail="patched to fail")


@pytest.mark.parametrize("command, check, failing", [
    ("identities", "check_clifford_algebra", lambda: [_FAILED]),
    ("verify", "run_all", lambda: [_FAILED]),
    ("limits", "free_field_limit", lambda contexts: _FAILED),
], ids=["identities", "verify", "limits"])
def test_a_failed_check_table_exits_5(tmp_path, monkeypatch, capsys, command, check, failing):
    # the three check commands share one table and one verdict: a failed row
    # is written like any other, and `run` exits 5
    monkeypatch.setattr(verification, check, failing)
    status, out = _invoke(tmp_path, command, _config())
    assert status == 5
    failed = [row for row in _rows(out) if row["passed"] == "0"]
    assert failed == [{"criterion": "1", "name": "clifford-algebra", "max_deviation": "1",
                       "tolerance": "1e-14", "passed": "0", "detail": "patched to fail"}]
    sidecar = json.loads(Path(str(out) + ".json").read_text())
    assert sidecar["all_passed"] is False and "report" not in sidecar
    assert capsys.readouterr().err == f"error: {command} reported failures (see {out})\n"


@pytest.mark.parametrize("command", ["identities", "verify", "limits"])
def test_check_tables_state_each_check_result_once(tmp_path, command):
    # CheckResult's own fields head the table, detail included; the sidecar
    # adds only the verdict. Every row says in its detail what it compared
    status, out = _invoke(tmp_path, command, _config(grid=_README_GRID))
    assert status == 0
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == [f.name for f in dataclasses.fields(CheckResult)] == [
        "criterion", "name", "max_deviation", "tolerance", "passed", "detail"]
    assert [row[1] for row in table[1:] if not row[-1]] == []
    sidecar = json.loads(Path(str(out) + ".json").read_text())
    assert sidecar["rows"] == len(table) - 1 > 0
    assert sidecar["all_passed"] is True
    assert set(sidecar) == {"all_passed", "command", "config", "ledger", "package_version", "rows"}


def test_verify_fails_its_determinism_row_when_a_run_inside_it_fails(tmp_path, monkeypatch,
                                                                      capsys):
    # criterion 12 runs `gf` through the CLI: a failed run fails its row (exit
    # 5), it does not escape `main` as a traceback
    def failing(rc):
        raise QuadratureFailure("budget exhausted")

    monkeypatch.setitem(cli._COMMANDS, "gf", (failing, cli._COMMANDS["gf"][1]))
    status, out = _invoke(tmp_path, "verify", _config())
    assert status == 5
    failed = [row for row in _rows(out) if row["passed"] == "0"]
    assert [row["name"] for row in failed] == ["cli-output-bit-determinism"]
    assert float(failed[0]["max_deviation"]) == 1.0
    assert "gf exited with 4" in failed[0]["detail"]
    assert capsys.readouterr().err.endswith(f"error: verify reported failures (see {out})\n")


#: A config each command takes: the README's for all but those that need a grid of their own.
_COMMAND_CONFIGS = {
    "identities": _config(), "kernel": _config(grid={"param": "e0", "values": [0.5, 7.0]}),
    "K": _config(grid={"param": "phi", "values": [-0.3, 0.8]}),
    "spinfactor": _config(grid={"param": "e0", "values": [0.5, 7.0]}),
    "gf": _config(), "dirac": _config(), "verify": _config(), "limits": _config(),
}


@pytest.mark.parametrize("command", list(_COMMAND_CONFIGS))
def test_a_request_leaves_no_reference_cycle(tmp_path, command):
    # garbage that only the cyclic collector frees grows a long-running
    # process between collections; the collector is held off so that it
    # cannot hide a cycle by running during the request
    assert set(_COMMAND_CONFIGS) == set(cli._COMMANDS)
    cfg = _COMMAND_CONFIGS[command]
    assert _invoke(tmp_path, command, cfg, name="warm.csv")[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert _invoke(tmp_path, command, cfg)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("command, grid, message", [
    ("kernel", None, 'kernel takes one of ["e0"], got null'),
    ("kernel", {"param": "phi", "values": [0.1]}, 'kernel takes one of ["e0"], got "phi"'),
    ("K", {"param": "e0", "values": [0.1]}, 'K takes one of ["phi"], got "e0"'),
    ("spinfactor", None, 'spinfactor takes one of ["e0"], got null'),
    ("gf", {"param": "zeta", "values": [1.0]},
     'gf takes one of [null, "xb0", "xb1", "xb2", "xb3", "pL2", "pL3"], got "zeta"'),
    ("dirac", {"param": "e0", "values": [1.0]},
     'dirac takes one of [null, "xb0", "xb1", "xb2", "xb3", "pL2", "pL3"], got "e0"'),
], ids=["kernel-none", "kernel-phi", "K-e0", "spinfactor-none", "gf-zeta", "dirac-e0"])
def test_a_grid_the_command_does_not_take_exits_2(tmp_path, capsys, command, grid, message):
    # one check against the command table, one message for every command
    status, out = _invoke(tmp_path, command, _config(grid=grid))
    assert status == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: grid.param: {message}\n"


@pytest.mark.parametrize("command", ["identities", "verify", "limits"])
def test_check_commands_ignore_the_grid(tmp_path, command, monkeypatch):
    monkeypatch.setattr(verification, "run_all", verification.check_clifford_algebra)
    status, out = _invoke(tmp_path, command, _config(grid={"param": "zeta", "values": [1.0]}))
    assert status == 0
    assert _rows(out) and all(row["passed"] == "1" for row in _rows(out))


def test_kernel_rows_are_the_library_kernel(tmp_path):
    # 13.95 lies within NEAR_CAUSTIC_THRESHOLD of the caustic at 2 pi / (g B) = 13.96
    cfg = _config(grid={"param": "e0", "values": [0.5, 7.0, 13.95]})
    status, out = _invoke(tmp_path, "kernel", cfg)
    assert status == 0
    ctx = parse_config(json.dumps(cfg)).ctx
    e0 = np.array(cfg["grid"]["values"])
    values, flags = schwinger_kernel(e0, ctx.x_a, ctx.x_b, ctx.cfg), near_caustic(e0, ctx.cfg)
    assert flags.tolist() == [False, False, True]
    rows = _rows(out)
    assert list(rows[0]) == ["e0", "kernel_re", "kernel_im", "near_singularity"]
    assert [(float(row["e0"]), complex(float(row["kernel_re"]), float(row["kernel_im"])),
             row["near_singularity"]) for row in rows] \
        == [(e, v, "1" if flag else "0") for e, v, flag in zip(e0.tolist(), values, flags)]


def test_spinfactor_rows_are_the_library_braces(tmp_path):
    cfg = _config(grid={"param": "e0", "values": [0.5, 1.5, 4.0]})
    status, out = _invoke(tmp_path, "spinfactor", cfg)
    assert status == 0
    ctx = parse_config(json.dumps(cfg)).ctx
    factors = spin_factor(np.array(cfg["grid"]["values"]), ctx)
    rows = _rows(out)
    assert list(rows[0]) == ["e0", *_matrix_columns("sf")]
    assert len(rows) == 3
    for row, e0, factor in zip(rows, cfg["grid"]["values"], factors):
        assert float(row["e0"]) == e0
        cells = np.array([complex(float(row[f"sf{i}{j}_re"]), float(row[f"sf{i}{j}_im"]))
                          for i in range(4) for j in range(4)])
        assert np.array_equal(cells, factor.ravel())


def test_angle_override_lands_in_sidecar(tmp_path):
    status, out = _invoke(tmp_path, "gf", _config(), "--angle", "0.9")
    status2, plain = _invoke(tmp_path, "gf", _config(), name="plain.csv")
    assert status == status2 == 0
    sidecar = json.loads(Path(str(out) + ".json").read_text())
    assert sidecar["config"]["eval"]["theta"] == 0.9
    assert sidecar["rows"] == 1
    assert "timestamp" not in json.dumps(sidecar).lower()
    # the angle is stated once, under config: the ledger holds the fixed conventions
    assert sidecar["ledger"] == json.loads(Path(str(plain) + ".json").read_text())["ledger"]
    assert sidecar["ledger"] == convention_ledger()


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch):
    # the parser is built once per process; an --angle on one call must not
    # leak into the next through it
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    status, angled = _invoke(tmp_path, "gf", _config(), "--angle", "0.5", name="angled.csv")
    status2, plain = _invoke(tmp_path, "gf", _config(), name="plain.csv")
    status3, _ = _invoke(tmp_path, "gf", _config(), "--profile-sign-toggle", name="toggled.csv")
    assert status == status2 == status3 == 0
    assert len(built) <= 1
    assert json.loads(Path(str(angled) + ".json").read_text())["config"]["eval"]["theta"] == 0.5
    sidecar = json.loads(Path(str(plain) + ".json").read_text())
    assert sidecar["config"]["eval"]["theta"] == math.pi / 2
    assert sidecar["config"]["volkov_sign"] == 1


def test_angle_outside_the_contour_range_exits_2(tmp_path):
    for angle in ("2.0", "0", "nan"):
        status, out = _invoke(tmp_path, "gf", _config(), "--angle", angle)
        assert status == 2
        assert not out.exists()


def test_sign_toggle_lands_in_sidecar_and_changes_values(tmp_path):
    status, plain = _invoke(tmp_path, "gf", _config(), name="plain.csv")
    status2, toggled = _invoke(tmp_path, "gf", _config(), "--profile-sign-toggle",
                               name="toggled.csv")
    assert status == status2 == 0
    sidecar = json.loads(Path(str(toggled) + ".json").read_text())
    assert sidecar["config"]["volkov_sign"] == -1
    assert plain.read_bytes() != toggled.read_bytes()
    # the sign is stated once, under config: the ledger holds the fixed conventions
    assert sidecar["ledger"] == json.loads(Path(str(plain) + ".json").read_text())["ledger"]
    assert sidecar["ledger"] == convention_ledger()


def test_csv_floats_round_trip_exactly(tmp_path):
    status, out = _invoke(tmp_path, "gf", _config())
    assert status == 0
    row = _rows(out)[0]
    ctx = EvalContext(m=0.8, x_a=np.array([0.1, -0.2, 0.3, 0.0]),
                      x_b=np.array([0.6, 0.4, -0.1, 0.5]),
                      pL=np.array([0.0, 0.0, 0.2, 2.0]),
                      cfg=FieldConfig(g=0.9, B=0.5,
                                      profile=CircularProfile(amplitude=0.4, frequency=1.1)))
    matrix = green_function(ctx).matrix
    for i in range(4):
        for j in range(4):
            assert float(row[f"g{i}{j}_re"]) == matrix[i, j].real
            assert float(row[f"g{i}{j}_im"]) == matrix[i, j].imag


def test_phase_integral_rows_are_one_phase_pass_each(tmp_path):
    # K* is K's conjugate for a real profile, so the table states K alone
    cfg = _config(grid={"param": "phi", "values": [-0.3, 0.2, 0.8]})
    status, out = _invoke(tmp_path, "K", cfg)
    assert status == 0
    ctx = parse_config(json.dumps(cfg)).ctx
    rows = []
    for phi in cfg["grid"]["values"]:
        run = phase_pass(ctx.cfg, ctx.pL, ctx.phi_a, phi)
        rows.append([phi, run.kernel_b.real, run.kernel_b.imag, run.error_estimate, run.nodes])
    assert out.read_bytes() == render_csv(["phi", "K_re", "K_im", "error_estimate", "nodes"], rows)


def test_phase_integral_meets_the_config_tolerances(tmp_path):
    # a pulse seen from phi_a = -6 to three phases up to 6: the pass meets 1e-2
    # of the config's tolerances. Under a negligible rel_tol the bound is abs_tol,
    # which every row's error estimate meets to 1e-2; a tighter abs_tol, or a
    # tighter rel_tol under a negligible abs_tol, takes more nodes on every row
    field = _field({"kind": "pulse", "amplitude": 0.4, "frequency": 1.1, "sigma": 1.5})
    grid = {"param": "phi", "values": [-2.0, 3.0, 6.0]}

    def rows(abs_tol, rel_tol):
        ev = _eval(x_a=[0.1, -0.2, -6.0, 0.0], abs_tol=abs_tol, rel_tol=rel_tol)
        status, out = _invoke(tmp_path, "K", _config(field=field, eval=ev, grid=grid))
        assert status == 0
        return [(float(row["error_estimate"]), int(row["nodes"])) for row in _rows(out)]

    for abs_tol in (1e-10, 1e-13):
        assert all(error <= 1e-2 * abs_tol for error, _ in rows(abs_tol, 1e-300))
    for loose, tight in (((1e-10, 1e-300), (1e-13, 1e-300)), ((1e-300, 1e-8), (1e-300, 1e-11))):
        assert all(n < m for (_, n), (_, m) in zip(rows(*loose), rows(*tight)))


def test_identities_command(tmp_path):
    status, out = _invoke(tmp_path, "identities", _config())
    assert status == 0
    sidecar = json.loads(Path(str(out) + ".json").read_text())
    assert sidecar["all_passed"] is True
    rows = _rows(out)
    assert all(row["passed"] == "1" for row in rows)
    # a row removed or renamed edits this pin
    assert [row["name"] for row in rows] == [
        "convention-ledger-consistency", "clifford-anticommutators", "projector-completeness",
        "projector-idempotence-orthogonality", "null-contractions-exact",
        "normalization-within-rounding", "field-tensor-eigenvectors"]


def test_limits_command(tmp_path):
    status, out = _invoke(tmp_path, "limits", _config())
    assert status == 0
    sidecar = json.loads(Path(str(out) + ".json").read_text())
    assert sidecar["all_passed"] is True
    names = [row["name"] for row in _rows(out)]
    assert names == ["zero-profile-route-equivalence", "free-field-reduction",
                     "small-field-free-kernel-limit"]


@pytest.mark.parametrize("overrides", [dict(m=2.0, pL=[0.0, 0.0, 0.0, 1.0]),
                                       dict(x_b=[0.1, -0.2, 0.5, 0.1])],
                         ids=["below-threshold", "coincident-transverse-endpoints"])
def test_limits_outside_the_domain_exits_4(tmp_path, overrides):
    # the production route runs before the oracles, so the documented
    # quadrature failure comes first, not the oracle's ValueError traceback
    cfg = _config(eval=_eval(**overrides))
    status, out = _invoke(tmp_path, "limits", cfg)
    assert status == 4
    assert not out.exists()
    # the same points fail the same way through gf at the zero profile, the
    # route limits checks
    cfg["field"] = _field("zero")
    assert _invoke(tmp_path, "gf", cfg, name="zero.csv")[0] == 4


def test_dirac_command_single_point(tmp_path):
    status, out = _invoke(tmp_path, "dirac", _config())
    assert status == 0
    row = _rows(out)[0]
    values = [float(v) for k, v in row.items() if k != "grid_value"]
    assert len(values) == 32
    assert all(math.isfinite(v) for v in values)


def test_tabulated_profile_outside_its_grid_exits_2(tmp_path):
    # a Gaussian tabulated on [-2, 2]; phi_b = x_b2 - x_b3 = 10 lies beyond it,
    # where the spline used to extrapolate to a1 = -142.8
    profile = _tabulated()
    inside = _config(field=_field(profile))
    status, _ = _invoke(tmp_path, "gf", inside, name="inside.csv")
    assert status == 0
    outside = _config(field=_field(profile), eval=_eval(x_b=[0.6, 0.4, 10.0, 0.0]))
    status, out = _invoke(tmp_path, "gf", outside, name="outside.csv")
    assert status == 2
    assert not out.exists()


def test_tabulated_endpoint_just_past_the_grid_exits_2(tmp_path):
    # phi_a = 0, phi_b = 1.001 on a grid over [-1, 1]: the quadrature nodes all
    # lie inside it, the endpoint does not
    grid = [-1.0 + 0.25 * i for i in range(9)]
    profile = _tabulated(phi=grid, a1=[math.exp(-p * p) for p in grid], a2=[0.0] * len(grid))
    x_a = [0.1, -0.2, 0.3, 0.3]
    inside = _config(field=_field(profile), eval=_eval(x_a=x_a, x_b=[0.6, 0.4, 1.0, 0.0]))
    status, _ = _invoke(tmp_path, "gf", inside, name="inside.csv")
    assert status == 0
    outside = _config(field=_field(profile), eval=_eval(x_a=x_a, x_b=[0.6, 0.4, 1.001, 0.0]))
    status, out = _invoke(tmp_path, "gf", outside, name="outside.csv")
    assert status == 2
    assert not out.exists()


def test_gf_outputs_carry_only_the_frozen_columns(tmp_path):
    # the extra diagnostics (phase-pass nodes and error) stay in the library:
    # the CSV and the sidecar are exactly what the frozen columns and the
    # config give
    grid = {"param": "xb3", "values": [0.5, 2.0]}
    rc = parse_config(json.dumps(_config(grid=grid)))
    status, out = _invoke(tmp_path, "gf", _config(grid=grid))
    assert status == 0
    rows = []
    for value in grid["values"]:
        x_b = np.array([0.6, 0.4, -0.1, value])
        result = green_function(replace(rc.ctx, x_b=x_b))
        diag = result.diagnostics
        assert diag.prepare_nodes > 0
        rows.append([value] + _matrix_row(result.matrix) + [diag.error_estimate, diag.nodes])
    header = ["grid_value", *_matrix_columns("g"), "error_estimate", "nodes"]
    assert out.read_bytes() == render_csv(header, rows)
    sidecar = Path(str(out) + ".json").read_bytes()
    assert sidecar == render_sidecar("gf", rc, len(rows))
    assert sidecar.count(b"\n") == 1 and sidecar.endswith(b"\n")     # one line of JSON
    for name in ("prepare_nodes", "prepare_error", "e0_max"):
        assert name.encode() not in sidecar


def test_verify_does_not_import_mpmath(tmp_path):
    # mpmath serves only the closed-form oracle of the tests; loading it in
    # `verify` would cost memory on every run
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_config()))
    code = ("import sys; from wavefield import cli; "
            "status = cli.main(['verify', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(status, 'mpmath' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(wavefield.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    assert done.stdout.split() == ["0", "False"]


def test_gf_and_dirac_do_not_import_scipy(tmp_path):
    # the runtime needs numpy only: the oracles behind `verify` and `limits`
    # and the spline of tabulated profiles are written in-repo, and every
    # command starts faster and smaller without scipy
    code = ("import sys; from wavefield import cli; "
            "status = cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]); "
            "print(status, any(name.split('.')[0] == 'scipy' for name in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(wavefield.__file__).resolve().parents[1])}
    runs = [("gf", _config()), ("dirac", _config()), ("verify", _config()),
            ("limits", _config()), ("gf", _config(field=_field(_tabulated())))]
    with ExitStack() as stack:
        # all five interpreters run at once; each is then waited on in turn
        procs = []
        for index, (command, cfg) in enumerate(runs):
            cfg_path = tmp_path / f"run{index}.json"
            cfg_path.write_text(json.dumps(cfg))
            proc = stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", code, command, str(cfg_path),
                 str(tmp_path / f"out{index}.csv")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env))
            stack.callback(proc.kill)            # a child still running on the way out
            procs.append(proc)
        for proc, (command, cfg) in zip(procs, runs):
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, (command, stderr)
            assert stdout.split() == ["0", "False"], (command, cfg["field"]["profile"]["kind"])
