import csv
import json
import math

import numpy as np
import pytest

from wavefield.cli import main, parse_config
from wavefield.errors import RangeError, SchemaError
from wavefield.fields import CircularProfile, FieldConfig
from wavefield.green import EvalContext, green_function


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
    assert rc.theta == pytest.approx(math.pi / 4.0)
    assert rc.e0_max == 60.0
    assert rc.abs_tol == 1e-10 and rc.rel_tol == 1e-8
    assert rc.grid_param is None and rc.grid_values == ()
    assert rc.volkov_sign == +1
    assert rc.field_cfg.phi0 is None
    assert isinstance(rc.field_cfg.profile, CircularProfile)


def test_parse_config_profile_as_plain_string():
    rc = parse_config(json.dumps({"field": _field(profile="zero"), "eval": _eval()}))
    assert rc.field_cfg.profile.is_zero


def test_schema_error_paths():
    cases = [
        ({"field": dict(_field(), Bmax=2.0), "eval": _eval()}, "field.Bmax"),
        ({"field": {"g": 0.9, "B": 0.5}, "eval": _eval()}, "field.profile"),
        ({"field": _field(), "eval": _eval(x_a=[0.0, 0.0])}, "eval.x_a"),
        ({"field": _field(), "eval": _eval(y0=[0.1, 0.2, 0.0, 0.0])}, "eval.y0"),
        (_config(grid={"param": "pL3", "values": [1.8, "two"]}), "grid.values[1]"),
        (_config(extra={}), "$.extra"),
        ({"eval": _eval()}, "field"),
    ]
    for cfg, path in cases:
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(cfg))
        assert err.value.path == path


def test_range_rejections():
    with pytest.raises(RangeError):
        parse_config(json.dumps({"field": _field(), "eval": _eval(theta=2.0)}))
    with pytest.raises(RangeError):
        parse_config(json.dumps({"field": _field(), "eval": _eval(m=float("nan"))}))
    with pytest.raises(RangeError):
        parse_config(json.dumps(_config(grid={"param": "pL3", "values": [1.8, 2.2, 2.0]})))


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
    expected += ["error_estimate", "nodes", "near_singularity"]
    assert table[0] == expected
    assert len(table) == 6
    assert [row[0] for row in table[1:]] == [format(v, ".17g") for v in grid["values"]]


def test_gf_byte_determinism(tmp_path):
    grid = {"param": "xb0", "values": [0.5, 0.7, 0.9]}
    status1, out1 = _invoke(tmp_path, "gf", _config(grid=grid), name="a.csv")
    status2, out2 = _invoke(tmp_path, "gf", _config(grid=grid), name="b.csv")
    assert status1 == status2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert open(str(out1) + ".json", "rb").read() == open(str(out2) + ".json", "rb").read()


def test_zero_profile_routes_give_identical_csv(tmp_path):
    cfg = _config()
    cfg["field"] = {"g": 1.0, "B": 0.6, "profile": "zero"}
    _, full = _invoke(tmp_path, "gf", cfg, name="full.csv")
    _, direct = _invoke(tmp_path, "gf-k0", cfg, name="direct.csv")
    assert full.read_bytes() == direct.read_bytes()


def test_exit_code_schema(tmp_path):
    status, out = _invoke(tmp_path, "gf", _config(bogus=1))
    assert status == 2
    assert not out.exists()


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


def test_kernel_requires_matching_grid(tmp_path):
    status, _ = _invoke(tmp_path, "kernel", _config())
    assert status == 2
    status, _ = _invoke(tmp_path, "kernel",
                        _config(grid={"param": "phi", "values": [0.1]}))
    assert status == 2


def test_unknown_grid_param_rejected(tmp_path):
    status, _ = _invoke(tmp_path, "gf", _config(grid={"param": "zeta", "values": [1.0]}))
    assert status == 2


def test_angle_override_lands_in_sidecar(tmp_path):
    status, out = _invoke(tmp_path, "gf", _config(), "--angle", "0.9")
    assert status == 0
    sidecar = json.loads(open(str(out) + ".json").read())
    assert sidecar["ledger"]["contour_angle"] == 0.9
    assert sidecar["config"]["eval"]["theta"] == 0.9
    assert sidecar["rows"] == 1
    assert "timestamp" not in json.dumps(sidecar).lower()


def test_sign_toggle_lands_in_sidecar_and_changes_values(tmp_path):
    status, plain = _invoke(tmp_path, "gf", _config(), name="plain.csv")
    status2, toggled = _invoke(tmp_path, "gf", _config(), "--profile-sign-toggle",
                               name="toggled.csv")
    assert status == status2 == 0
    sidecar = json.loads(open(str(toggled) + ".json").read())
    assert sidecar["ledger"]["volkov_sign"] == -1
    assert sidecar["config"]["volkov_sign"] == -1
    assert plain.read_bytes() != toggled.read_bytes()


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


def test_phase_integral_conjugate_columns(tmp_path):
    cfg = _config(grid={"param": "phi", "values": [-0.3, 0.2, 0.8]})
    status, out = _invoke(tmp_path, "K", cfg)
    assert status == 0
    for row in _rows(out):
        k = complex(float(row["K_re"]), float(row["K_im"]))
        kc = complex(float(row["K_conj_re"]), float(row["K_conj_im"]))
        assert kc == pytest.approx(np.conj(k), abs=1e-12)


def test_identities_command(tmp_path):
    status, out = _invoke(tmp_path, "identities", _config())
    assert status == 0
    sidecar = json.loads(open(str(out) + ".json").read())
    assert sidecar["all_passed"] is True
    assert all(row["passed"] == "1" for row in _rows(out))


def test_limits_command(tmp_path):
    status, out = _invoke(tmp_path, "limits", _config())
    assert status == 0
    sidecar = json.loads(open(str(out) + ".json").read())
    assert sidecar["all_passed"] is True
    names = [row["name"] for row in _rows(out)]
    assert names == ["zero-profile-route-equivalence", "free-field-reduction",
                     "small-field-free-kernel-limit"]


def test_dirac_command_single_point(tmp_path):
    status, out = _invoke(tmp_path, "dirac", _config())
    assert status == 0
    row = _rows(out)[0]
    values = [float(v) for k, v in row.items() if k != "grid_value"]
    assert len(values) == 32
    assert all(math.isfinite(v) for v in values)
