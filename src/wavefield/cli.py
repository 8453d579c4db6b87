"""Command-line front end.

    wavefield <command> --config <path> --out <path> [--angle <theta>] [--profile-sign-toggle]

Commands: identities, kernel, K, spinfactor, gf, gf-k0, dirac, verify, limits.
Each run writes a CSV table (one row per grid point, floats at 17 significant
digits, frozen column order) and a JSON sidecar carrying the normalized
config, the convention ledger and row counts. Outputs contain no timestamps:
identical configs give bit-identical files.

Exit codes: 0 ok, 2 config/schema, 3 numeric singularity, 4 quadrature or
step-calibration failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .conventions import (DEFAULT_ABS_TOL, DEFAULT_CONTOUR_ANGLE, DEFAULT_E0_MAX,
                          DEFAULT_REL_TOL, DEFAULT_VOLKOV_SIGN, convention_ledger)
from .errors import (ContourCaustic, DivisionByZero, InvalidProfile, KernelSingularity,
                     PoleError, QuadratureFailure, RangeError, ResonantDenominator,
                     ResonantQ, SchemaError, SingularForm, StepCalibrationFailure,
                     WavefieldError)
from .fields import FieldConfig, ZeroProfile, make_profile
from .green import EvalContext, dirac_apply, green_function, green_function_zero_k, spin_factor
from .kernels import TransverseEndpoints, near_caustic, schwinger_kernel, volkov_kernel_full
from .minkowski import IDENTITY4
from .oracles import free_kernel, free_propagator, zero_profile_green

_COMMANDS = ("identities", "kernel", "K", "spinfactor", "gf", "gf-k0", "dirac",
             "verify", "limits")
_SCHEMA_EXIT, _SINGULAR_EXIT, _QUADRATURE_EXIT, _VERIFY_EXIT = 2, 3, 4, 5
_GRID_COMPONENTS = {"xb0": 0, "xb1": 1, "xb2": 2, "xb3": 3, "pL2": 2, "pL3": 3}


@dataclass(frozen=True)
class RunConfig:
    field_cfg: FieldConfig
    m: float
    x_a: np.ndarray
    x_b: np.ndarray
    pL: np.ndarray
    theta: float
    e0_max: float
    abs_tol: float
    rel_tol: float
    grid_param: str | None
    grid_values: tuple
    volkov_sign: int = DEFAULT_VOLKOV_SIGN

    def context(self) -> EvalContext:
        return EvalContext(m=self.m, x_a=self.x_a, x_b=self.x_b, pL=self.pL,
                           cfg=self.field_cfg, theta=self.theta, e0_max=self.e0_max,
                           abs_tol=self.abs_tol, rel_tol=self.rel_tol, volkov_sign=self.volkov_sign)

    def normalized(self) -> dict:
        """Config as actually used, for the sidecar (defaults applied)."""
        return {
            "field": {"g": self.field_cfg.g, "B": self.field_cfg.B,
                      "phi0": self.field_cfg.phi0,
                      "profile": {"kind": self.field_cfg.profile.kind,
                                  **self.field_cfg.profile.params()}},
            "eval": {"m": self.m, "x_a": list(self.x_a), "x_b": list(self.x_b),
                     "pL": list(self.pL), "theta": self.theta, "e0_max": self.e0_max,
                     "abs_tol": self.abs_tol, "rel_tol": self.rel_tol},
            "grid": None if self.grid_param is None
                    else {"param": self.grid_param, "values": list(self.grid_values)},
            "volkov_sign": self.volkov_sign,
        }


# -- config parsing -------------------------------------------------------

def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(block: dict, allowed, path: str):
    for key in block:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field")


def _number(block: dict, key: str, path: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise SchemaError(f"{path}.{key}", "required field is missing")
        return float(default)
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise RangeError(f"{path}.{key} must be finite, got {value!r}")
    return float(value)


def _vector4(block: dict, key: str, path: str, default=None) -> np.ndarray:
    if key not in block:
        if default is None:
            raise SchemaError(f"{path}.{key}", "required field is missing")
        return np.asarray(default, dtype=float)
    value = block[key]
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"{path}.{key}", "expected a list of 4 numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise SchemaError(f"{path}.{key}[{i}]", "expected a number")
        if not math.isfinite(item):
            raise RangeError(f"{path}.{key}[{i}] must be finite, got {item!r}")
        out.append(float(item))
    return np.array(out)


def _parse_profile(raw, path: str):
    if isinstance(raw, str):
        kind, params = raw, {}
    else:
        block = _expect_mapping(raw, path)
        if "kind" not in block:
            raise SchemaError(f"{path}.kind", "required field is missing")
        kind = block["kind"]
        if not isinstance(kind, str):
            raise SchemaError(f"{path}.kind", "expected a string")
        params = {k: v for k, v in block.items() if k != "kind"}
    try:
        return make_profile(kind, **params)
    except InvalidProfile as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_grid(raw, path: str):
    block = _expect_mapping(raw, path)
    _reject_unknown(block, {"param", "values"}, path)
    if "param" not in block:
        raise SchemaError(f"{path}.param", "required field is missing")
    param = block["param"]
    if not isinstance(param, str):
        raise SchemaError(f"{path}.param", "expected a string")
    values = block.get("values")
    if not isinstance(values, list) or not values:
        raise SchemaError(f"{path}.values", "expected a non-empty list of numbers")
    out = []
    for i, item in enumerate(values):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise SchemaError(f"{path}.values[{i}]", "expected a number")
        if not math.isfinite(item):
            raise RangeError(f"{path}.values[{i}] must be finite, got {item!r}")
        out.append(float(item))
    diffs = np.diff(out)
    if len(out) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise RangeError(f"{path}.values must be strictly monotone")
    return param, tuple(out)


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"config is not valid JSON: {exc}") from exc
    root = _expect_mapping(raw, "$")
    _reject_unknown(root, {"field", "eval", "grid"}, "$")
    if "field" not in root:
        raise SchemaError("field", "required block is missing")
    if "eval" not in root:
        raise SchemaError("eval", "required block is missing")

    field_block = _expect_mapping(root["field"], "field")
    _reject_unknown(field_block, {"g", "B", "profile", "phi0"}, "field")
    g = _number(field_block, "g", "field")
    b = _number(field_block, "B", "field")
    if "profile" not in field_block:
        raise SchemaError("field.profile", "required field is missing")
    profile = _parse_profile(field_block["profile"], "field.profile")
    phi0 = None
    if "phi0" in field_block:
        phi0 = _number(field_block, "phi0", "field")

    eval_block = _expect_mapping(root["eval"], "eval")
    _reject_unknown(eval_block, {"m", "x_a", "x_b", "pL", "theta", "e0_max",
                                 "abs_tol", "rel_tol"}, "eval")
    m = _number(eval_block, "m", "eval")
    x_a = _vector4(eval_block, "x_a", "eval")
    x_b = _vector4(eval_block, "x_b", "eval")
    p_l = _vector4(eval_block, "pL", "eval")
    theta = _number(eval_block, "theta", "eval", default=DEFAULT_CONTOUR_ANGLE)
    e0_max = _number(eval_block, "e0_max", "eval", default=DEFAULT_E0_MAX)
    abs_tol = _number(eval_block, "abs_tol", "eval", default=DEFAULT_ABS_TOL)
    rel_tol = _number(eval_block, "rel_tol", "eval", default=DEFAULT_REL_TOL)
    if not 0.0 < theta < math.pi / 2.0:
        raise RangeError(f"eval.theta must lie in (0, pi/2), got {theta!r}")
    if e0_max <= 0.0:
        raise RangeError(f"eval.e0_max must be positive, got {e0_max!r}")
    if abs_tol <= 0.0 or rel_tol <= 0.0:
        raise RangeError("eval.abs_tol and eval.rel_tol must be positive")

    grid_param, grid_values = None, ()
    if "grid" in root and root["grid"] is not None:
        grid_param, grid_values = _parse_grid(root["grid"], "grid")

    return RunConfig(field_cfg=FieldConfig(g=g, B=b, profile=profile, phi0=phi0),
                     m=m, x_a=x_a, x_b=x_b, pL=p_l, theta=theta, e0_max=e0_max,
                     abs_tol=abs_tol, rel_tol=rel_tol,
                     grid_param=grid_param, grid_values=grid_values)


# -- output helpers -------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def render_csv(header: list, rows: list) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def render_sidecar(command: str, rc: RunConfig, n_rows: int, extra: dict | None = None) -> bytes:
    ctx_phi0 = rc.field_cfg.phi0
    if ctx_phi0 is None:
        ctx_phi0 = float(rc.context().phi_a)
    payload = {
        "command": command,
        "package_version": __version__,
        "config": rc.normalized(),
        "ledger": convention_ledger(rc.theta, ctx_phi0, rc.volkov_sign),
        "rows": n_rows,
    }
    if extra:
        payload.update(extra)
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _matrix_columns(prefix: str) -> list:
    cols = []
    for i in range(4):
        for j in range(4):
            cols.extend([f"{prefix}{i}{j}_re", f"{prefix}{i}{j}_im"])
    return cols


def _matrix_row(matrix: np.ndarray) -> list:
    out = []
    for i in range(4):
        for j in range(4):
            out.extend([matrix[i, j].real, matrix[i, j].imag])
    return out


def _grid_contexts(rc: RunConfig):
    """(grid value, context) pairs for the point-evaluation commands."""
    base = rc.context()
    if rc.grid_param is None:
        return [(0.0, base)]
    if rc.grid_param not in _GRID_COMPONENTS:
        raise SchemaError("grid.param",
                          f"expected one of {sorted(_GRID_COMPONENTS)}, got {rc.grid_param!r}")
    idx = _GRID_COMPONENTS[rc.grid_param]
    pairs = []
    for value in rc.grid_values:
        if rc.grid_param.startswith("xb"):
            vec = np.array(base.x_b)
            vec[idx] = value
            pairs.append((value, replace(base, x_b=vec)))
        else:
            vec = np.array(base.pL)
            vec[idx] = value
            pairs.append((value, replace(base, pL=vec)))
    return pairs


def _require_grid(rc: RunConfig, command: str, param: str):
    if rc.grid_param is None:
        raise SchemaError("grid", f"command {command!r} needs a grid over {param!r}")
    if rc.grid_param != param:
        raise SchemaError("grid.param", f"command {command!r} grids over {param!r}, "
                                        f"got {rc.grid_param!r}")


# -- command bodies -------------------------------------------------------

def _cmd_identities(rc: RunConfig):
    from . import verification
    results = (verification.check_ledger_consistency()
               + verification.check_clifford_algebra()
               + verification.check_basis_identities()
               + verification.check_planewave_contraction())
    header = ["criterion", "name", "max_deviation", "tolerance", "passed"]
    rows = [[r.criterion, r.name, r.max_deviation, r.tolerance, r.passed] for r in results]
    return header, rows, {"all_passed": all(r.passed for r in results)}, 0


def _cmd_kernel(rc: RunConfig):
    _require_grid(rc, "kernel", "e0")
    ep = TransverseEndpoints.from_vectors(rc.x_a, rc.x_b)

    def one(e0):
        value = schwinger_kernel(e0, ep, rc.field_cfg)
        return [e0, value.real, value.imag, near_caustic(e0, rc.field_cfg)]

    rows = [one(e0) for e0 in rc.grid_values]
    return ["e0", "kernel_re", "kernel_im", "near_singularity"], rows, None, 0


def _cmd_phase_integral(rc: RunConfig):
    _require_grid(rc, "K", "phi")
    ctx = rc.context()
    phi0 = ctx.phi0

    def one(phi):
        value, diag = volkov_kernel_full(phi, rc.pL, rc.field_cfg, phi0,
                                         sign=rc.volkov_sign)
        conj_value, conj_diag = volkov_kernel_full(phi, rc.pL, rc.field_cfg, phi0,
                                                   conjugated=True, sign=rc.volkov_sign)
        return [phi, value.real, value.imag, conj_value.real, conj_value.imag,
                diag.error_estimate + conj_diag.error_estimate, diag.nodes + conj_diag.nodes]

    rows = [one(phi) for phi in rc.grid_values]
    header = ["phi", "K_re", "K_im", "K_conj_re", "K_conj_im", "error_estimate", "nodes"]
    return header, rows, None, 0


def _cmd_spinfactor(rc: RunConfig):
    _require_grid(rc, "spinfactor", "e0")
    factors = spin_factor(np.array(rc.grid_values), rc.context())
    rows = [[e0] + _matrix_row(sf) for e0, sf in zip(rc.grid_values, factors)]
    return ["e0"] + _matrix_columns("sf"), rows, None, 0


def _propagator_rows(rc: RunConfig, evaluate):
    def one(pair):
        grid_value, ctx = pair
        result = evaluate(ctx)
        diag = result.diagnostics
        return ([grid_value] + _matrix_row(result.matrix)
                + [diag.error_estimate, diag.nodes, diag.near_singularity])

    rows = [one(pair) for pair in _grid_contexts(rc)]
    header = (["grid_value"] + _matrix_columns("g")
              + ["error_estimate", "nodes", "near_singularity"])
    return header, rows


def _cmd_gf(rc: RunConfig):
    header, rows = _propagator_rows(rc, green_function)
    return header, rows, None, 0


def _cmd_gf_k0(rc: RunConfig):
    header, rows = _propagator_rows(rc, green_function_zero_k)
    return header, rows, None, 0


def _cmd_dirac(rc: RunConfig):
    rows = [[value] + _matrix_row(dirac_apply(ctx)) for value, ctx in _grid_contexts(rc)]
    return ["grid_value"] + _matrix_columns("s"), rows, None, 0


def _cmd_verify(rc: RunConfig):
    from . import verification
    results = verification.run_all()
    header = ["criterion", "name", "max_deviation", "tolerance", "passed"]
    rows = [[r.criterion, r.name, r.max_deviation, r.tolerance, r.passed] for r in results]
    all_passed = all(r.passed for r in results)
    extra = {"all_passed": all_passed, "report": [asdict(r) for r in results]}
    return header, rows, extra, (0 if all_passed else _VERIFY_EXIT)


def _cmd_limits(rc: RunConfig):
    rows = []

    base = rc.context()
    zero_k = green_function_zero_k(base).matrix
    ref_routes = zero_profile_green(rc.x_a, rc.x_b, rc.pL, rc.m, rc.field_cfg.g * rc.field_cfg.B)
    dev_routes = float(np.max(np.abs(zero_k - ref_routes)))
    rows.append(["zero-profile-route-equivalence", dev_routes, 1e-10, dev_routes <= 1e-10])

    free_ctx = replace(base, cfg=FieldConfig(g=1.0, B=1e-6, profile=ZeroProfile()),
                       e0_max=max(rc.e0_max, 80.0))
    ref = free_propagator(rc.x_a, rc.x_b, rc.pL, rc.m)
    dev_free = float(np.max(np.abs(green_function(free_ctx).matrix - ref * IDENTITY4)) / abs(ref))
    rows.append(["free-field-reduction", dev_free, 1e-5, dev_free <= 1e-5])

    small = FieldConfig(g=1.0, B=1e-4, profile=ZeroProfile())
    ep = TransverseEndpoints(xa1=0.4, xa2=0.0, xb1=1.2, xb2=0.0)
    dev_kernel = 0.0
    for e0 in (0.4, 0.9, 1.4):
        ref_k = free_kernel(e0, np.array([0.4, 0.0]), np.array([1.2, 0.0]))
        dev_kernel = max(dev_kernel, abs(schwinger_kernel(e0, ep, small) - ref_k) / abs(ref_k))
    rows.append(["small-field-free-kernel-limit", dev_kernel, 1e-6, dev_kernel <= 1e-6])

    header = ["name", "max_deviation", "tolerance", "passed"]
    all_passed = all(bool(r[3]) for r in rows)
    return header, rows, {"all_passed": all_passed}, (0 if all_passed else _VERIFY_EXIT)


_HANDLERS = {
    "identities": _cmd_identities,
    "kernel": _cmd_kernel,
    "K": _cmd_phase_integral,
    "spinfactor": _cmd_spinfactor,
    "gf": _cmd_gf,
    "gf-k0": _cmd_gf_k0,
    "dirac": _cmd_dirac,
    "verify": _cmd_verify,
    "limits": _cmd_limits,
}


# -- entry point ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavefield",
        description="Dirac Green function in a plane-wave plus constant-magnetic background")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", required=True, help="CSV output path (JSON sidecar at <out>.json)")
    parser.add_argument("--angle", type=float, default=None,
                        help="override eval.theta, the contour rotation angle")
    parser.add_argument("--profile-sign-toggle", action="store_true",
                        help="flip the sign of the phase-integral exponent")
    return parser


def run(command: str, rc: RunConfig, out_path: str) -> int:
    header, rows, extra, status = _HANDLERS[command](rc)
    csv_bytes = render_csv(header, rows)
    sidecar = render_sidecar(command, rc, len(rows), extra)
    with open(out_path, "wb") as fh:
        fh.write(csv_bytes)
    with open(out_path + ".json", "wb") as fh:
        fh.write(sidecar)
    return status


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return _SCHEMA_EXIT
    try:
        rc = parse_config(text)
        if args.angle is not None:
            if not 0.0 < args.angle < math.pi / 2.0:
                raise RangeError(f"--angle must lie in (0, pi/2), got {args.angle!r}")
            rc = replace(rc, theta=float(args.angle))
        if args.profile_sign_toggle:
            rc = replace(rc, volkov_sign=-DEFAULT_VOLKOV_SIGN)
        status = run(args.command, rc, args.out)
    except (SchemaError, RangeError, InvalidProfile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _SCHEMA_EXIT
    except (KernelSingularity, PoleError, DivisionByZero, ContourCaustic,
            ResonantQ, ResonantDenominator, SingularForm) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _SINGULAR_EXIT
    except (QuadratureFailure, StepCalibrationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _QUADRATURE_EXIT
    except WavefieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _VERIFY_EXIT
    if status != 0:
        print(f"error: {args.command} reported failures (see {args.out})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
