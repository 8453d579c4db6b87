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
from .conventions import DEFAULT_VOLKOV_SIGN, convention_ledger
from .errors import (DivisionByZero, InvalidProfile, KernelSingularity,
                     PoleError, QuadratureFailure, RangeError, ResonantDenominator,
                     ResonantQ, SchemaError, SingularForm, StepCalibrationFailure,
                     WavefieldError)
from .fields import FieldConfig, make_profile
from .green import EvalContext, dirac_apply, green_function, green_function_zero_k, spin_factor
from .kernels import SUB_TOLERANCE, near_caustic, phase_pass, schwinger_kernel

_COMMANDS = ("identities", "kernel", "K", "spinfactor", "gf", "gf-k0", "dirac",
             "verify", "limits")
_SCHEMA_EXIT, _SINGULAR_EXIT, _QUADRATURE_EXIT, _VERIFY_EXIT = 2, 3, 4, 5
_EXIT_CODES = (
    ((SchemaError, RangeError, InvalidProfile), _SCHEMA_EXIT),
    ((KernelSingularity, PoleError, DivisionByZero, ResonantQ, ResonantDenominator,
      SingularForm), _SINGULAR_EXIT),
    ((QuadratureFailure, StepCalibrationFailure), _QUADRATURE_EXIT),
    ((WavefieldError,), _VERIFY_EXIT),
)
_GRID_COMPONENTS = {"xb0": 0, "xb1": 1, "xb2": 2, "xb3": 3, "pL2": 2, "pL3": 3}


@dataclass(frozen=True)
class RunConfig:
    ctx: EvalContext
    grid_param: str | None
    grid_values: tuple

    def normalized(self) -> dict:
        """Config as actually used, for the sidecar (defaults applied)."""
        ctx, cfg = self.ctx, self.ctx.cfg
        return {
            "field": {"g": cfg.g, "B": cfg.B, "phi0": cfg.phi0,
                      "profile": {"kind": cfg.profile.kind, **cfg.profile.params()}},
            "eval": {"m": ctx.m, "x_a": list(ctx.x_a), "x_b": list(ctx.x_b),
                     "pL": list(ctx.pL), "theta": ctx.theta,
                     "abs_tol": ctx.abs_tol, "rel_tol": ctx.rel_tol},
            "grid": None if self.grid_param is None
                    else {"param": self.grid_param, "values": list(self.grid_values)},
            "volkov_sign": ctx.volkov_sign,
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


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise RangeError(f"{path} must be finite, got {value!r}")
    return float(value)


def _number(block: dict, key: str, path: str) -> float:
    if key not in block:
        raise SchemaError(f"{path}.{key}", "required field is missing")
    return _finite(block[key], f"{path}.{key}")


def _vector4(block: dict, key: str, path: str) -> np.ndarray:
    if key not in block:
        raise SchemaError(f"{path}.{key}", "required field is missing")
    value = block[key]
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"{path}.{key}", "expected a list of 4 numbers")
    return np.array([_finite(item, f"{path}.{key}[{i}]") for i, item in enumerate(value)])


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
    out = [_finite(item, f"{path}.values[{i}]") for i, item in enumerate(values)]
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
    phi0 = _number(field_block, "phi0", "field") if "phi0" in field_block else None

    eval_block = _expect_mapping(root["eval"], "eval")
    optional = ("theta", "abs_tol", "rel_tol")     # EvalContext defaults the rest
    _reject_unknown(eval_block, {"m", "x_a", "x_b", "pL", *optional}, "eval")
    settings = {key: _finite(eval_block[key], f"eval.{key}")
                for key in optional if key in eval_block}
    ctx = EvalContext(m=_number(eval_block, "m", "eval"),
                      x_a=_vector4(eval_block, "x_a", "eval"),
                      x_b=_vector4(eval_block, "x_b", "eval"),
                      pL=_vector4(eval_block, "pL", "eval"),
                      cfg=FieldConfig(g=g, B=b, profile=profile, phi0=phi0), **settings)

    grid_param, grid_values = None, ()
    if "grid" in root and root["grid"] is not None:
        grid_param, grid_values = _parse_grid(root["grid"], "grid")
    return RunConfig(ctx=ctx, grid_param=grid_param, grid_values=grid_values)


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
    payload = {
        "command": command,
        "package_version": __version__,
        "config": rc.normalized(),
        "ledger": convention_ledger(rc.ctx.theta, rc.ctx.phi0, rc.ctx.volkov_sign),
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
    base = rc.ctx
    if rc.grid_param is None:
        return [(0.0, base)]
    if rc.grid_param not in _GRID_COMPONENTS:
        raise SchemaError("grid.param",
                          f"expected one of {sorted(_GRID_COMPONENTS)}, got {rc.grid_param!r}")
    idx = _GRID_COMPONENTS[rc.grid_param]
    name = "x_b" if rc.grid_param.startswith("xb") else "pL"
    pairs = []
    for value in rc.grid_values:
        vec = np.array(getattr(base, name))
        vec[idx] = value
        pairs.append((value, replace(base, **{name: vec})))
    return pairs


def _require_grid(rc: RunConfig, command: str, param: str):
    if rc.grid_param is None:
        raise SchemaError("grid", f"command {command!r} needs a grid over {param!r}")
    if rc.grid_param != param:
        raise SchemaError("grid.param", f"command {command!r} grids over {param!r}, "
                                        f"got {rc.grid_param!r}")


# -- command bodies -------------------------------------------------------

_CHECK_HEADER = ["criterion", "name", "max_deviation", "tolerance", "passed"]


def _check_rows(results, header=_CHECK_HEADER):
    """(header, one row of the header's CheckResult fields per result, all passed)."""
    rows = [[getattr(r, field) for field in header] for r in results]
    return header, rows, all(r.passed for r in results)


def _cmd_identities(rc: RunConfig):
    from . import verification
    header, rows, all_passed = _check_rows(verification.check_ledger_consistency()
                                           + verification.check_clifford_algebra()
                                           + verification.check_basis_identities()
                                           + verification.check_planewave_contraction())
    return header, rows, {"all_passed": all_passed}, (0 if all_passed else _VERIFY_EXIT)


def _cmd_kernel(rc: RunConfig):
    _require_grid(rc, "kernel", "e0")
    ctx = rc.ctx
    values = schwinger_kernel(np.array(rc.grid_values), ctx.x_a, ctx.x_b, ctx.cfg)
    rows = [[e0, value.real, value.imag, near_caustic(e0, ctx.cfg)]
            for e0, value in zip(rc.grid_values, values)]
    return ["e0", "kernel_re", "kernel_im", "near_singularity"], rows, None, 0


def _cmd_phase_integral(rc: RunConfig):
    _require_grid(rc, "K", "phi")
    ctx = rc.ctx

    def one(phi):
        run = phase_pass(ctx.cfg, ctx.pL, phi, phi, ctx.phi0, sign=ctx.volkov_sign,
                         abs_tol=ctx.abs_tol * SUB_TOLERANCE, rel_tol=ctx.rel_tol * SUB_TOLERANCE)
        k, k_conj = run.kernel_b, run.kernel_b.conjugate()
        return [phi, k.real, k.imag, k_conj.real, k_conj.imag, run.error_estimate, run.nodes]

    rows = [one(phi) for phi in rc.grid_values]
    header = ["phi", "K_re", "K_im", "K_conj_re", "K_conj_im", "error_estimate", "nodes"]
    return header, rows, None, 0


def _cmd_spinfactor(rc: RunConfig):
    _require_grid(rc, "spinfactor", "e0")
    factors = spin_factor(np.array(rc.grid_values), rc.ctx)
    rows = [[e0] + _matrix_row(sf) for e0, sf in zip(rc.grid_values, factors)]
    return ["e0"] + _matrix_columns("sf"), rows, None, 0


def _propagator_table(rc: RunConfig, evaluate):
    def one(pair):
        grid_value, ctx = pair
        result = evaluate(ctx)
        diag = result.diagnostics
        # the ray meets no caustic off the real axis; the frozen column stays
        return [grid_value] + _matrix_row(result.matrix) + [diag.error_estimate, diag.nodes, 0]

    rows = [one(pair) for pair in _grid_contexts(rc)]
    header = (["grid_value"] + _matrix_columns("g")
              + ["error_estimate", "nodes", "near_singularity"])
    return header, rows, None, 0


def _cmd_dirac(rc: RunConfig):
    rows = [[value] + _matrix_row(dirac_apply(ctx)) for value, ctx in _grid_contexts(rc)]
    return ["grid_value"] + _matrix_columns("s"), rows, None, 0


def _cmd_verify(rc: RunConfig):
    from . import verification
    results = verification.run_all()
    header, rows, all_passed = _check_rows(results)
    extra = {"all_passed": all_passed, "report": [asdict(r) for r in results]}
    return header, rows, extra, (0 if all_passed else _VERIFY_EXIT)


def _cmd_limits(rc: RunConfig):
    from . import verification
    xa, xb = np.array([0.4, 0.0]), np.array([1.2, 0.0])
    header, rows, all_passed = _check_rows([
        verification.zero_profile_limit([rc.ctx]),
        verification.free_field_limit([rc.ctx]),
        verification.weak_field_kernel_limit((e0, 1.0, xa, xb) for e0 in (0.4, 0.9, 1.4)),
    ], _CHECK_HEADER[1:])
    return header, rows, {"all_passed": all_passed}, (0 if all_passed else _VERIFY_EXIT)


_HANDLERS = {
    "identities": _cmd_identities,
    "kernel": _cmd_kernel,
    "K": _cmd_phase_integral,
    "spinfactor": _cmd_spinfactor,
    "gf": lambda rc: _propagator_table(rc, green_function),
    "gf-k0": lambda rc: _propagator_table(rc, green_function_zero_k),
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
            rc = replace(rc, ctx=replace(rc.ctx, theta=args.angle))
        if args.profile_sign_toggle:
            rc = replace(rc, ctx=replace(rc.ctx, volkov_sign=-DEFAULT_VOLKOV_SIGN))
        status = run(args.command, rc, args.out)
    except WavefieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, QuadratureFailure) and exc.nodes is not None:
            print(f"error: quadrature stopped after {exc.nodes} nodes with error estimate "
                  f"{exc.error_estimate!r}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    if status != 0:
        print(f"error: {args.command} reported failures (see {args.out})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
