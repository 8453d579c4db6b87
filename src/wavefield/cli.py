"""Command-line front end.

    wavefield <command> --config <path> --out <path> [--angle <theta>] [--profile-sign-toggle]

Commands: identities, K, spinfactor, gf, dirac, verify, limits.
Each run writes a CSV table (one row per grid point, or per check: all of a
`CheckResult`'s fields; floats at 17 significant digits, frozen column order)
and a one-line JSON sidecar carrying the normalized config (the run's contour
angle and sign included), the fixed convention ledger, the row count and, for a
check table, `all_passed`. Outputs contain no timestamps: identical configs give
bit-identical files. The zero-wave-vector limit is `gf` with `"profile": "zero"`.

Every config number goes through `fields._real`, the library's own check, and
a rejected one names its JSON path (`field`, `eval.x_a`, `grid.values[1]`;
`$`: a config that cannot be decoded or is not an object).

`run` checks the grid against the one `_COMMANDS` declares for the command.
Exit codes, each declared as `exit_code` on its `errors` class: 0 ok, 2 config/schema,
3 numeric singularity, 4 quadrature or step-calibration failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import __version__
from .conventions import DEFAULT_VOLKOV_SIGN, convention_ledger
from .errors import InvalidProfile, QuadratureFailure, RangeError, SchemaError, WavefieldError
from .fields import FieldConfig, _real, make_profile
from .green import EVAL_INPUTS, EvalContext, dirac_apply, green_function, spin_factor
from .kernels import _phase_passes

_GRID_COMPONENTS = {"xb0": 0, "xb1": 1, "xb2": 2, "xb3": 3, "pL2": 2, "pL3": 3}
#: The `eval` keys a config must set: those whose context field has no default.
_REQUIRED_INPUTS = {f.name for f in fields(EvalContext) if f.default is MISSING} & set(EVAL_INPUTS)


@dataclass(frozen=True)
class RunConfig:
    ctx: EvalContext
    grid_param: str | None
    grid_values: tuple

    def normalized(self) -> dict:
        """Config as actually used, for the sidecar (defaults applied)."""
        ctx, cfg = self.ctx, self.ctx.cfg
        return {
            "field": {"g": cfg.g, "B": cfg.B,
                      "profile": {"kind": cfg.profile.kind, **cfg.profile.params()}},
            "eval": {key: getattr(ctx, key).tolist() if shape else getattr(ctx, key)
                     for key, shape in EVAL_INPUTS.items()},
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
    """SchemaError at the first key of `block` not in `allowed`; `path` is the
    block's own, empty at the document's root, whose keys are named bare."""
    for key in block:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown field")


def _required(block: dict, key: str, path: str):
    if key not in block:
        raise SchemaError(f"{path}.{key}", "required field is missing")
    return block[key]


def _real_at(path: str, value, shape=()):
    """`fields._real`, the library constructors' own check, raising SchemaError at `path`."""
    return _real(path, value, shape, lambda text: SchemaError(path, text.removeprefix(path + " ")))


def _parse_profile(raw, path: str):
    if isinstance(raw, str):
        kind, params = raw, {}
    else:
        block = _expect_mapping(raw, path)
        kind = _required(block, "kind", path)
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
    param = _required(block, "param", path)
    if not isinstance(param, str):
        raise SchemaError(f"{path}.param", "expected a string")
    values = block.get("values")
    if not isinstance(values, list) or not values:
        raise SchemaError(f"{path}.values", "expected a non-empty list of numbers")
    out = [_real_at(f"{path}.values[{i}]", item) for i, item in enumerate(values)]
    diffs = np.diff(out)
    if len(out) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise RangeError(f"{path}.values must be strictly monotone")
    return param, tuple(out)


def parse_config(text: str | bytes) -> RunConfig:
    """The run config in JSON `text` (bytes in UTF-8, -16 or -32); SchemaError
    at the path of the first value that does not fit the schema."""
    try:
        try:
            raw = json.loads(text)
        except ValueError as exc:      # JSONDecodeError and UnicodeDecodeError included
            raise SchemaError("$", f"config is not valid JSON: {exc}") from exc
        return _parse_document(raw)
    except RecursionError as exc:      # in the decoder, or in an error's repr of a deep value
        raise SchemaError("$", "config is nested too deeply") from exc


def _parse_document(raw) -> RunConfig:
    root = _expect_mapping(raw, "$")
    _reject_unknown(root, {"field", "eval", "grid"}, "")
    if "field" not in root:
        raise SchemaError("field", "required block is missing")
    if "eval" not in root:
        raise SchemaError("eval", "required block is missing")

    field_block = _expect_mapping(root["field"], "field")
    _reject_unknown(field_block, {"g", "B", "profile"}, "field")
    cfg = FieldConfig(g=_real_at("field.g", _required(field_block, "g", "field")),
                      B=_real_at("field.B", _required(field_block, "B", "field")),
                      profile=_parse_profile(_required(field_block, "profile", "field"),
                                             "field.profile"))

    eval_block = _expect_mapping(root["eval"], "eval")
    _reject_unknown(eval_block, EVAL_INPUTS, "eval")
    try:
        ctx = EvalContext(cfg=cfg, **{
            key: _real_at(f"eval.{key}", _required(eval_block, key, "eval"), shape)
            for key, shape in EVAL_INPUTS.items() if key in eval_block or key in _REQUIRED_INPUTS})
    except RangeError as exc:       # the context's range checks open with the input's name
        raise RangeError(f"eval.{exc}") from exc

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
    for row in rows:     # most cells are floats: format those inline
        writer.writerow([format(v, ".17g") if type(v) is float else _fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def render_sidecar(command: str, rc: RunConfig, n_rows: int,
                   all_passed: bool | None = None) -> bytes:
    payload = {
        "command": command,
        "package_version": __version__,
        "config": rc.normalized(),
        "ledger": convention_ledger(),
        "rows": n_rows,
    }
    if all_passed is not None:      # the check commands' verdict on their table
        payload["all_passed"] = all_passed
    # no indent: that keeps json on its C encoder, which leaves no reference cycle
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


@functools.cache
def _matrix_columns(prefix: str) -> tuple:
    return tuple(f"{prefix}{i}{j}_{part}" for i in range(4) for j in range(4)
                 for part in ("re", "im"))


def _matrix_row(matrix: np.ndarray) -> list:
    """(re, im) of each entry, row by row, as Python floats."""
    return np.ascontiguousarray(matrix, dtype=complex).view(np.float64).ravel().tolist()


def _grid_contexts(rc: RunConfig):
    """(grid value, context) pairs for the point-evaluation commands."""
    base = rc.ctx
    if rc.grid_param is None:
        return [(0.0, base)]
    idx = _GRID_COMPONENTS[rc.grid_param]
    name = "x_b" if rc.grid_param.startswith("xb") else "pL"
    pairs = []
    for value in rc.grid_values:
        vec = np.array(getattr(base, name))
        vec[idx] = value
        pairs.append((value, replace(base, **{name: vec})))
    return pairs


# -- command bodies -------------------------------------------------------

def _check_table(results):
    """(CheckResult's fields as the header, one row of them per result, all passed)."""
    header = [f.name for f in fields(results[0])]
    rows = [[getattr(r, name) for name in header] for r in results]
    return header, rows, all(r.passed for r in results)


def _cmd_identities(rc: RunConfig):
    from . import verification
    return _check_table(verification.check_ledger_consistency()
                        + verification.check_clifford_algebra()
                        + verification.check_basis_identities())


def _cmd_phase_integral(rc: RunConfig):
    ctx = rc.ctx
    # one pass per phase, all of them in one lockstep stack: each row has the
    # nodes and error of its own pass
    runs = _phase_passes([(ctx.cfg, ctx.pL, ctx.phi_a, phi, ctx.volkov_sign, ctx.abs_tol,
                           ctx.rel_tol) for phi in rc.grid_values])
    rows = [[phi, run.kernel_b.real, run.kernel_b.imag, run.error_estimate, run.nodes]
            for phi, run in zip(rc.grid_values, runs)]
    return ["phi", "K_re", "K_im", "error_estimate", "nodes"], rows, None


def _cmd_spinfactor(rc: RunConfig):
    factors = spin_factor(np.array(rc.grid_values), rc.ctx)
    rows = [[e0] + _matrix_row(sf) for e0, sf in zip(rc.grid_values, factors)]
    return ["e0", *_matrix_columns("sf")], rows, None


def _cmd_gf(rc: RunConfig):
    rows = []
    for grid_value, ctx in _grid_contexts(rc):
        result = green_function(ctx)
        diag = result.diagnostics
        rows.append([grid_value] + _matrix_row(result.matrix) + [diag.error_estimate, diag.nodes])
    return ["grid_value", *_matrix_columns("g"), "error_estimate", "nodes"], rows, None


def _cmd_dirac(rc: RunConfig):
    rows = [[value] + _matrix_row(dirac_apply(ctx)) for value, ctx in _grid_contexts(rc)]
    return ["grid_value", *_matrix_columns("s")], rows, None


def _cmd_verify(rc: RunConfig):
    from . import verification
    return _check_table(verification.run_all())


def _cmd_limits(rc: RunConfig):
    from . import verification
    xa, xb = np.array([0.4, 0.0]), np.array([1.2, 0.0])
    return _check_table([
        verification.zero_profile_limit([rc.ctx]),
        verification.free_field_limit([rc.ctx]),
        verification.weak_field_kernel_limit((e0, 1.0, xa, xb) for e0 in (0.4, 0.9, 1.4)),
    ])


_POINT_GRIDS = (None, *_GRID_COMPONENTS)
#: Each command's handler and the `grid.param` values it takes (None: no grid
#: block); None in place of those values: the command ignores the grid.
_COMMANDS = {
    "identities": (_cmd_identities, None),
    "K": (_cmd_phase_integral, ("phi",)),
    "spinfactor": (_cmd_spinfactor, ("e0",)),
    "gf": (_cmd_gf, _POINT_GRIDS),
    "dirac": (_cmd_dirac, _POINT_GRIDS),
    "verify": (_cmd_verify, None),
    "limits": (_cmd_limits, None),
}


# -- entry point ----------------------------------------------------------

@functools.cache    # parse_args keeps no state between calls: one parser per process
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
    """Write the command's table and sidecar, if it takes the config's grid; exit 5
    when a check table has a failed row."""
    handler, grids = _COMMANDS[command]
    if grids is not None and rc.grid_param not in grids:
        raise SchemaError("grid.param", f"{command} takes one of {json.dumps(grids)}, "
                                        f"got {json.dumps(rc.grid_param)}")
    header, rows, all_passed = handler(rc)
    csv_bytes = render_csv(header, rows)
    sidecar = render_sidecar(command, rc, len(rows), all_passed)
    try:
        with open(out_path, "wb") as fh:
            fh.write(csv_bytes)
        with open(out_path + ".json", "wb") as fh:
            fh.write(sidecar)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return SchemaError.exit_code
    if all_passed is False:
        print(f"error: {command} reported failures (see {out_path})", file=sys.stderr)
        return WavefieldError.exit_code
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return SchemaError.exit_code
    try:
        rc = parse_config(text)
        if args.angle is not None:
            try:
                rc = replace(rc, ctx=replace(rc.ctx, theta=args.angle))
            except RangeError as exc:
                raise RangeError(f"--angle: {exc}") from exc
        if args.profile_sign_toggle:
            rc = replace(rc, ctx=replace(rc.ctx, volkov_sign=-DEFAULT_VOLKOV_SIGN))
        return run(args.command, rc, args.out)
    except WavefieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, QuadratureFailure) and exc.nodes is not None:
            print(f"error: quadrature stopped after {exc.nodes} nodes with error estimate "
                  f"{exc.error_estimate!r}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
