"""Correctness gate: every request's output is checked against a reference.

`gf` and `dirac` rows are compared, matrix by matrix, with a reference value
of the same row. Row r passes when

    |G_r - G_ref|_F <= max(abs_tol, rel_tol * |G_ref|_F)

with the tolerances the request's config sets; |.|_F is the Frobenius norm, the norm the quadrature's own
stopping rule uses. The reference comes from one of two routes:

* the default seed: values frozen in `reference.json`, computed with
  tightened settings (rel_tol 1e-11, e0_max doubled) by
  `make_reference.py`;
* any other seed: an untimed re-evaluation of the same config through the CLI
  at the contour angle pi/6 instead of the default pi/4. The result does not
  depend on the angle, so the two agree to about 1e-13 relative on admissible
  points.

A `verify` request passes when it exits 0 and its sidecar says
`all_passed`. Any request that exits non-zero, raises, or writes the wrong
number of rows fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Contour angle of the re-evaluation route.
CHECK_ANGLE = math.pi / 6

#: Tightened settings of the frozen reference.
TIGHT_REL_TOL = 1e-11
TIGHT_E0_FACTOR = 2.0


@dataclass(frozen=True)
class Output:
    """What one CLI invocation left behind."""

    status: int | None          # exit code; None when main() raised
    seconds: float              # wall time of the main() call
    csv_text: str
    sidecar: dict | None


def run_cli(main, command: str, config_path: Path, out_path: Path, extra=()) -> Output:
    """Invoke the CLI entry point in-process and collect its output files."""
    sidecar_path = Path(str(out_path) + ".json")
    for path in (out_path, sidecar_path):
        path.unlink(missing_ok=True)
    start = perf_counter()
    try:
        status = main([command, "--config", str(config_path), "--out", str(out_path), *extra])
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        print(f"request raised {type(exc).__name__}: {exc}", file=sys.stderr)
        status = None
    seconds = perf_counter() - start
    csv_text = out_path.read_text() if out_path.exists() else ""
    sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else None
    return Output(status, seconds, csv_text, sidecar)


def parse_rows(csv_text: str) -> list:
    """(grid_value, 4x4 matrix as 16 complex numbers) per row of a gf/dirac CSV."""
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header is None:
        return []
    prefix = header[1][0]
    cols = [(header.index(f"{prefix}{i}{j}_re"), header.index(f"{prefix}{i}{j}_im"))
            for i in range(4) for j in range(4)]
    return [(float(row[0]), [complex(float(row[re]), float(row[im])) for re, im in cols])
            for row in reader]


def row_count(csv_text: str) -> int:
    return max(csv_text.count("\n") - 1, 0)


def config_key(config: dict) -> str:
    return hashlib.sha256(workloads.config_text(config).encode()).hexdigest()


def tightened(config: dict) -> dict:
    from wavefield.conventions import DEFAULT_E0_MAX

    ev = dict(config["eval"])
    ev["rel_tol"] = TIGHT_REL_TOL
    ev["e0_max"] = TIGHT_E0_FACTOR * ev.get("e0_max", DEFAULT_E0_MAX)
    return {**config, "eval": ev}


def load_frozen(workload: str) -> dict:
    """config key -> reference CSV text, for the default seed."""
    data = json.loads(REFERENCE_PATH.read_text())
    return data["workloads"].get(workload, {})


def reference_rows(main, command: str, config: dict, seed: int, frozen: dict,
                   config_path: Path, out_path: Path) -> list | None:
    """Reference rows for one config, by the route the seed selects.

    Returns None when the reference itself could not be computed, which fails
    every request of that config."""
    if seed == workloads.DEFAULT_SEED:
        text = frozen.get(config_key(config))
        if text is None:
            raise RuntimeError("reference.json has no entry for a default-seed config; "
                               "run make_reference.py")
        return parse_rows(text)
    out = run_cli(main, command, config_path, out_path, ("--angle", repr(CHECK_ANGLE)))
    return parse_rows(out.csv_text) if out.status == 0 else None


def row_deviation(value: list, ref: list) -> tuple:
    """(|value - ref|_F, |ref|_F) for two flattened matrices."""
    dev = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(value, ref)))
    norm = math.sqrt(sum(abs(b) ** 2 for b in ref))
    return dev, norm


def check(command: str, config: dict, out: Output, ref_rows: list | None) -> list:
    """Problems with one request's output; empty when it is correct."""
    if out.status != 0:
        return [f"exit status {out.status}"]
    if command == "verify":
        if not (out.sidecar and out.sidecar.get("all_passed") is True):
            return ["verify sidecar does not report all_passed"]
        return [] if row_count(out.csv_text) > 0 else ["verify wrote no rows"]
    if ref_rows is None:
        return ["no reference value"]
    rows = parse_rows(out.csv_text)
    expected = len(workloads.eval_points(config))
    if len(rows) != expected or len(ref_rows) != expected:
        return [f"{len(rows)} rows against {len(ref_rows)} reference rows, expected {expected}"]
    abs_tol, rel_tol = config["eval"]["abs_tol"], config["eval"]["rel_tol"]
    problems = []
    for (grid_value, value), (ref_grid, ref) in zip(rows, ref_rows):
        if grid_value != ref_grid:
            problems.append(f"grid value {grid_value!r} against reference {ref_grid!r}")
            continue
        dev, norm = row_deviation(value, ref)
        bound = max(abs_tol, rel_tol * norm)
        if not dev <= bound:
            problems.append(f"row {grid_value!r}: deviation {dev:.3e} above {bound:.3e}")
    return problems
