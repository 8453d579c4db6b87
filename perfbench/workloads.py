"""Seeded request generators for the benchmark workloads.

Each workload turns a seed into a fixed pool of CLI requests. A request is a
`(command, config)` pair, where `config` is the JSON document that
`wavefield <command> --config` reads. The closed loop in `run.py` walks the
pool in order and wraps around when a run outlasts it, so the same seed
always sends the same byte-identical configs.

Every generated point is admissible: the mass gap dot(pL, pL) - m^2 is at
least `MIN_GAP`, the transverse endpoints are at least `MIN_SEPARATION`
apart, and the rotated ray at the default angle stays clear of the caustics
of the magnetic kernel. The small-gap point where `gf` is silently wrong
(`SMALL_GAP_POINT`) is deliberately kept out of every pool; only the gate
self-test uses it.
"""

from __future__ import annotations

import json
import math
import random

#: Seed whose reference values are frozen in `reference.json`.
DEFAULT_SEED = 0

MIN_GAP = 1.5
MIN_SEPARATION = 0.3

#: The README example, which every generated config perturbs. The tolerances
#: are spelled out so that the gate holds the program to them even if its
#: defaults change.
README_FIELD = {"g": 0.9, "B": 0.5,
                "profile": {"kind": "circular", "amplitude": 0.4, "frequency": 1.1}}
README_EVAL = {"m": 0.8, "x_a": [0.1, -0.2, 0.3, 0.0], "x_b": [0.6, 0.4, -0.1, 0.5],
               "pL": [0.0, 0.0, 0.2, 2.0], "abs_tol": 1e-10, "rel_tol": 1e-8}

#: Gap 0.0324 with the default e0_max = 60: `gf` exits 0 with G wrong by
#: about 1.27 because the proper-time tail is cut off before it decays.
SMALL_GAP_POINT = {"field": README_FIELD,
                   "eval": {**README_EVAL, "pL": [0.0, 0.0, 0.0, 0.82]}}

#: The pulse of `span-pulse` and the phase spans abs(phi_b - phi_a) of its
#: grid. They are fixed because the cost of the cross phase jumps with the
#: adaptive subdivision of its nested quadrature: drawing them made the work
#: of one request vary by about 15 %, and with it the run-to-run spread.
PULSE = {"kind": "pulse", "amplitude": 0.4, "frequency": 1.1, "sigma": 1.5}
SPANS = (5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5)

#: Pool size per workload: distinct requests before the loop wraps around.
POOL_SIZES = {"grid-circular": 8, "span-pulse": 8, "dirac-circular": 8, "verify": 1}

WORKLOADS = tuple(POOL_SIZES)


def _r(x: float) -> float:
    """Round a draw so the JSON text stays short and exact."""
    return round(x, 6)


def _endpoints(rng: random.Random):
    """README endpoints, transverse slots jittered by up to 0.2 with
    separation at least MIN_SEPARATION. The longitudinal slots set the phase
    span, and the cross phase costs the square of it, so they move by 0.05
    at most."""
    jitter = (0.2, 0.2, 0.05, 0.05)
    while True:
        x_a = [_r(v + rng.uniform(-j, j)) for v, j in zip(README_EVAL["x_a"], jitter)]
        x_b = [_r(v + rng.uniform(-j, j)) for v, j in zip(README_EVAL["x_b"], jitter)]
        if math.hypot(x_b[0] - x_a[0], x_b[1] - x_a[1]) >= MIN_SEPARATION:
            return x_a, x_b


def _min_p3(m: float, p2: float) -> float:
    """Smallest pL3 whose mass gap p3^2 - p2^2 - m^2 reaches MIN_GAP."""
    return math.sqrt(MIN_GAP + p2 * p2 + m * m)


def _circular_point(rng: random.Random) -> dict:
    m = _r(rng.uniform(0.7, 0.9))
    p2 = _r(rng.uniform(-0.3, 0.3))
    x_a, x_b = _endpoints(rng)
    p3 = _r(_min_p3(m, p2) + rng.uniform(0.1, 0.6))
    return {"field": README_FIELD,
            "eval": {**README_EVAL, "m": m, "x_a": x_a, "x_b": x_b, "pL": [0.0, 0.0, p2, p3]}}


def _grid_circular(rng: random.Random) -> tuple:
    config = _circular_point(rng)
    ev = config["eval"]
    start = _min_p3(ev["m"], ev["pL"][2]) + rng.uniform(0.05, 0.2)
    step = rng.uniform(0.08, 0.12)
    config["grid"] = {"param": "pL3", "values": [_r(start + i * step) for i in range(16)]}
    return "gf", config


def _span_pulse(rng: random.Random) -> tuple:
    config = _circular_point(rng)
    config["field"] = {**README_FIELD, "profile": PULSE}
    ev = config["eval"]
    # phi = x2 - x3, so xb3 = xb2 - phi_a + span puts phi_b - phi_a at -span
    phi_a = ev["x_a"][2] - ev["x_a"][3]
    config["grid"] = {"param": "xb3",
                      "values": [_r(ev["x_b"][2] - phi_a + span) for span in SPANS]}
    return "gf", config


def _dirac_circular(rng: random.Random) -> tuple:
    return "dirac", _circular_point(rng)


def _verify(rng: random.Random) -> tuple:
    return "verify", {"field": README_FIELD, "eval": README_EVAL}


_MAKERS = {"grid-circular": _grid_circular, "span-pulse": _span_pulse,
           "dirac-circular": _dirac_circular, "verify": _verify}


def make_pool(workload: str, seed: int) -> list:
    """The workload's request pool for `seed`: a list of (command, config)."""
    rng = random.Random(f"{workload}/{seed}")
    return [_MAKERS[workload](rng) for _ in range(POOL_SIZES[workload])]


def config_text(config: dict) -> str:
    """Canonical JSON text of a config: what the CLI reads, and what the
    frozen reference is keyed by."""
    return json.dumps(config, sort_keys=True)


def eval_points(config: dict) -> list:
    """Every (m, x_a, x_b, pL) the config asks the CLI to evaluate."""
    ev = config["eval"]
    grid = config.get("grid")
    if grid is None:
        return [(ev["m"], ev["x_a"], ev["x_b"], ev["pL"])]
    slot = int(grid["param"][-1])
    points = []
    for value in grid["values"]:
        x_b, p_l = list(ev["x_b"]), list(ev["pL"])
        (x_b if grid["param"].startswith("xb") else p_l)[slot] = value
        points.append((ev["m"], ev["x_a"], x_b, p_l))
    return points


def admissibility_problems(config: dict) -> list:
    """Reasons the config's points are outside the benchmark's domain; empty
    when every point is admissible."""
    from wavefield.conventions import DEFAULT_CONTOUR_ANGLE as angle
    from wavefield.kernels import NEAR_CAUSTIC_THRESHOLD

    problems = []
    field = config["field"]
    gb = field["g"] * field["B"]
    # On e0 = s exp(i angle), |sin(e0 gB/2)| >= sinh(sin(angle) |e0 gB/2|), and
    # the kernel only treats |e0 gB/2| >= 1 as a possible caustic.
    if gb <= 0.0 or math.sinh(math.sin(angle)) < NEAR_CAUSTIC_THRESHOLD:
        problems.append(f"ray at angle {angle} can meet a caustic (gB = {gb})")
    for m, x_a, x_b, p_l in eval_points(config):
        gap = p_l[3] ** 2 - p_l[2] ** 2 - m * m
        if not gap >= MIN_GAP:
            problems.append(f"mass gap {gap} below {MIN_GAP} at pL = {p_l}")
        separation = math.hypot(x_b[0] - x_a[0], x_b[1] - x_a[1])
        if not separation >= MIN_SEPARATION:
            problems.append(f"transverse separation {separation} below {MIN_SEPARATION}")
        if p_l[2] - p_l[3] == 0.0:
            problems.append(f"dot(k, pL) vanishes at pL = {p_l}")
    return problems
