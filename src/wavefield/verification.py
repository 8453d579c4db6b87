"""One-shot verification suite.

Every closed-form building block is re-derived here through an independent
route (direct matrix algebra, brute-force lattice sums, antiderivative
oracles, finite differences, contour re-evaluation at a second angle) and
compared at a fixed tolerance. Criterion 11 applies the Dirac operator two
ways at zero profile: `dirac_apply` differences the production G, and the
analytic side takes G and its x_b gradient from `oracles.zero_profile_gradient`,
which integrates Schwinger's closed form on the Euclidean axis by an exp-sinh
rule and shares no code with the production ray. Criterion 7's
`classical-action-exponent` row takes the e0-independent exponent that
`green._prepare` forms in one expression and rebuilds it (`_oracle_exponent`)
from `oracles.cross_phase_nested`'s exponent and the gauge phase at the drift
that it returns, and its `dressed-braces-closed-form` row compares the braces
M+- that `green._prepare` forms with the printed ones, `oracles.dressed_braces`
at K from `oracles.volkov_kernel_circular` integrated from phi_a. Its
`phase-locality` row adds bumps to the profile outside [phi_a, phi_b] and
requires G unchanged: k.p is conserved, so the wave phase runs from phi_a to
phi_b along the classical path and G sees the profile there only. Criterion
numbers have gaps.
The limit checks that `limits` shares evaluate production first, so a point
outside the domain raises the production error (exit 4), not an oracle's. `run_all` is what the
`verify` CLI command executes; each check also has a focused unit test.
Criterion 12 byte-compares two runs of the `gf` and `identities` commands (a
run that exits non-zero or writes no output fails the row, and the detail says
which), and compares the seeded checks' reports (criterion 2 and criterion 7's
`check_phase_integral_oracles`) across two runs: inside `run_all` the first run
is the table's own, keyed by the check objects in `_CHECKS`, so each seeded
check runs once more; `check_determinism()` called alone runs both. The four
CLI runs share one temporary directory and one config file; each writes and
reads back output files of its own, so no run can pass on another's.

Each seeded check draws from its own `random.Random(seed)`, so the suite is
deterministic run to run and `verify` never loads `numpy.random`.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace

import numpy as np

from .conventions import CSV_SCHEMA_VERSION, METRIC_DIAG, convention_ledger
from .fields import (CircularProfile, FieldConfig, LinearProfile, PlaneWaveProfile,
                     PulseProfile, TabulatedProfile, ZeroProfile)
from .green import EvalContext, _prepare, dirac_apply, green_function, total_potential_lowered
from .kernels import phase_pass, schwinger_kernel
from .minkowski import (EPS, EPS_CONJ, GAMMA, IDENTITY4, METRIC, P_MINUS, P_PLUS,
                        UNIT_FIELD_MIXED, WAVE_K, dot)
from .oracles import (cross_phase_nested, dressed_braces, free_kernel, free_propagator,
                      richardson_extrapolate, sliced_kernel, volkov_kernel_circular,
                      volkov_kernel_constant_slope, zero_profile_gradient, zero_profile_green)

_EPS64 = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    detail: str


def _result(criterion: int, name: str, deviation: float, tolerance: float,
            detail: str) -> CheckResult:
    deviation = float(deviation)
    return CheckResult(criterion=criterion, name=name, max_deviation=deviation,
                       tolerance=float(tolerance), passed=bool(deviation <= tolerance),
                       detail=detail)


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


def _uniforms(rng: random.Random, low: float, high: float, n: int) -> np.ndarray:
    """n draws of rng.uniform(low, high), in order, as a float array."""
    return np.array([rng.uniform(low, high) for _ in range(n)])


# -- criterion 1 ---------------------------------------------------------

def check_clifford_algebra() -> list[CheckResult]:
    products = GAMMA[:, None] @ GAMMA[None, :]          # gamma^mu gamma^nu, all 16 pairs
    target = 2.0 * np.diag(METRIC)[:, :, None, None] * IDENTITY4
    dev_anti = _maxabs(products + products.transpose(1, 0, 2, 3) - target)

    dev_sum = _maxabs(P_PLUS + P_MINUS - IDENTITY4)
    dev_proj = max(_maxabs(P_PLUS @ P_PLUS - P_PLUS), _maxabs(P_MINUS @ P_MINUS - P_MINUS),
                   _maxabs(P_PLUS @ P_MINUS), _maxabs(P_MINUS @ P_PLUS))
    return [
        _result(1, "clifford-anticommutators", dev_anti, 1e-12,
                "{gamma^mu, gamma^nu} vs 2 g^mu nu times the identity, all 16 pairs"),
        _result(1, "projector-completeness", dev_sum, 1e-15, "P+ + P- vs the identity"),
        _result(1, "projector-idempotence-orthogonality", dev_proj, 1e-12,
                "P+ P+ vs P+, P- P- vs P-, P+ P- and P- P+ vs zero"),
    ]


# -- criterion 2 ---------------------------------------------------------

def check_basis_identities() -> list[CheckResult]:
    dev_null = max(abs(dot(EPS, EPS)), abs(dot(WAVE_K, WAVE_K)),
                   abs(dot(WAVE_K, EPS)), abs(dot(WAVE_K, EPS_CONJ)))
    dev_norm = abs(dot(EPS, EPS_CONJ) - 1.0)

    rng = random.Random(102)
    b = _uniforms(rng, -2.0, 2.0, 10)[:, None]
    field = b[..., None] * UNIT_FIELD_MIXED
    dev_eig = max(_maxabs(field @ EPS - 1j * b * EPS),
                  _maxabs(field @ EPS_CONJ + 1j * b * EPS_CONJ))
    return [
        _result(2, "null-contractions-exact", dev_null, 0.0,
                "eps.eps, k.k, k.eps, k.eps* are identically zero in floats"),
        _result(2, "normalization-within-rounding", dev_norm, 4.0 * _EPS64,
                "eps.eps* carries the 1/sqrt(2) squaring ulp"),
        _result(2, "field-tensor-eigenvectors", dev_eig, 1e-12, "10 random B"),
    ]


# -- criterion 5 ---------------------------------------------------------

def check_sliced_oracle_agreement() -> list[CheckResult]:
    rng = random.Random(105)
    dev_rel = 0.0
    worst_order = np.inf
    for _ in range(5):
        e0 = rng.uniform(0.3, 1.2)
        g = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.2, 1.0)
        xa = _uniforms(rng, -1.0, 1.0, 2)
        xb = _uniforms(rng, -1.0, 1.0, 2)
        while float(np.hypot(*(xb - xa))) < 0.3:
            xb = _uniforms(rng, -1.0, 1.0, 2)
        cfg = FieldConfig(g=g, B=b, profile=ZeroProfile())
        exact = schwinger_kernel(e0, xa, xb, cfg)
        ns = [8, 16, 32, 64]
        values = [sliced_kernel(n, e0, g, b, xa, xb) for n in ns]
        limit, order = richardson_extrapolate(ns, values)
        dev_rel = max(dev_rel, abs(limit - exact) / abs(exact))
        worst_order = min(worst_order, order)

    # both endpoints on the 1-axis (see weak_field_kernel_limit)
    cases = ((rng.uniform(0.3, 1.5), rng.uniform(0.5, 1.5), np.array([rng.uniform(0.2, 0.6), 0.0]),
              np.array([rng.uniform(0.9, 1.5), 0.0])) for _ in range(3))
    return [
        _result(5, "time-sliced-kernel-agreement", dev_rel, 1e-3,
                f"Richardson over N=8..64, observed order >= {worst_order:.2f}"),
        weak_field_kernel_limit(cases),
    ]


# -- criterion 7 ---------------------------------------------------------

def _dressed_braces_deviation() -> float:
    """Largest entry difference of `_prepare`'s braces M+- from the printed
    ones at K from the circular closed form integrated from phi_a, over 10
    circular contexts (B and volkov_sign of both signs)."""
    rng = random.Random(114)
    dev = 0.0
    for i in range(10):
        g, a = rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.0)
        b = rng.uniform(0.3, 1.0) * (1 if i % 2 else -1)
        point = _random_point(rng)
        sign, kp = 1 if i % 4 < 2 else -1, dot(WAVE_K, point["pL"]).real
        nu = rng.uniform(0.6, 2.0)
        while abs(sign * g * b / kp + nu) < 0.05:
            nu = rng.uniform(0.6, 2.0)
        ctx = EvalContext(volkov_sign=sign, cfg=FieldConfig(
            g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu)), **point)
        plus, minus = dressed_braces(volkov_kernel_circular(
            ctx.phi_b, g=g, kp=kp, phi0=ctx.phi_a, beta=g * b / kp, a=a, nu=nu, sign=sign))
        pre = _prepare(ctx, ctx.x_b)
        dev = max(dev, _maxabs(pre.plus[0] - plus), _maxabs(pre.minus[0] - minus))
    return dev


#: Zero everywhere but not flagged `is_zero`: the phase pass integrates it, so
#: the zero-profile row sees the K that its quadrature and boundary term give.
_ZERO_SAMPLES = FieldConfig(g=1.0, B=0.5, profile=TabulatedProfile(
    phi_grid=np.linspace(-1.0, 1.0, 5), a1=np.zeros(5), a2=np.zeros(5)))


def check_phase_integral_oracles() -> list[CheckResult]:
    rng = random.Random(107)
    dev = 0.0
    for i in range(50):
        g = rng.uniform(0.5, 1.5)
        pl = np.array([0.0, 0.0, rng.uniform(-0.4, 0.4),
                       rng.uniform(1.2, 2.5) * (1 if i % 2 else -1)])
        kp = dot(WAVE_K, pl).real
        phi_a = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(-1.0, 1.0)
        kind = i % 3
        if kind == 0:
            a, nu = rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
            cfg = FieldConfig(g=g, B=0.0, profile=CircularProfile(amplitude=a, frequency=nu))
            ref = volkov_kernel_circular(phi, g=g, kp=kp, phi0=phi_a, beta=0.0, a=a, nu=nu)
        elif kind == 1:
            # constant-slope potential realized as a tabulated profile through
            # collinear samples (the natural spline reproduces a line exactly)
            slope = rng.uniform(0.3, 1.0)
            offset = rng.uniform(-0.5, 0.5)
            b = rng.uniform(0.3, 1.0)
            beta = g * b / kp
            grid = np.linspace(min(phi_a, phi) - 0.5, max(phi_a, phi) + 0.5, 9)
            cfg = FieldConfig(g=g, B=b, profile=TabulatedProfile(
                phi_grid=grid, a1=offset + slope * grid, a2=np.zeros(grid.size)))
            ref = volkov_kernel_constant_slope(phi, g=g, kp=kp, phi0=phi_a, beta=beta,
                                               c=complex(slope / np.sqrt(2.0)))
        else:
            a, nu = rng.uniform(0.2, 1.0), rng.uniform(0.6, 2.0)
            b = rng.uniform(0.3, 1.0)
            beta = g * b / kp
            while abs(beta + nu) < 0.05:
                nu = rng.uniform(0.6, 2.0)
            cfg = FieldConfig(g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu))
            ref = volkov_kernel_circular(phi, g=g, kp=kp, phi0=phi_a, beta=beta, a=a, nu=nu)
        dev = max(dev, abs(phase_pass(cfg, pl, phi_a, phi).kernel_b - ref))

    zero_val = phase_pass(_ZERO_SAMPLES, np.array([0.0, 0.0, 0.1, 2.0]), -0.3, 0.7).kernel_b
    return [
        _result(7, "phase-integral-closed-forms", dev, 1e-8, "50 random draws, 3 profile kinds"),
        _result(7, "dressed-braces-closed-form", _dressed_braces_deviation(), 1e-12,
                "10 circular contexts (B, volkov_sign of both signs) vs the printed M+-"),
        _result(7, "phase-integral-zero-profile-exact", abs(zero_val), 0.0,
                "K at a tabulated profile of zero samples (g = 1, B = 0.5), through the "
                "phase pass's quadrature, is exactly zero"),
    ]


def _oracle_exponent(ctx: EvalContext) -> complex:
    """The e0-independent exponent that `green._prepare` forms in one
    expression, from its terms by the oracles: i pL.dx^L, the nested mixing
    exponent and the magnetic gauge phase at the nested drift, both rules
    split at the profile's knots."""
    cfg, x_a, x_b = ctx.cfg, ctx.x_a, ctx.x_b
    cross, (y1, y2) = cross_phase_nested(cfg.profile.components, cfg.g, cfg.B,
                                         dot(WAVE_K, ctx.pL).real, ctx.phi_a, ctx.phi_b,
                                         x_b[:2], cfg.profile.knots)
    gauge = 0.5j * cfg.g * cfg.B * ((x_b[0] - y1) * x_a[1] - (x_b[1] - y2) * x_a[0])
    return 1j * dot(ctx.pL, x_b - x_a) + cross + gauge


def check_classical_action_exponent() -> list[CheckResult]:
    """`green._prepare`'s e0-independent exponent against `_oracle_exponent`."""
    rng = random.Random(113)
    dev = 0.0
    for make in (CircularProfile, lambda a, nu: PulseProfile(a, nu, sigma=1.5), LinearProfile):
        for sign in (1.0, -1.0):
            profile = make(rng.uniform(0.2, 0.8), rng.uniform(0.6, 1.8))
            cfg = FieldConfig(g=rng.uniform(0.5, 1.5), B=sign * rng.uniform(0.3, 1.0),
                              profile=profile)
            ctx = _random_context(rng, cfg)
            dev = max(dev, abs(_prepare(ctx, ctx.x_b).constant[0] - _oracle_exponent(ctx)))
    return [_result(7, "classical-action-exponent", dev, 1e-10,
                    "6 contexts (circular, pulse, linear; B of both signs) vs nested oracles")]


class _Bumped(PlaneWaveProfile):
    """`base` plus, on its first component, a bump (1 - t^2)^3 for |t| < 1 at
    each centre c, t = (phi - c) / width, and nothing elsewhere. Inside the
    phase interval it is `base`, so it takes base's `knots` and `turn_rates`:
    the phase pass seeds the two alike."""

    def __init__(self, base: PlaneWaveProfile, centres, width: float):
        self.base, self.centres, self.width, self.knots = base, centres, width, base.knots

    def turn_rates(self, lo, hi):
        return self.base.turn_rates(lo, hi)

    def components(self, phi):
        a1, a2 = self.base.components(phi)
        for centre in self.centres:
            t = (np.asarray(phi) - centre) / self.width
            a1 = a1 + np.where(np.abs(t) < 1.0, (1.0 - t * t) ** 3, 0.0)
        return a1, a2


def _bumped_outside(ctx: EvalContext, gap: float, width: float) -> EvalContext:
    """`ctx` with two bumps of half-width `width` added to its profile, one
    `gap` below the phase interval [phi_a, phi_b] and one `gap` above it."""
    lo, hi = sorted((ctx.phi_a, ctx.phi_b))
    profile = _Bumped(ctx.cfg.profile, (lo - gap - width, hi + gap + width), width)
    return replace(ctx, cfg=replace(ctx.cfg, profile=profile))


def check_phase_locality() -> list[CheckResult]:
    """k.p is conserved, so the wave phase runs from phi_a to phi_b along the
    classical path: G must not see the profile outside [phi_a, phi_b]. Bumps
    below and above the interval leave G unchanged to max(abs_tol, rel_tol |G|)."""
    rng = random.Random(115)
    dev = 0.0
    for profile, sign in ((CircularProfile(0.4, 1.1), 1.0), (PulseProfile(0.5, 1.3, sigma=1.0), -1.0)):
        ctx = _random_context(rng, FieldConfig(g=rng.uniform(0.5, 1.5),
                                               B=sign * rng.uniform(0.3, 1.0), profile=profile))
        value = green_function(ctx).matrix
        bumped = green_function(_bumped_outside(ctx, 0.5, 1.0)).matrix
        bound = max(ctx.abs_tol, ctx.rel_tol * float(np.linalg.norm(value)))
        dev = max(dev, float(np.linalg.norm(bumped - value)) / bound)
    return [_result(7, "phase-locality", dev, 1.0,
                    "circular with B > 0 and pulse with B < 0, bumps below and above "
                    "[phi_a, phi_b]; |dG| over max(abs_tol, rel_tol |G|)")]


# -- limits: criteria 5, 8 and 10, and the `limits` command ---------------

#: Zero profile at B = 0, where G is the free propagator times the identity.
FREE_FIELD = FieldConfig(g=1.0, B=0.0, profile=ZeroProfile())


def weak_field_kernel_limit(cases) -> CheckResult:
    """Magnetic kernel at B = 1e-4 against the free kernel over (e0, g, xa, xb)
    cases; with both endpoints on the 1-axis the gauge (rotation) phase of the
    magnetic kernel vanishes and the genuine B -> 0 limit is exposed."""
    dev, n = 0.0, 0
    for n, (e0, g, xa, xb) in enumerate(cases, 1):
        ref = free_kernel(e0, xa, xb)
        cfg = FieldConfig(g=g, B=1e-4, profile=ZeroProfile())
        dev = max(dev, abs(schwinger_kernel(e0, xa, xb, cfg) - ref) / abs(ref))
    return _result(5, "small-field-free-kernel-limit", dev, 1e-6,
                   f"{n} (e0, g, x_a, x_b) cases at B = 1e-4, zero profile, vs the free kernel")


def zero_profile_limit(contexts) -> CheckResult:
    """Each context with its profile set to zero against Schwinger's closed form."""
    dev, n = 0.0, 0
    for n, ctx in enumerate(contexts, 1):
        ctx = replace(ctx, cfg=replace(ctx.cfg, profile=ZeroProfile()))
        # production first: it raises the documented error outside the domain
        value = green_function(ctx).matrix
        ref = zero_profile_green(ctx.x_a, ctx.x_b, ctx.pL, ctx.m, ctx.cfg.g * ctx.cfg.B)
        dev = max(dev, _maxabs(value - ref))
    return _result(8, "zero-profile-route-equivalence", dev, 1e-10,
                   f"{n} context(s), profile set to zero, entrywise vs Schwinger's closed form")


def free_field_limit(contexts) -> CheckResult:
    """Each context's endpoints and momentum in FREE_FIELD against the scalar
    free propagator times the identity."""
    dev, n = 0.0, 0
    for n, ctx in enumerate(contexts, 1):
        ctx = replace(ctx, cfg=FREE_FIELD)
        value = green_function(ctx).matrix
        ref = free_propagator(ctx.x_a, ctx.x_b, ctx.pL, ctx.m)
        dev = max(dev, _maxabs(value - ref * IDENTITY4) / abs(ref))
    return _result(10, "free-field-reduction", dev, 1e-5,
                   f"{n} context(s) at B = 0, zero profile, vs the scalar free propagator times 1")


# -- criteria 8-10: random evaluation contexts ---------------------------

def _random_point(rng: random.Random) -> dict:
    """m, x_a, x_b and pL of a random context, the endpoints at least 0.3 apart
    in the transverse plane."""
    m = rng.uniform(0.5, 1.0)
    p2 = rng.uniform(-0.4, 0.4)
    p3 = rng.uniform(1.5, 2.5) * (1.0 if rng.random() < 0.5 else -1.0)
    x_a = _uniforms(rng, -0.8, 0.8, 4)
    x_b = _uniforms(rng, -0.8, 0.8, 4)
    while float(np.hypot(x_b[0] - x_a[0], x_b[1] - x_a[1])) < 0.3:
        x_b = _uniforms(rng, -0.8, 0.8, 4)
    return dict(m=m, x_a=x_a, x_b=x_b, pL=np.array([0.0, 0.0, p2, p3]))


def _random_context(rng: random.Random, cfg: FieldConfig) -> EvalContext:
    return EvalContext(cfg=cfg, **_random_point(rng))


def check_zero_wave_vector_equivalence() -> list[CheckResult]:
    rng = random.Random(108)
    contexts = (_random_context(rng, FieldConfig(g=rng.uniform(0.4, 1.2), B=rng.uniform(0.3, 1.0),
                                                 profile=ZeroProfile()))
                for _ in range(10))
    return [zero_profile_limit(contexts)]


def check_contour_invariance() -> list[CheckResult]:
    rng = random.Random(109)
    profiles = [
        ZeroProfile(),
        ZeroProfile(),
        CircularProfile(amplitude=0.3, frequency=1.1),
        CircularProfile(amplitude=0.5, frequency=0.8),
        PulseProfile(amplitude=0.4, frequency=1.3, sigma=1.5),
    ]
    dev = 0.0
    for profile in profiles:
        cfg = FieldConfig(g=rng.uniform(0.4, 1.2), B=rng.uniform(0.3, 1.0), profile=profile)
        ctx = _random_context(rng, cfg)
        shipped = green_function(ctx).matrix
        low = green_function(replace(ctx, theta=np.pi / 6.0)).matrix
        dev = max(dev, _maxabs(low - shipped) / _maxabs(shipped))
    return [_result(9, "contour-angle-invariance", dev, 1e-4,
                    "theta = pi/6 vs the default pi/2, 5 contexts (3 with plane-wave profiles)")]


def check_free_field_reduction() -> list[CheckResult]:
    rng = random.Random(110)
    contexts = (_random_context(rng, FREE_FIELD) for _ in range(3))
    return [free_field_limit(contexts)]


# -- criterion 11 --------------------------------------------------------

def _analytic_dirac(ctx: EvalContext):
    value, grads = zero_profile_gradient(ctx.x_a, ctx.x_b, ctx.pL, ctx.m, ctx.cfg.g * ctx.cfg.B)
    a_low = total_potential_lowered(ctx, ctx.x_b)
    out = ctx.m * value
    for mu in range(4):
        out = out + 1j * GAMMA[mu] @ (grads[mu] - ctx.cfg.g * a_low[mu] * value)
    scale = max(float(np.linalg.norm(g)) for g in grads)
    return out, scale


def check_derivative_consistency() -> list[CheckResult]:
    rng = random.Random(111)
    results = []
    for label, b, tol in (("free", 0.0, 1e-4), ("constant-field", 0.7, 1e-3)):
        dev = 0.0
        for _ in range(3):
            cfg = FieldConfig(g=1.0, B=b, profile=ZeroProfile())
            ctx = _random_context(rng, cfg)
            analytic, scale = _analytic_dirac(ctx)
            fd = dirac_apply(ctx)
            dev = max(dev, float(np.linalg.norm(fd - analytic)) / scale)
        results.append(_result(11, f"derivative-consistency-{label}", dev, tol,
                               "finite-difference operator application vs analytic gradient"))
    return results


# -- criterion 12 --------------------------------------------------------

_DETERMINISM_CONFIG = {
    "field": {"g": 0.9, "B": 0.6,
              "profile": {"kind": "circular", "amplitude": 0.3, "frequency": 1.1}},
    "eval": {"m": 0.8, "x_a": [0.1, -0.2, 0.3, 0.0], "x_b": [0.6, 0.4, -0.1, 0.5],
             "pL": [0.0, 0.0, 0.2, 2.0]},
    "grid": {"param": "xb1", "values": [0.3, 0.4, 0.5]},
}


def _command_outputs(commands, config: dict) -> list:
    """(exit status, CSV bytes then sidecar bytes) of one CLI run of each
    command in turn. The runs share one temporary directory and one config
    file, and each writes and reads back output files of its own, so no run
    can pass on another's; the bytes are None for a run that exits non-zero
    or writes no output."""
    import tempfile
    from pathlib import Path

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp, "run.json")
        cfg_path.write_text(json.dumps(config))
        runs = []
        for i, command in enumerate(commands):
            out_path = Path(tmp, f"{i}-{command}.csv")
            sidecar = Path(f"{out_path}.json")
            status = cli.main([command, "--config", str(cfg_path), "--out", str(out_path)])
            written = status == 0 and out_path.exists() and sidecar.exists()
            runs.append((status, out_path.read_bytes() + sidecar.read_bytes() if written else None))
        return runs


def _serialized(report) -> str:
    return json.dumps([asdict(r) for r in report], sort_keys=True)


def check_determinism(first=None) -> list[CheckResult]:
    """Criterion 12: the `gf` and `identities` CLI outputs byte-compared across
    two invocations, and the seeded checks' reports compared across two runs.
    `first` maps a seeded check, as `_CHECKS` holds it, to the report of a run
    already made (`run_all` passes the table's own), so that check runs once
    more here; a check it lacks runs twice."""
    first = first or {}
    commands = ("gf", "gf", "identities", "identities")
    runs = _command_outputs(commands, _DETERMINISM_CONFIG)
    # a failed run fails the row: it has no bytes to compare
    failures = [f"{command} exited with {status}" if status else f"{command} wrote no output"
                for command, (status, output) in zip(commands, runs) if output is None]
    dev_cli = 1.0 if failures or runs[0] != runs[1] or runs[2] != runs[3] else 0.0
    dev_checks = 0.0
    # looked up when called, so a wrapped check is the key `run_all` used
    for fn in (check_basis_identities, check_phase_integral_oracles):
        earlier = first[fn] if fn in first else fn()
        if _serialized(earlier) != _serialized(fn()):
            dev_checks = 1.0
    return [
        _result(12, "cli-output-bit-determinism", dev_cli, 0.0,
                "; ".join(["gf and identities runs byte-compared across two invocations",
                           *failures])),
        _result(12, "check-suite-determinism", dev_checks, 0.0,
                "criterion 2 and the criterion-7 phase integrals: two runs as "
                "serialized reports (in verify, the table's own and one re-run)"),
    ]


# -- ledger consistency (runs with `verify` alongside the numbered checks) --

def check_ledger_consistency() -> list[CheckResult]:
    ledger = convention_ledger()
    ok = (tuple(ledger["metric_diag"]) == tuple(METRIC_DIAG)
          and tuple(METRIC_DIAG) == tuple(float(v) for v in METRIC)
          and ledger["csv_schema_version"] == CSV_SCHEMA_VERSION
          and "+i*theta" in ledger["contour_rotation"])
    return [_result(0, "convention-ledger-consistency", 0.0 if ok else 1.0, 0.0,
                    "published ledger values match compiled constants")]


_CHECKS = (
    check_ledger_consistency,
    check_clifford_algebra,
    check_basis_identities,
    check_sliced_oracle_agreement,
    check_phase_integral_oracles,
    check_classical_action_exponent,
    check_phase_locality,
    check_zero_wave_vector_equivalence,
    check_contour_invariance,
    check_free_field_reduction,
    check_derivative_consistency,
    check_determinism,
)


def run_all() -> list[CheckResult]:
    """Every check in `_CHECKS` order; criterion 12 re-runs the seeded checks
    once and compares them with this table's reports."""
    reports = {}
    for fn in _CHECKS:
        reports[fn] = fn(reports) if fn is check_determinism else fn()
    return [result for report in reports.values() for result in report]
