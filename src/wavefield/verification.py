"""One-shot verification suite.

Every closed-form building block is re-derived here through an independent
route (direct matrix algebra, brute-force lattice sums, antiderivative
oracles, finite differences, contour re-evaluation at a second angle) and
compared at a fixed tolerance. Criterion 5 compares the transverse kernel that
the ray integrates, `folded_kernel`'s factors with the gauge phase
(`_ray_kernel`), with the time-sliced lattice and, at B = 1e-4, with the free
kernel. Criterion 11 applies the Dirac operator two
ways at zero profile: `dirac_apply` differences the production G, and the
analytic side takes G and its x_b gradient from `oracles.zero_profile_gradient`,
which integrates Schwinger's closed form on the Euclidean axis by an exp-sinh
rule and shares no code with the production ray. Criterion 7's
`classical-action-exponent` row takes the e0-independent exponent that
`green._prepare` forms in one expression and rebuilds it (`_oracle_exponents`)
from an oracle's mixing exponent and the gauge phase at the drift that it
returns: `oracles.cross_phase_closed`, the classical path by elementary
exponential integrals, for its circular and linear contexts, all in one call,
and `oracles.cross_phase_nested`, the literal double integral, for its pulse
contexts. Its `phase-integral-closed-forms` row compares the phase pass's K
with `oracles.carrier_kernel`, K from the carriers of dot(eps, A'), on four
kinds of profile (circular at B = 0 and at B != 0, a tabulated line, linear),
drawn without avoiding resonance, where the closed form grows linearly. Its
`dressed-braces-closed-form` row compares the braces M+- that `green._prepare`
forms with the printed ones, `oracles.dressed_braces` at K from the same
`carrier_kernel` call, integrated from phi_a. Its
`phase-locality` row adds bumps to the profile outside [phi_a, phi_b] and
requires G unchanged: k.p is conserved, so the wave phase runs from phi_a to
phi_b along the classical path and G sees the profile there only. Criterion
numbers have gaps.
A check that compares production with an oracle evaluates production at all
of its random draws first, as one stack of contexts (criterion 7's 50 phase
passes and its zero-profile pass, its 10 and its 6 `_prepare`s, the G of
criteria 7 to 10 per check, criterion 11's 6 `dirac_apply`s), which runs
each round of the quadratures once for all of them and gives every draw the
bits it has alone; so a point outside the domain raises the production error
(exit 4 from `limits`), not an oracle's; then it calls each oracle once,
with all of its draws stacked (`sliced_kernel` once per N).
`run_all` is what the `verify` CLI command executes; each check also has a
focused unit test.
Criterion 12 byte-compares two runs of the `gf` and `identities` commands (a
run that exits non-zero or writes no output fails the row, and the detail says
which), and compares the seeded checks' reports (criterion 2 and criterion 7's
`check_phase_integral_oracles`) across two runs, as the reprs of their rows, so
every field counts and two NaN deviations agree: inside `run_all` the first run
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
from dataclasses import dataclass, replace

import numpy as np

from .conventions import (CSV_SCHEMA_VERSION, DEFAULT_ABS_TOL, DEFAULT_REL_TOL,
                          DEFAULT_VOLKOV_SIGN, METRIC_DIAG, convention_ledger)
from .fields import (CircularProfile, FieldConfig, LinearProfile, PlaneWaveProfile,
                     PulseProfile, TabulatedProfile, ZeroProfile)
from .green import (EvalContext, _dirac_applies, _green_functions, _prepare,
                    total_potential_lowered)
from .kernels import _phase_passes, folded_kernel
from .minkowski import (EPS, EPS_CONJ, GAMMA, IDENTITY4, METRIC, P_MINUS, P_PLUS, SQRT2,
                        UNIT_FIELD_MIXED, WAVE_K, dot, light_cone)
from .oracles import (carrier_kernel, cross_phase_closed, cross_phase_nested, dressed_braces,
                      free_kernel, free_propagator, richardson_extrapolate, sliced_kernel,
                      zero_profile_gradient, zero_profile_green)

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
    return float(np.abs(m).max())


def _uniforms(rng: random.Random, low: float, high: float, n: int) -> np.ndarray:
    """n draws of rng.uniform(low, high), in order, as a float array: uniform's
    own low + (high - low) u on each of n rng.random() draws."""
    return np.array([low + (high - low) * rng.random() for _ in range(n)])


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

def _ray_kernel(e0, b: float, xa, xb):
    """The transverse kernel that the ray integrates, at one e0 or an array of
    them, b = g B, between the transverse slots 0 and 1 of xa and xb, gauge phase
    included: `folded_kernel`'s n exp(c rho2) q^{1/2}, with no domain check."""
    rho2 = (xb[0] - xa[0]) ** 2 + (xb[1] - xa[1]) ** 2
    n, c, _ = folded_kernel(e0, b)
    return n * np.exp(c * rho2) \
        * np.exp(0.5j * b * (xb[0] * xa[1] - xb[1] * xa[0]) + 0.5j * abs(b) * e0)


def check_sliced_oracle_agreement() -> list[CheckResult]:
    rng = random.Random(105)
    draws, exact = [], []
    for _ in range(5):
        e0 = rng.uniform(0.3, 1.2)
        g = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.2, 1.0)
        xa = _uniforms(rng, -1.0, 1.0, 2)
        xb = _uniforms(rng, -1.0, 1.0, 2)
        while float(np.hypot(*(xb - xa))) < 0.3:
            xb = _uniforms(rng, -1.0, 1.0, 2)
        draws.append((e0, g, b, xa, xb))
        exact.append(_ray_kernel(e0, g * b, xa, xb))
    # one lattice call per N, all five draws stacked
    lattices = _columns(draws)
    ns = [8, 16, 32, 64]
    limit, order = richardson_extrapolate(ns, [sliced_kernel(n, *lattices) for n in ns])
    dev_rel = np.max(np.abs(limit - exact) / np.abs(exact))
    worst_order = np.min(order)

    # both endpoints on the 1-axis (see weak_field_kernel_limit)
    cases = ((rng.uniform(0.3, 1.5), rng.uniform(0.5, 1.5), np.array([rng.uniform(0.2, 0.6), 0.0]),
              np.array([rng.uniform(0.9, 1.5), 0.0])) for _ in range(3))
    return [
        _result(5, "time-sliced-kernel-agreement", dev_rel, 1e-3,
                f"Richardson over N=8..64, observed order >= {worst_order:.2f}"),
        weak_field_kernel_limit(cases),
    ]


# -- criterion 7 ---------------------------------------------------------

def _dressed_braces_draws() -> list:
    """The 10 circular contexts (B and volkov_sign of both signs) of the
    dressed-braces row, each with the arguments of `carrier_kernel` for K at
    phi_b, integrated from phi_a."""
    rng = random.Random(114)
    draws = []
    for i in range(10):
        g, a = rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.0)
        b = rng.uniform(0.3, 1.0) * (1 if i % 2 else -1)
        point = _random_point(rng)
        sign, kp = 1 if i % 4 < 2 else -1, light_cone(point["pL"])
        profile = CircularProfile(amplitude=a, frequency=rng.uniform(0.6, 2.0))
        ctx = EvalContext(volkov_sign=sign, cfg=FieldConfig(g=g, B=b, profile=profile), **point)
        draws.append((ctx, (*_slope_terms(profile), g, kp, ctx.phi_a, ctx.phi_b, g * b / kp, sign)))
    return draws


def _columns(rows) -> tuple:
    """The columns of equal-length rows, each as one array: the arguments of
    one oracle call for all the rows."""
    return tuple(np.array(column) for column in zip(*rows))


#: Zero everywhere but not flagged `is_zero`: the phase pass integrates it, so
#: the zero-profile row sees the K that its quadrature and boundary term give.
_ZERO_SAMPLES = FieldConfig(g=1.0, B=0.5, profile=TabulatedProfile(
    phi_grid=np.linspace(-1.0, 1.0, 5), a1=np.zeros(5), a2=np.zeros(5)))


def check_phase_integral_oracles() -> list[CheckResult]:
    rng = random.Random(107)
    requests, closed = [], []       # the phase passes, and `carrier_kernel`'s arguments
    for i in range(50):
        g = rng.uniform(0.5, 1.5)
        p2, p3 = rng.uniform(-0.4, 0.4), rng.uniform(1.2, 2.5) * (1 if i % 8 < 4 else -1)
        pl, kp = np.array([0.0, 0.0, p2, p3]), p2 - p3          # kp = light_cone(pl)
        phi_a, phi = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        kind = i % 4
        if kind == 1:
            # a line realized as a tabulated profile through collinear samples
            # (the natural spline reproduces a line exactly): one carrier at 0
            slope, offset, b = rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.0)
            lo, hi = min(phi_a, phi) - 0.5, max(phi_a, phi) + 0.5
            # np.linspace(lo, hi, 9) by its own arithmetic: k (hi - lo) / 8 + lo, then hi
            grid = [k * ((hi - lo) / 8) + lo for k in range(8)] + [hi]
            cfg = FieldConfig(g=g, B=b, profile=TabulatedProfile(
                phi_grid=np.array(grid), a1=np.array([offset + slope * p for p in grid]),
                a2=np.zeros(9)))
            terms = (slope / SQRT2, 0.0), (0.0, 0.0)
        else:
            a, nu = rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
            b = 0.0 if kind == 0 else rng.uniform(0.3, 1.0)
            profile = (LinearProfile if kind == 3 else CircularProfile)(a, nu)
            cfg = FieldConfig(g=g, B=b, profile=profile)
            terms = _slope_terms(profile)
        requests.append((cfg, pl, phi_a, phi))
        closed.append((*terms, g, kp, phi_a, phi, g * b / kp, 1))
    # the zero-profile row's pass rides in the same stack, and every pass
    # takes the default sign and tolerances
    requests.append((_ZERO_SAMPLES, np.array([0.0, 0.0, 0.1, 2.0]), -0.3, 0.7))
    *runs, zero_run = _phase_passes(
        [(*request, DEFAULT_VOLKOV_SIGN, DEFAULT_ABS_TOL, DEFAULT_REL_TOL) for request in requests])
    kernels = [run.kernel_b for run in runs]
    braces = _dressed_braces_draws()
    prepared = _prepare([(ctx, ctx.x_b) for ctx, _ in braces])

    # one closed-form call for both rows
    closed_form = carrier_kernel(*_columns(closed + [args for _, args in braces]))
    dev = _maxabs(np.array(kernels) - closed_form[:len(kernels)])
    # _prepare's braces M+- against the printed ones at the closed-form K
    plus, minus = dressed_braces(closed_form[len(kernels):])
    dev_braces = max(_maxabs(np.array([pre.plus[0] for pre in prepared]) - plus),
                     _maxabs(np.array([pre.minus[0] for pre in prepared]) - minus))

    zero_val = zero_run.kernel_b
    return [
        _result(7, "phase-integral-closed-forms", dev, 1e-8,
                "50 random draws, 4 profile kinds: circular at B = 0, tabulated line, "
                "circular at B != 0, linear"),
        _result(7, "dressed-braces-closed-form", dev_braces, 1e-12,
                "10 circular contexts (B, volkov_sign of both signs) vs the printed M+-"),
        _result(7, "phase-integral-zero-profile-exact", abs(zero_val), 0.0,
                "K at a tabulated profile of zero samples (g = 1, B = 0.5), through the "
                "phase pass's quadrature, is exactly zero"),
    ]


def _wave_terms(profile: PlaneWaveProfile):
    """(c, w) with A_c = a1 + i a2 = sum_k c_k e^{i w_k phi}, two terms, for
    the profiles that are such sums, else None: a linear profile is
    (a/2, +-nu), a circular one (a, nu) and a zero term."""
    if type(profile) is CircularProfile:
        return (profile.amplitude, 0.0), (profile.frequency, 0.0)
    if type(profile) is LinearProfile:
        half = 0.5 * profile.amplitude
        return (half, half), (profile.frequency, -profile.frequency)
    return None


def _slope_terms(profile: PlaneWaveProfile):
    """(c, w) with dot(eps, A') = sum_k c_k e^{i w_k phi}, the carriers of
    `carrier_kernel`, from the terms of A_c (`_wave_terms`): each
    differentiated, i w_k c_k, over sqrt2."""
    amplitudes, frequencies = _wave_terms(profile)
    return tuple(1j * w * c / SQRT2 for c, w in zip(amplitudes, frequencies)), frequencies


def _oracle_exponents(contexts: list) -> list:
    """The e0-independent exponent that `green._prepare` forms in one
    expression, per context, from its terms by the oracles: i pL.dx^L, the
    mixing exponent and the magnetic gauge phase at the oracle's drift. The
    contexts whose profile is a sum of carriers (`_wave_terms`) take
    `cross_phase_closed`, all in one call; the rest take `cross_phase_nested`,
    both rules split at the profile's knots."""
    terms = [_wave_terms(ctx.cfg.profile) for ctx in contexts]
    carriers = [i for i, wave in enumerate(terms) if wave is not None]
    paths = [None] * len(contexts)
    if carriers:
        stack = [contexts[i] for i in carriers]
        exponents, (y1, y2) = cross_phase_closed(*_columns(
            (*terms[i], ctx.cfg.g, ctx.cfg.B, light_cone(ctx.pL), ctx.phi_a, ctx.phi_b,
             ctx.x_b[:2]) for i, ctx in zip(carriers, stack)))
        for j, i in enumerate(carriers):
            paths[i] = exponents[j], (y1[j], y2[j])
    values = []
    for ctx, path in zip(contexts, paths):
        cfg, x_a, x_b = ctx.cfg, ctx.x_a, ctx.x_b
        cross, (y1, y2) = path or cross_phase_nested(
            cfg.profile.components, cfg.g, cfg.B, light_cone(ctx.pL), ctx.phi_a, ctx.phi_b,
            x_b[:2], cfg.profile.knots)
        gauge = 0.5j * cfg.g * cfg.B * ((x_b[0] - y1) * x_a[1] - (x_b[1] - y2) * x_a[0])
        values.append(1j * dot(ctx.pL, x_b - x_a) + cross + gauge)
    return values


def check_classical_action_exponent() -> list[CheckResult]:
    """`green._prepare`'s e0-independent exponent against `_oracle_exponents`."""
    rng = random.Random(113)
    contexts = []
    for make in (CircularProfile, lambda a, nu: PulseProfile(a, nu, sigma=1.5), LinearProfile):
        for sign in (1.0, -1.0):
            profile = make(rng.uniform(0.2, 0.8), rng.uniform(0.6, 1.8))
            cfg = FieldConfig(g=rng.uniform(0.5, 1.5), B=sign * rng.uniform(0.3, 1.0),
                              profile=profile)
            contexts.append(_random_context(rng, cfg))
    shipped = [pre.constant[0] for pre in _prepare([(ctx, ctx.x_b) for ctx in contexts])]
    dev = max(abs(value - oracle) for value, oracle in zip(shipped, _oracle_exponents(contexts)))
    return [_result(7, "classical-action-exponent", dev, 1e-10,
                    "6 contexts (circular, pulse, linear; B of both signs): circular and "
                    "linear vs the closed-form classical path, pulse vs nested oracles")]


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
    contexts = []
    for profile, sign in ((CircularProfile(0.4, 1.1), 1.0), (PulseProfile(0.5, 1.3, sigma=1.0), -1.0)):
        ctx = _random_context(rng, FieldConfig(g=rng.uniform(0.5, 1.5),
                                               B=sign * rng.uniform(0.3, 1.0), profile=profile))
        contexts += [ctx, _bumped_outside(ctx, 0.5, 1.0)]
    values = [value.matrix for value in _green_functions(contexts)]
    dev = 0.0
    for ctx, value, bumped in zip(contexts[::2], values[::2], values[1::2]):
        bound = max(ctx.abs_tol, ctx.rel_tol * float(np.linalg.norm(value)))
        dev = max(dev, float(np.linalg.norm(bumped - value)) / bound)
    return [_result(7, "phase-locality", dev, 1.0,
                    "circular with B > 0 and pulse with B < 0, bumps below and above "
                    "[phi_a, phi_b]; |dG| over max(abs_tol, rel_tol |G|)")]


# -- limits: criteria 5, 8 and 10, and the `limits` command ---------------

#: Zero profile at B = 0, where G is the free propagator times the identity.
FREE_FIELD = FieldConfig(g=1.0, B=0.0, profile=ZeroProfile())


def weak_field_kernel_limit(cases) -> CheckResult:
    """The ray's kernel at B = 1e-4 against the free kernel over (e0, g, xa, xb)
    cases; with both endpoints on the 1-axis the gauge (rotation) phase of the
    magnetic kernel vanishes and the genuine B -> 0 limit is exposed."""
    dev, n = 0.0, 0
    for n, (e0, g, xa, xb) in enumerate(cases, 1):
        ref = free_kernel(e0, xa, xb)
        dev = max(dev, abs(_ray_kernel(e0, g * 1e-4, xa, xb) - ref) / abs(ref))
    return _result(5, "small-field-free-kernel-limit", dev, 1e-6,
                   f"{n} (e0, g, x_a, x_b) cases at B = 1e-4, zero profile, vs the free kernel")


def _stacked_points(contexts: list) -> tuple:
    """(x_a, x_b, pL, m, g B) of the contexts as arrays, one row per context:
    the arguments of one zero-profile oracle call for all of them."""
    return _columns((ctx.x_a, ctx.x_b, ctx.pL, ctx.m, ctx.cfg.g * ctx.cfg.B) for ctx in contexts)


def zero_profile_limit(contexts) -> CheckResult:
    """Each context with its profile set to zero against Schwinger's closed form."""
    contexts = [ctx if type(ctx.cfg.profile) is ZeroProfile
                else replace(ctx, cfg=replace(ctx.cfg, profile=ZeroProfile())) for ctx in contexts]
    # production first, for every context: it raises the documented error
    # outside the domain before any oracle runs
    values = np.array([value.matrix for value in _green_functions(contexts)])
    dev = _maxabs(values - zero_profile_green(*_stacked_points(contexts)))
    return _result(8, "zero-profile-route-equivalence", dev, 1e-10,
                   f"{len(contexts)} context(s), profile set to zero, entrywise vs Schwinger's "
                   f"closed form")


def free_field_limit(contexts) -> CheckResult:
    """Each context's endpoints and momentum in FREE_FIELD against the scalar
    free propagator times the identity."""
    contexts = [ctx if ctx.cfg is FREE_FIELD else replace(ctx, cfg=FREE_FIELD) for ctx in contexts]
    values = [value.matrix for value in _green_functions(contexts)]     # production first
    dev = 0.0
    for ctx, value in zip(contexts, values):
        ref = free_propagator(ctx.x_a, ctx.x_b, ctx.pL, ctx.m)
        dev = max(dev, _maxabs(value - ref * IDENTITY4) / abs(ref))
    return _result(10, "free-field-reduction", dev, 1e-5,
                   f"{len(contexts)} context(s) at B = 0, zero profile, vs the scalar free "
                   f"propagator times 1")


# -- criteria 8-10: random evaluation contexts ---------------------------

def _random_point(rng: random.Random) -> dict:
    """m, x_a, x_b and pL of a random context, the endpoints at least 0.3 apart
    in the transverse plane."""
    m, p2, p3 = rng.uniform(0.5, 1.0), rng.uniform(-0.4, 0.4), rng.uniform(1.5, 2.5)
    pL = np.array([0.0, 0.0, p2, p3 if rng.random() < 0.5 else -p3])
    x_a, x_b = _uniforms(rng, -0.8, 0.8, 8).reshape(2, 4)
    while float(np.hypot(x_b[0] - x_a[0], x_b[1] - x_a[1])) < 0.3:
        x_b = _uniforms(rng, -0.8, 0.8, 4)
    return dict(m=m, x_a=x_a, x_b=x_b, pL=pL)


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
    contexts = []
    for profile in profiles:
        cfg = FieldConfig(g=rng.uniform(0.4, 1.2), B=rng.uniform(0.3, 1.0), profile=profile)
        ctx = _random_context(rng, cfg)
        contexts += [ctx, replace(ctx, theta=np.pi / 6.0)]
    values = [value.matrix for value in _green_functions(contexts)]
    dev = 0.0
    for shipped, low in zip(values[::2], values[1::2]):
        dev = max(dev, _maxabs(low - shipped) / _maxabs(shipped))
    return [_result(9, "contour-angle-invariance", dev, 1e-4,
                    "theta = pi/6 vs the default pi/2, 5 contexts (3 with plane-wave profiles)")]


def check_free_field_reduction() -> list[CheckResult]:
    rng = random.Random(110)
    contexts = (_random_context(rng, FREE_FIELD) for _ in range(3))
    return [free_field_limit(contexts)]


# -- criterion 11 --------------------------------------------------------

def _analytic_dirac(contexts: list, potentials: np.ndarray) -> tuple:
    """(D G, scale) per context: the Dirac operator applied to the zero-profile
    G through its analytic x_b gradient, from one oracle call for all the
    contexts, with each context's lowered potential at x_b; scale is the
    largest Frobenius norm of its four derivatives."""
    points = _stacked_points(contexts)
    value, grads = zero_profile_gradient(*points)
    m, g = points[3][:, None, None], np.array([ctx.cfg.g for ctx in contexts])[:, None, None]
    out = m * value
    for mu in range(4):
        out = out + 1j * GAMMA[mu] @ (grads[mu] - g * potentials[:, mu, None, None] * value)
    return out, np.max(np.linalg.norm(np.array(grads), axis=(-2, -1)), axis=0)


def check_derivative_consistency() -> list[CheckResult]:
    rng = random.Random(111)
    rows = (("free", 0.0, 1e-4), ("constant-field", 0.7, 1e-3))
    contexts = [_random_context(rng, FieldConfig(g=1.0, B=b, profile=ZeroProfile()))
                for _, b, _ in rows for _ in range(3)]
    # production first: the finite-difference side and the potential
    fd = np.array(_dirac_applies(contexts))
    potentials = np.array([total_potential_lowered(ctx, ctx.x_b) for ctx in contexts])
    analytic, scale = _analytic_dirac(contexts, potentials)
    dev = np.linalg.norm(fd - analytic, axis=(-2, -1)) / scale
    return [_result(11, f"derivative-consistency-{label}", np.max(dev[3 * i:3 * i + 3]), tol,
                    "finite-difference operator application vs analytic gradient")
            for i, (label, _, tol) in enumerate(rows)]


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

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        config_path = f"{tmp}/run.json"
        with open(config_path, "w") as fh:
            fh.write(json.dumps(config))
        runs = []
        for i, command in enumerate(commands):
            out = f"{tmp}/{i}.csv"
            status = cli.main([command, "--config", config_path, "--out", out])
            try:
                with open(out, "rb") as table, open(f"{out}.json", "rb") as sidecar:
                    runs.append((status, table.read() + sidecar.read() if status == 0 else None))
            except FileNotFoundError:
                runs.append((status, None))
        return runs


def check_determinism(first=None) -> list[CheckResult]:
    """Criterion 12: the `gf` and `identities` CLI outputs byte-compared across
    two invocations, and the seeded checks' reports compared, row by row and
    field by field, across two runs.
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
        if repr(earlier) != repr(fn()):
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
