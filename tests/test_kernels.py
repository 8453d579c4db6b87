import math
import random
import warnings

import numpy as np
import pytest

from wavefield import kernels, verification
from wavefield.errors import DivisionByZero, RangeError
from wavefield.fields import (CircularProfile, FieldConfig, LinearProfile, PlaneWaveProfile,
                              PulseProfile, TabulatedProfile, ZeroProfile)
from wavefield.green import EvalContext, _prepare, spin_factor
from wavefield.kernels import phase_pass
from wavefield.minkowski import WAVE_K, dot
from wavefield.oracles import carrier_kernel, cross_phase_nested, drift_nested, free_kernel
from wavefield.verification import _oracle_exponents, _ray_kernel, _slope_terms

XA, XB = np.array([0.2, -0.1]), np.array([0.9, 0.4])
ZCFG = FieldConfig(g=1.0, B=0.6, profile=ZeroProfile())


def _kernel(phi, pL, cfg, phi0, sign=+1):
    """K(phi) integrated from phi0: the kernel of a pass from phi0 to phi."""
    return phase_pass(cfg, pL, phi0, phi, sign=sign).kernel_b


def _closed_kernel(phi, pL, cfg, phi0, sign=+1):
    """K(phi) integrated from phi0 for a circular or linear wave, by
    `oracles.carrier_kernel` on the carriers of its slope."""
    kp = dot(WAVE_K, pL).real
    return carrier_kernel(*_slope_terms(cfg.profile), cfg.g, kp, phi0, phi,
                          cfg.g * cfg.B / kp, sign)


def _cross_phase(cfg, pL, x_a, x_b):
    """Mixing exponent -i (g/2) (action + boundary term) of a path from x_a to
    x_b, drift Y at rest at phi_a; the boundary term is B (X1 Y2 - X2 Y1), X = x_b - Y."""
    phi_a = dot(WAVE_K, x_a).real
    run = phase_pass(cfg, pL, phi_a, dot(WAVE_K, x_b).real)
    (y1, y2), (x1, x2) = run.drift, x_b[:2] - run.drift
    return -0.5j * cfg.g * (run.action + cfg.B * (x1 * y2 - x2 * y1))


def test_kernel_free_limit_small_field():
    free = free_kernel(0.8, XA, XB)
    # rotation (gauge) phase ~ B; well inside 1e-8 at B = 1e-9
    assert _ray_kernel(0.8, 1e-9, XA, XB) == pytest.approx(free, rel=1e-8)


def test_kernel_exact_zero_field_branch():
    free = free_kernel(0.8, XA, XB)
    # same closed formula on both sides; scalar vs array arithmetic may
    # differ in the last bit
    assert _ray_kernel(0.8, 0.0, XA, XB) == pytest.approx(free, rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan), np.array([0.5, np.nan, 1.5])],
                         ids=["nan", "inf", "complex-nan", "array-with-nan"])
def test_a_non_finite_e0_is_refused(bad):
    # a RangeError naming e0, not nan values with RuntimeWarnings
    ctx = EvalContext(m=0.8, x_a=np.array([0.2, -0.1, 0.3, 0.0]), x_b=np.array([0.9, 0.4, -0.1, 0.5]),
                      pL=np.array([0.0, 0.0, 0.2, 2.0]), cfg=ZCFG)
    with pytest.raises(RangeError, match="e0"):
        spin_factor(bad, ctx)


@pytest.mark.parametrize("e0", [1e308, -1e308, np.array([0.5, 1e308])],
                         ids=["positive", "negative", "array"])
def test_spin_factor_refuses_a_phase_that_overflows(e0):
    # e0 is finite but w = e0 g B / 2 is not: a RangeError, not nan braces with RuntimeWarnings
    ctx = EvalContext(m=0.8, x_a=np.array([0.2, -0.1, 0.3, 0.0]), x_b=np.array([0.9, 0.4, -0.1, 0.5]),
                      pL=np.array([0.0, 0.0, 0.2, 2.0]), cfg=FieldConfig(g=0.9, B=5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="w = e0 g B / 2 must be finite"):
            spin_factor(e0, ctx)


def test_ray_kernel_at_short_time_has_the_free_kernel_magnitude():
    # sin(e0 g B / 2) is tiny at small e0 but no caustic: the kernel stays finite
    # and only its magnitude matches the free kernel (the magnetic one keeps its
    # e0-independent gauge phase on the cross term)
    value = _ray_kernel(1e-7, 0.6, XA, XB)
    assert np.isfinite(value.real) and np.isfinite(value.imag)
    assert abs(value) == pytest.approx(1.0 / (2.0 * np.pi * 1e-7), rel=1e-6)


def test_ray_kernel_far_up_the_upper_half_plane_overflows_nothing():
    # sin(e0 g B / 2) itself overflows there; the q-form, |q| <= 1, does not
    e0 = np.array([3000j, 5.0 + 3000j, 1e300j, 1e3 * np.exp(0.1j)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (0.6, -0.6):
            values = _ray_kernel(e0, b, XA, XB)
            assert np.isfinite(values).all()
            assert values.tolist() == [_ray_kernel(e, b, XA, XB) for e in e0.tolist()]


def test_kernel_on_rotated_ray_decays_at_origin():
    # upper-half-plane e0: the transverse Gaussian suppresses the 1/e0 pole
    for s in (1e-3, 1e-2, 1e-1):
        value = _ray_kernel(s * np.exp(1j * np.pi / 4), 0.6, XA, XB)
        assert np.isfinite(abs(value))
    tiny = abs(_ray_kernel(1e-3 * np.exp(1j * np.pi / 4), 0.6, XA, XB))
    assert tiny < 1e-30


def test_volkov_zero_profile_is_exact_zero():
    pL = np.array([0.0, 0.0, 0.1, 2.0])
    run = phase_pass(ZCFG, pL, -0.2, 0.7)
    assert run.kernel_b == 0.0 and run.nodes == 0
    assert run.action == 0.0 and run.drift.shape == (2,) and not run.drift.any()


def test_volkov_against_circular_closed_form():
    g, b, a, nu = 0.9, 0.5, 0.6, 1.3
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    cfg = FieldConfig(g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu))
    for phi in (-0.1, 0.5, 1.8):
        ref = _closed_kernel(phi, pL, cfg, -0.4)
        assert _kernel(phi, pL, cfg, -0.4) == pytest.approx(ref, abs=1e-12)


def test_volkov_sign_toggle_flips_integrand_only():
    g, b, a, nu = 0.9, 0.5, 0.6, 1.3
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    cfg = FieldConfig(g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu))
    flipped = _kernel(0.8, pL, cfg, -0.4, sign=-1)
    assert flipped == pytest.approx(_closed_kernel(0.8, pL, cfg, -0.4, sign=-1), abs=1e-12)
    assert flipped != pytest.approx(_kernel(0.8, pL, cfg, -0.4), abs=1e-6)
    # a tabulated line, which the natural spline reproduces exactly, against
    # its one carrier, slope / sqrt2 at frequency 0
    rng = random.Random(37)
    for _ in range(10):
        g, b, slope = rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        pL = np.array([0.0, 0.0, rng.uniform(-0.4, 0.4), rng.choice((-1, 1)) * rng.uniform(1.2, 2.5)])
        kp = dot(WAVE_K, pL).real
        phi_a, phi = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        grid = np.linspace(min(phi_a, phi) - 0.5, max(phi_a, phi) + 0.5, 9)
        cfg = FieldConfig(g=g, B=b, profile=TabulatedProfile(
            phi_grid=grid, a1=rng.uniform(-0.5, 0.5) + slope * grid, a2=np.zeros(grid.size)))
        flipped = _kernel(phi, pL, cfg, phi_a, sign=-1)
        ref = carrier_kernel([slope / math.sqrt(2.0)], [0.0], g, kp, phi_a, phi, g * b / kp, -1)
        assert flipped == pytest.approx(ref, abs=1e-12)
        assert flipped != pytest.approx(_kernel(phi, pL, cfg, phi_a), abs=1e-6)


def test_volkov_needs_longitudinal_momentum():
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.6, frequency=1.3))
    degenerate = np.array([0.0, 0.0, 1.0, 1.0])   # dot(k, pL) = 0
    with pytest.raises(DivisionByZero):
        phase_pass(cfg, degenerate, 0.0, 0.8)


def test_cross_phase_zero_without_profile_and_drift():
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    x_a = np.array([0.1, -0.2, 0.3, 0.0])
    x_b = np.array([0.6, 0.4, -0.1, 0.5])
    assert _cross_phase(ZCFG, pL, x_a, x_b) == 0.0


def test_cross_phase_pure_imaginary_for_real_data():
    # -i/2 g (real action integral): the exponent must sit on the imaginary axis
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    x_a = np.array([0.1, -0.2, 0.3, 0.0])
    x_b = np.array([0.6, 0.4, -0.1, 0.5])
    value = _cross_phase(cfg, pL, x_a, x_b)
    assert abs(value.real) < 1e-12
    assert abs(value.imag) > 1e-6


_GRID = np.linspace(-1.0, 3.0, 9)


@pytest.mark.parametrize("profile, span", [
    (CircularProfile(amplitude=0.4, frequency=1.1), 0.9),
    (CircularProfile(amplitude=0.4, frequency=1.1), -9.0),
    (LinearProfile(amplitude=0.6, frequency=0.9), 6.0),
    (PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5), 9.0),
    (PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5), -9.0),
    (TabulatedProfile(_GRID, np.exp(-_GRID ** 2 / 4.0), 0.3 * np.sin(_GRID)), 3.0),
], ids=["circular", "circular-back-9", "linear-6", "pulse-9", "pulse-back-9", "tabulated-3"])
def test_cross_phase_matches_nested_oracle(profile, span):
    # the one pass (cumulative sums on one panel set) against the literal
    # double integral, where every outer node re-solves the drift
    g, b = 0.9, 0.5
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    x_a = np.array([0.1, -0.2, -0.5 + (3.0 if span < 0 else 0.0), 0.0])
    x_b = np.array([0.6, 0.4, x_a[2] + span, 0.0])
    phi_a, phi_b = dot(WAVE_K, x_a).real, dot(WAVE_K, x_b).real
    assert phi_b - phi_a == pytest.approx(span)
    cfg = FieldConfig(g=g, B=b, profile=profile)
    knots = _GRID if isinstance(profile, TabulatedProfile) else ()
    ref, _ = cross_phase_nested(profile.components, g, b, dot(WAVE_K, pL).real, phi_a, phi_b,
                                x_b[:2], knots=knots)
    assert abs(_cross_phase(cfg, pL, x_a, x_b) - ref) <= 1e-12


def test_phase_pass_kernels_equal_the_single_kernel_views():
    cfg = FieldConfig(g=0.9, B=0.5, profile=PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    run = phase_pass(cfg, pL, 0.4, np.array([-2.0, 3.5]))
    for phi, k in zip((-2.0, 3.5), run.kernel_b):
        assert k == pytest.approx(_kernel(phi, pL, cfg, 0.4), abs=1e-13)
    assert run.nodes % 15 == 0 and run.nodes > 0
    assert 0.0 < run.error_estimate < 1e-11


@pytest.mark.parametrize("profile", [
    CircularProfile(amplitude=0.3, frequency=1.0),
    TabulatedProfile(phi_grid=np.linspace(-2.0, 2.0, 9), a1=np.linspace(-2.0, 2.0, 9) ** 2,
                     a2=np.zeros(9))], ids=["circular", "tabulated"])
def test_an_empty_set_of_phases_gives_empty_fields(profile):
    # as a zero profile does, instead of a TypeError from the hull of no phases
    pL = np.array([0.0, 0.0, 0.3, 1.6])
    cfg = FieldConfig(g=0.9, B=0.6, profile=profile)
    run = phase_pass(cfg, pL, 0.1, np.array([]))
    assert (np.shape(run.action), run.drift.shape, np.shape(run.kernel_b)) == ((0,), (0, 2), (0,))
    assert run.nodes == 0


def test_phase_pass_reads_repeated_phases_once():
    # exact repeats and phases one to three ulps apart, as a dirac stencil's
    # (x2 + h) - x3 and x2 - (x3 - h) give, are read at the smallest of them:
    # every entry has the bits of the pass over the distinct phases
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    distinct = np.array([-0.7, 0.35, 1.2])
    near = [np.nextafter(phi, np.inf) for phi in distinct]
    phases = np.array([distinct[1], near[1], distinct[0], distinct[1],
                       np.nextafter(near[1], np.inf), distinct[2], near[0], distinct[2],
                       np.nextafter(np.nextafter(near[2], np.inf), np.inf)])
    slots = [1, 1, 0, 1, 1, 2, 0, 2, 2]
    ref = phase_pass(cfg, pL, 0.4, distinct)

    def bits(run):
        return [np.asarray(a).tobytes() for a in (run.action, run.drift, run.kernel_b)]

    for shape in ((9,), (3, 3)):
        run = phase_pass(cfg, pL, 0.4, phases.reshape(shape))
        assert (np.shape(run.action), run.drift.shape, np.shape(run.kernel_b)) \
            == (shape, shape + (2,), shape)
        assert (run.nodes, run.error_estimate) == (ref.nodes, ref.error_estimate)
        assert bits(run) == [np.asarray(a)[slots].tobytes()
                             for a in (ref.action, ref.drift, ref.kernel_b)]
    one, pair = (phase_pass(cfg, pL, 0.4, phi) for phi in (distinct[2], [distinct[2], near[2]]))
    assert (np.ndim(one.action), one.drift.shape, np.ndim(one.kernel_b)) == (0, (2,), 0)
    assert bits(pair) == [np.stack([a, a]).tobytes()
                          for a in (one.action, one.drift, one.kernel_b)]


def _circular_drift_oracle(phi, phi_a, u_a, g, B, kp, a, nu):
    """u(phi) = Y0 + i Y1 for dY/dphi = (g/kp)(A - fY), A circular.

    In the complex coordinate the generator acts as -iB, so
    u' = rho*a*e^{i nu phi} + i rho B u with rho = g/kp.
    """
    rho = g / kp
    if abs(nu - rho * B) < 1e-12:
        raise ValueError("resonant oracle parameters")
    hom = np.exp(1j * rho * B * (phi - phi_a)) * u_a
    freq = nu - rho * B
    part = rho * a * np.exp(1j * rho * B * phi) * (
        np.exp(1j * freq * phi) - np.exp(1j * freq * phi_a)) / (1j * freq)
    return hom + part


def _drift_at_phi(phi, y0, cfg, pL, phi_a):
    """Y(phi) with Y(phi_a) = y0: the phase pass's drift (at rest at phi_a)
    plus the homogeneous rotation of y0 by the angle (g B / k.pL)(phi - phi_a)."""
    angle = cfg.g * cfg.B / dot(WAVE_K, pL).real * (phi - phi_a)
    c, s = np.cos(angle), np.sin(angle)
    forced = phase_pass(cfg, pL, phi_a, phi).drift
    return np.array([[c, -s], [s, c]]) @ y0 + forced


def test_drift_against_circular_oracle():
    g, B, a, nu = 0.9, 0.6, 0.5, 1.4
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    kp = dot(WAVE_K, pL).real
    cfg = FieldConfig(g=g, B=B, profile=CircularProfile(amplitude=a, frequency=nu))
    phi_a = -0.3
    y0 = np.array([0.2, -0.1])
    for phi in (0.1, 0.9, 2.0):
        y = _drift_at_phi(phi, y0, cfg, pL, phi_a)
        u = _circular_drift_oracle(phi, phi_a, y0[0] + 1j * y0[1], g, B, kp, a, nu)
        assert y[0] + 1j * y[1] == pytest.approx(u, abs=1e-11)


def test_drift_initial_condition():
    cfg = FieldConfig(g=0.9, B=0.6, profile=CircularProfile(amplitude=0.5, frequency=1.4))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    y0 = np.array([0.3, 0.1])
    y = _drift_at_phi(-0.3, y0, cfg, pL, phi_a=-0.3)
    assert np.allclose(y, y0, atol=1e-14)


def test_drift_parameterizations_agree():
    # the phase pass's drift (eps basis, cumulative sums on one panel set)
    # against the real-plane drift by the tanh-sinh rule at each end phase
    g, phi_a = 1.1, 0.2
    pL = np.array([0.0, 0.0, -0.1, 1.8])
    kp = dot(WAVE_K, pL).real
    for profile in (CircularProfile(amplitude=0.4, frequency=0.9),
                    PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5)):
        for B in (0.5, -0.7, 0.0):
            cfg = FieldConfig(g=g, B=B, profile=profile)
            for phi in (-0.9, 0.5325, 0.998, 1.53):
                drift = phase_pass(cfg, pL, phi_a, phi).drift
                ref = drift_nested(profile.components, g, B, kp, phi_a, phi)
                assert drift.shape == (2,) and drift.dtype == float
                assert np.max(np.abs(drift - ref)) < 1e-10


# -- seeded passes: long spans and tabulated knots ---------------------------

def _seeded_context(profile, B, span, phi_a=0.1):
    """A context from phi_a to phi_a + span, on g = 1.1."""
    x_a = np.array([0.3, -0.4, phi_a + 0.1, 0.1])
    x_b = np.array([-0.2, 0.5, phi_a + 0.1 + span, 0.1])
    return EvalContext(m=0.7, x_a=x_a, x_b=x_b, pL=np.array([0.0, 0.0, 0.3, 1.9]),
                       cfg=FieldConfig(g=1.1, B=B, profile=profile))


def _fastest(profile, lo, hi):
    """The fastest turn rate the profile declares on [lo, hi]."""
    return max(rate for *_, rate in profile.turn_rates(lo, hi))


def _exponent_error(ctx):
    """|`_prepare`'s e0-independent exponent - its terms from the oracles|."""
    return abs(_prepare([(ctx, ctx.x_b)])[0].constant[0] - _oracle_exponents([ctx])[0])


@pytest.mark.parametrize("span, B", [(5.0, 0.7), (-8.5, -0.6), (12.0, 0.4)])
@pytest.mark.parametrize("profile", [CircularProfile(amplitude=0.5, frequency=1.3),
                                     PulseProfile(amplitude=0.5, frequency=1.2, sigma=2.0)],
                         ids=["circular", "pulse"])
def test_seeded_pass_matches_the_oracles_on_long_spans(profile, span, B):
    # spans of 5 to 12 rotate by several times _SEED_RADIANS, so the pass is
    # seeded; the bounds are those of the classical-action-exponent and
    # phase-integral-closed-forms rows
    ctx = _seeded_context(profile, B, span)
    assert ctx.phi_b - ctx.phi_a == pytest.approx(span)
    beta = ctx.cfg.g * B / dot(WAVE_K, ctx.pL).real
    run = phase_pass(ctx.cfg, ctx.pL, ctx.phi_a, ctx.phi_b)
    rate = _fastest(profile, *sorted((ctx.phi_a, ctx.phi_b)))
    assert run.nodes >= 15 * math.ceil(abs(span) * (abs(beta) + rate) / 2.0) > 15
    assert _exponent_error(ctx) <= 1e-10
    if profile.kind == "circular":
        assert abs(run.kernel_b - _closed_kernel(ctx.phi_b, ctx.pL, ctx.cfg, ctx.phi_a)) <= 1e-8


def _random_spline(seed, lo=-6.0, hi=6.0, points=25):
    """A tabulated profile through random samples on an even grid from lo to hi."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(lo, hi, points)
    return TabulatedProfile(grid, rng.uniform(-0.5, 0.5, points), rng.uniform(-0.5, 0.5, points))


def test_seeded_pass_splits_a_tabulated_profile_at_its_knots():
    # a non-linear spline crossing 15 of its knots, against the nested oracles
    # split at the same knots
    profile = _random_spline(7)
    ctx = _seeded_context(profile, -0.8, 7.4, phi_a=-3.7)
    crossed = np.sum((profile.knots > min(ctx.phi_a, ctx.phi_b))
                     & (profile.knots < max(ctx.phi_a, ctx.phi_b)))
    assert crossed >= 6
    assert _exponent_error(ctx) <= 1e-10


def _seeded_panels(cfg, pL, phi_a, phi_b):
    """Panels of the seeded round: each gap between phi_a, phi_b and the knots
    between them, cut into equal panels of at most 2 radians of |beta| + turn rate."""
    cuts = sorted({phi_a, phi_b, *(k for k in np.asarray(cfg.profile.knots).tolist()
                                   if min(phi_a, phi_b) < k < max(phi_a, phi_b))})
    beta = abs(cfg.g * cfg.B / dot(WAVE_K, pL).real)
    return sum(max(1, math.ceil((hi - lo) * (beta + _fastest(cfg.profile, lo, hi)) / 2.0))
               for lo, hi in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("profile, span", [
    (PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5), 8.0),
    (_random_spline(11), -10.0),
], ids=["pulse-8", "tabulated-10"])
def test_seeded_pass_ends_in_its_seeded_round(profile, span):
    # a pulse on the README field over a span of 8, and a random spline with a
    # knot every 0.5 over a span of 10: the seeded round meets the tolerances,
    # so nothing is bisected
    cfg, pL = FieldConfig(g=0.9, B=0.5, profile=profile), np.array([0.0, 0.0, 0.2, 2.0])
    phi_a = 5.0 if span < 0 else -4.0
    panels = _seeded_panels(cfg, pL, phi_a, phi_a + span)
    assert panels > 1
    for _ in range(2):
        assert phase_pass(cfg, pL, phi_a, phi_a + span).nodes == 15 * panels


def test_a_profile_declaring_no_turn_rate_is_not_seeded(monkeypatch):
    # a user's profile without turn rates or knots is cut at phi_a and phi_b
    # alone, and so is one whose seeds alone would pass the node cap; the same
    # components declared circular are seeded
    class Plain(PlaneWaveProfile):
        def components(self, phi):
            return CircularProfile(amplitude=0.4, frequency=1.1).components(phi)

    class Recorded(Exception):
        pass

    def recorded(f, a, b, **kwargs):
        raise Recorded(sorted(kwargs["breakpoints"]))

    monkeypatch.setattr(kernels, "adaptive_quad", recorded)
    pL, cuts = np.array([0.0, 0.0, 0.2, 2.0]), []
    for profile in (Plain(), CircularProfile(amplitude=0.4, frequency=1e5),
                    CircularProfile(amplitude=0.4, frequency=1.1)):
        with pytest.raises(Recorded) as caught:
            phase_pass(FieldConfig(g=0.9, B=0.5, profile=profile), pL, -3.0, 6.0)
        cuts.append(caught.value.args[0])
    assert cuts[0] == cuts[1] == [-3.0, 6.0] and len(cuts[2]) > 2


@pytest.mark.parametrize("sigma, frequency, seeded, one_rate", [
    (0.05, 1.1, 255, 1560), (0.02, 1.1, 255, 3810), (0.6, 0.3, 150, 150), (1.5, 0.3, 75, 75),
    (1.5, 1.1, 105, 105)])
def test_a_pulse_is_seeded_at_its_envelope_rate_only_near_its_centre(
        monkeypatch, sigma, frequency, seeded, one_rate):
    # pass nodes from phi_a = -5 to 5; `one_rate` is the count with the whole
    # span seeded at max(frequency, 1/sigma). Narrow pulses cut at +-8 sigma
    # take fewer nodes than no seeds at all; where that cut would add panels,
    # or 1/sigma is the slower rate, the span keeps one rate
    cfg = FieldConfig(g=0.9, B=0.5, profile=PulseProfile(0.4, frequency, sigma))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    nodes = phase_pass(cfg, pL, -5.0, 5.0).nodes
    monkeypatch.setattr(kernels, "_seeds", lambda profile, edges, beta: edges)
    assert nodes == seeded <= min(one_rate, phase_pass(cfg, pL, -5.0, 5.0).nodes)


def test_seeds_with_an_infinite_turn_count_fall_back_to_the_edges():
    # a turn count of inf, as 1/sigma at a subnormal sigma or a rotation past
    # the largest float gives, passes the node cap before it is rounded: the
    # pass is left unseeded instead of raising OverflowError
    edges = [-0.6, 0.0, 5.0]
    for profile, beta in ((PulseProfile(0.4, 1.1, sigma=5e-324), 0.5),
                          (CircularProfile(0.4, 1e308), 1e308),
                          (CircularProfile(0.4, 1.1), float("inf"))):
        assert math.isinf(kernels._turns(profile.turn_rates(-0.6, 0.0)[-1][2], -0.6, 0.0, beta))
        assert kernels._seeds(profile, edges, beta) == edges
    # a gap whose whole count is inf still takes its pieces where they count:
    # a pulse without a carrier, at B = 0, turns within +-8 sigma only, in 8 panels
    seeds = kernels._seeds(PulseProfile(0.4, 0.0, sigma=1e-300), [-1e300, 1e300], 0.0)
    assert len(seeds) == 11 and seeds[1] == -8e-300 and seeds[-2] == 8e-300


def test_the_zero_profile_row_integrates_its_pass(monkeypatch):
    # the row's profile is zero but not flagged so: its K comes out of the
    # quadrature and the boundary term, not from the zero profile's shortcut
    runs = []

    def spy(requests):
        passes = kernels._phase_passes(requests)
        runs.extend((request[0], run) for request, run in zip(requests, passes))
        return passes

    monkeypatch.setattr(verification, "_phase_passes", spy)
    (row,) = [r for r in verification.check_phase_integral_oracles()
              if r.name == "phase-integral-zero-profile-exact"]
    (run,) = [run for cfg, run in runs if cfg is verification._ZERO_SAMPLES]
    assert row.passed and row.max_deviation == 0.0 and row.tolerance == 0.0
    assert run.nodes > 0 and run.kernel_b == 0


def test_the_tabulated_lines_of_criterion_7_lie_on_linspace_grids(monkeypatch):
    # the check builds each line's 9 knots by np.linspace's own arithmetic on
    # Python floats: they must be np.linspace's knots, bit for bit
    grids = []

    def spy(requests):
        grids.extend(cfg.profile.phi_grid for cfg, *_ in requests
                     if cfg is not verification._ZERO_SAMPLES
                     and type(cfg.profile) is TabulatedProfile)
        return kernels._phase_passes(requests)

    monkeypatch.setattr(verification, "_phase_passes", spy)
    verification.check_phase_integral_oracles()
    assert len(grids) == 13
    for grid in grids:
        assert grid.tobytes() == np.linspace(grid[0], grid[-1], 9).tobytes()


_PIN_PL = np.array([0.0, 0.0, 0.2, 2.0])
_PIN_CIRCULAR = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))
_PIN_PULSE = FieldConfig(g=0.9, B=0.5, profile=PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5))
_PIN_TABULATED = FieldConfig(g=0.9, B=0.5, profile=TabulatedProfile(
    np.linspace(-2.0, 2.0, 9), np.array([0.1, 0.3, -0.2, 0.5, 0.0, 0.2, -0.4, 0.1, 0.05]),
    np.array([0.0, 0.2, 0.1, -0.3, 0.4, 0.0, 0.1, -0.2, 0.0])))

#: (field, phi_a, phi_b, tolerances) of five passes: the README context's one
#: read, a dirac stencil's seven phases, a 9-knot tabulated profile, the
#: span-pulse pulse over a span of 8.5, and that pulse at rel_tol 1e-13, which
#: takes it past its seeded round (120 nodes against 90).
_PIN_CASES = {
    "one-read": (_PIN_CIRCULAR, 0.3, -0.6, {}),
    "stencil": (_PIN_CIRCULAR, 0.3,
                -0.6 + np.array([0.0, 0.01, -0.01, 0.02, -0.02, 0.04, -0.04]), {}),
    "tabulated": (_PIN_TABULATED, 0.3, -1.7, {}),
    "pulse-span": (_PIN_PULSE, 0.3, 0.3 - 8.5, {}),
    "rounds": (_PIN_PULSE, 0.3, 0.3 - 8.5, {"rel_tol": 1e-13}),
}

#: Each field of those passes as (type, shape, repr of each entry), with the
#: node count and the repr of the error estimate, recorded before the pass's
#: per-call overhead was cut: that work changed no arithmetic, so no bit moved.
_PINNED_PASSES = {
    'one-read': {
        'action': ('float64', (), ['0.06895329927055435']),
        'drift': ('ndarray', (2,), ['0.16889780032247922', '-0.008875290188513551']),
        'kernel_b': ('complex128', (), ['(-0.0015368233129618991+0.06829173178998875j)']),
        'nodes': 15, 'error_estimate': '2.9450041233697075e-17'},
    'stencil': {
        'action': ('ndarray', (7,), ['0.06895329927055434', '0.06824890616023417',
                                     '0.06965581767055488', '0.06754264791509329',
                                     '0.07035645212639766', '0.0661245760201163',
                                     '0.07175203398859542']),
        'drift': ('ndarray', (7, 2), ['0.16889780032247922', '-0.008875290188513551',
                                      '0.16728991468088092', '-0.008078008059042694',
                                      '0.17049420747741842', '-0.0096859465729731',
                                      '0.16567070895648273', '-0.007294219004404426',
                                      '0.172078979074735', '-0.010509856684007975',
                                      '0.16239897742539972', '-0.0057675867692626726',
                                      '0.17521299408964083', '-0.012196947517852712']),
        'kernel_b': ('ndarray', (7,), ['(-0.0015368233129619008+0.06829173178998875j)',
                                       '(-0.0016388192433553547+0.06756692734213761j)',
                                       '(-0.0014322699372848417+0.0690151504004432j)',
                                       '(-0.0017382513828006537+0.06684075689112652j)',
                                       '(-0.0013251655696946089+0.06973716338245003j)',
                                       '(-0.0019293994461858045+0.06538439752845014j)',
                                       '(-0.0011033302092878956+0.07117689351688565j)']),
        'nodes': 105, 'error_estimate': '2.7603501909714242e-17'},
    'tabulated': {
        'action': ('float64', (), ['0.11721749369097825']),
        'drift': ('ndarray', (2,), ['0.11744755759321913', '0.12222147112196033']),
        'kernel_b': ('complex128', (), ['(-0.02442462037164805-0.011699343458374025j)']),
        'nodes': 75, 'error_estimate': '4.9170493009661864e-17'},
    'pulse-span': {
        'action': ('float64', (), ['0.10508203579826042']),
        'drift': ('ndarray', (2,), ['0.10892076618238371', '0.17648228052330853']),
        'kernel_b': ('complex128', (), ['(-0.07318734985586742+0.0596569799207686j)']),
        'nodes': 90, 'error_estimate': '1.190108808962869e-12'},
    'rounds': {
        'action': ('float64', (), ['0.10508203579826043']),
        'drift': ('ndarray', (2,), ['0.10892076618238376', '0.17648228052330844']),
        'kernel_b': ('complex128', (), ['(-0.07318734985586742+0.0596569799207686j)']),
        'nodes': 120, 'error_estimate': '5.789005845790392e-13'},
}


@pytest.mark.parametrize("case", list(_PIN_CASES))
def test_phase_pass_keeps_its_pinned_bits(case):
    cfg, phi_a, phi_b, tolerances = _PIN_CASES[case]
    run = phase_pass(cfg, _PIN_PL, phi_a, phi_b, **tolerances)
    pinned = _PINNED_PASSES[case]
    for name in ("action", "drift", "kernel_b"):
        value = getattr(run, name)
        assert (type(value).__name__, np.shape(value),
                [repr(v) for v in np.ravel(value).tolist()]) == pinned[name], name
    assert (run.nodes, repr(run.error_estimate)) == (pinned["nodes"], pinned["error_estimate"])
