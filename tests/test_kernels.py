import numpy as np
import pytest

from wavefield.errors import DivisionByZero, KernelSingularity
from wavefield.fields import (CircularProfile, FieldConfig, LinearProfile, PulseProfile,
                              TabulatedProfile, ZeroProfile)
from wavefield.kernels import (NEAR_CAUSTIC_THRESHOLD, near_caustic, phase_pass, schwinger_kernel,
                               spin_determinant)
from wavefield.minkowski import WAVE_K, dot
from wavefield.oracles import (cross_phase_nested, drift_nested, free_kernel,
                               volkov_kernel_closed_form)

XA, XB = np.array([0.2, -0.1]), np.array([0.9, 0.4])
ZCFG = FieldConfig(g=1.0, B=0.6, profile=ZeroProfile())


def _kernel(phi, pL, cfg, phi0, sign=+1):
    """K(phi) from a pass that starts and ends at phi."""
    return phase_pass(cfg, pL, phi, phi, phi0, sign=sign).kernel_b


def _cross_phase(cfg, pL, x_a, x_b):
    """Mixing exponent -i (g/2) (action + boundary term) of a path from x_a to
    x_b, drift Y at rest at phi_a; the boundary term is B (X1 Y2 - X2 Y1), X = x_b - Y."""
    phi_a = dot(WAVE_K, x_a).real
    run = phase_pass(cfg, pL, phi_a, dot(WAVE_K, x_b).real, phi_a)
    (y1, y2), (x1, x2) = run.drift, x_b[:2] - run.drift
    return -0.5j * cfg.g * (run.action + cfg.B * (x1 * y2 - x2 * y1))


def test_kernel_free_limit_small_field():
    tiny = FieldConfig(g=1.0, B=1e-9, profile=ZeroProfile())
    free = free_kernel(0.8, XA, XB)
    # rotation (gauge) phase ~ B; well inside 1e-8 at B = 1e-9
    assert schwinger_kernel(0.8, XA, XB, tiny) == pytest.approx(free, rel=1e-8)


def test_kernel_exact_zero_field_branch():
    none = FieldConfig(g=1.0, B=0.0, profile=ZeroProfile())
    free = free_kernel(0.8, XA, XB)
    # same closed formula on both sides; scalar vs array arithmetic may
    # differ in the last bit
    assert schwinger_kernel(0.8, XA, XB, none) == pytest.approx(free, rel=1e-15)


def test_kernel_caustic_raises_but_short_time_does_not():
    caustic_e0 = 2.0 * np.pi / 0.6
    with pytest.raises(KernelSingularity):
        schwinger_kernel(caustic_e0, XA, XB, ZCFG)
    with pytest.raises(KernelSingularity):
        schwinger_kernel(0.0, XA, XB, ZCFG)
    # sin(e0 g B / 2) is also tiny at small e0, which must stay evaluable;
    # only the magnitude matches the free kernel there (the magnetic one
    # keeps its e0-independent gauge phase on the cross term)
    value = schwinger_kernel(1e-7, XA, XB, ZCFG)
    assert np.isfinite(value.real) and np.isfinite(value.imag)
    assert abs(value) == pytest.approx(1.0 / (2.0 * np.pi * 1e-7), rel=1e-6)


def test_near_caustic_flag_location():
    caustic_e0 = 2.0 * np.pi / 0.6
    assert near_caustic(caustic_e0 * 0.999, ZCFG)
    assert not near_caustic(caustic_e0 * 0.8, ZCFG)
    assert not near_caustic(1e-6, ZCFG)   # short-time end is not a caustic
    assert 0.0 < NEAR_CAUSTIC_THRESHOLD < 1.0


def test_kernel_on_rotated_ray_decays_at_origin():
    # upper-half-plane e0: the transverse Gaussian suppresses the 1/e0 pole
    for s in (1e-3, 1e-2, 1e-1):
        value = schwinger_kernel(s * np.exp(1j * np.pi / 4), XA, XB, ZCFG)
        assert np.isfinite(abs(value))
    tiny = abs(schwinger_kernel(1e-3 * np.exp(1j * np.pi / 4), XA, XB, ZCFG))
    assert tiny < 1e-30


def test_spin_determinant_value():
    assert spin_determinant(1.2, ZCFG) == pytest.approx(np.cos(1.2 * 0.6 / 2.0))


def test_volkov_zero_profile_is_exact_zero():
    pL = np.array([0.0, 0.0, 0.1, 2.0])
    run = phase_pass(ZCFG, pL, 0.7, 0.7, phi0=-0.2)
    assert run.kernel_a == 0.0 and run.kernel_b == 0.0 and run.nodes == 0
    assert run.action == 0.0 and run.drift.shape == (2,) and not run.drift.any()


def test_volkov_against_circular_closed_form():
    g, b, a, nu = 0.9, 0.5, 0.6, 1.3
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    kp = dot(WAVE_K, pL).real
    cfg = FieldConfig(g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu))
    params = dict(g=g, kp=kp, phi0=-0.4, beta=g * b / kp, a=a, nu=nu)
    for phi in (-0.1, 0.5, 1.8):
        ref = volkov_kernel_closed_form("circular_profile", params, phi)
        assert _kernel(phi, pL, cfg, -0.4) == pytest.approx(ref, abs=1e-12)


def test_volkov_sign_toggle_flips_integrand_only():
    g, b, a, nu = 0.9, 0.5, 0.6, 1.3
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    kp = dot(WAVE_K, pL).real
    cfg = FieldConfig(g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu))
    params = dict(g=g, kp=kp, phi0=-0.4, beta=g * b / kp, a=a, nu=nu, sign=-1)
    flipped = _kernel(0.8, pL, cfg, -0.4, sign=-1)
    assert flipped == pytest.approx(volkov_kernel_closed_form("circular_profile", params, 0.8),
                                    abs=1e-12)
    assert flipped != pytest.approx(_kernel(0.8, pL, cfg, -0.4), abs=1e-6)


def test_volkov_needs_longitudinal_momentum():
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.6, frequency=1.3))
    degenerate = np.array([0.0, 0.0, 1.0, 1.0])   # dot(k, pL) = 0
    with pytest.raises(DivisionByZero):
        phase_pass(cfg, degenerate, 0.8, 0.8, 0.0)


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
    ref = cross_phase_nested(profile.components, g, b, dot(WAVE_K, pL).real, phi_a, phi_b,
                             x_b[:2], knots=knots)
    assert abs(_cross_phase(cfg, pL, x_a, x_b) - ref) <= 1e-12


def test_phase_pass_kernels_equal_the_single_kernel_views():
    cfg = FieldConfig(g=0.9, B=0.5, profile=PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    run = phase_pass(cfg, pL, -2.0, 3.5, 0.4)
    for phi, k in ((-2.0, run.kernel_a), (3.5, run.kernel_b)):
        assert k == pytest.approx(_kernel(phi, pL, cfg, 0.4), abs=1e-13)
    # the drift does not depend on phi0: a pass starting at phi_a gives it too
    drift = phase_pass(cfg, pL, -2.0, 3.5, -2.0).drift
    assert np.max(np.abs(run.drift - drift)) < 1e-13
    assert run.nodes % 15 == 0 and run.nodes > 0
    assert 0.0 < run.error_estimate < 1e-11


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
    forced = phase_pass(cfg, pL, phi_a, phi, phi_a).drift
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
    # against the real-plane drift by two QUADPACK integrals per end phase
    g, phi_a = 1.1, 0.2
    pL = np.array([0.0, 0.0, -0.1, 1.8])
    kp = dot(WAVE_K, pL).real
    for profile in (CircularProfile(amplitude=0.4, frequency=0.9),
                    PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5)):
        for B in (0.5, -0.7, 0.0):
            cfg = FieldConfig(g=g, B=B, profile=profile)
            for phi in (-0.9, 0.5325, 0.998, 1.53):
                drift = phase_pass(cfg, pL, phi_a, phi, phi_a).drift
                ref = drift_nested(profile.components, g, B, kp, phi_a, phi)
                assert drift.shape == (2,) and drift.dtype == float
                assert np.max(np.abs(drift - ref)) < 1e-10
