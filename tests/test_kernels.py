import numpy as np
import pytest

from wavefield.errors import DivisionByZero, KernelSingularity
from wavefield.fields import CircularProfile, FieldConfig, ZeroProfile
from wavefield.kernels import (NEAR_CAUSTIC_THRESHOLD, TransverseEndpoints, cross_phase,
                               longitudinal_phase, near_caustic, schwinger_kernel,
                               spin_determinant, volkov_kernel, volkov_kernel_conj,
                               volkov_kernel_full)
from wavefield.minkowski import WAVE_K, dot
from wavefield.oracles import free_kernel, volkov_kernel_closed_form

EP = TransverseEndpoints(xa1=0.2, xa2=-0.1, xb1=0.9, xb2=0.4)
ZCFG = FieldConfig(g=1.0, B=0.6, profile=ZeroProfile())


def test_kernel_free_limit_small_field():
    tiny = FieldConfig(g=1.0, B=1e-9, profile=ZeroProfile())
    free = free_kernel(0.8, np.array([0.2, -0.1]), np.array([0.9, 0.4]))
    # rotation (gauge) phase ~ B; well inside 1e-8 at B = 1e-9
    assert schwinger_kernel(0.8, EP, tiny) == pytest.approx(free, rel=1e-8)


def test_kernel_exact_zero_field_branch():
    none = FieldConfig(g=1.0, B=0.0, profile=ZeroProfile())
    free = free_kernel(0.8, np.array([0.2, -0.1]), np.array([0.9, 0.4]))
    # same closed formula on both sides; scalar vs array arithmetic may
    # differ in the last bit
    assert schwinger_kernel(0.8, EP, none) == pytest.approx(free, rel=1e-15)


def test_kernel_caustic_raises_but_short_time_does_not():
    caustic_e0 = 2.0 * np.pi / 0.6
    with pytest.raises(KernelSingularity):
        schwinger_kernel(caustic_e0, EP, ZCFG)
    with pytest.raises(KernelSingularity):
        schwinger_kernel(0.0, EP, ZCFG)
    # sin(e0 g B / 2) is also tiny at small e0, which must stay evaluable;
    # only the magnitude matches the free kernel there (the magnetic one
    # keeps its e0-independent gauge phase on the cross term)
    value = schwinger_kernel(1e-7, EP, ZCFG)
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
        value = schwinger_kernel(s * np.exp(1j * np.pi / 4), EP, ZCFG)
        assert np.isfinite(abs(value))
    tiny = abs(schwinger_kernel(1e-3 * np.exp(1j * np.pi / 4), EP, ZCFG))
    assert tiny < 1e-30


def test_spin_determinant_value():
    assert spin_determinant(1.2, ZCFG) == pytest.approx(np.cos(1.2 * 0.6 / 2.0))


def test_volkov_zero_profile_is_exact_zero():
    pL = np.array([0.0, 0.0, 0.1, 2.0])
    assert volkov_kernel(0.7, pL, ZCFG, phi0=-0.2) == 0.0
    value, diag = volkov_kernel_full(0.7, pL, ZCFG, phi0=-0.2)
    assert value == 0.0 and diag.nodes == 0


def test_volkov_against_circular_closed_form():
    g, b, a, nu = 0.9, 0.5, 0.6, 1.3
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    kp = dot(WAVE_K, pL).real
    cfg = FieldConfig(g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu))
    params = dict(g=g, kp=kp, phi0=-0.4, beta=g * b / kp, a=a, nu=nu)
    for phi in (-0.1, 0.5, 1.8):
        ref = volkov_kernel_closed_form("circular_profile", params, phi)
        assert volkov_kernel(phi, pL, cfg, phi0=-0.4) == pytest.approx(ref, abs=1e-12)


def test_volkov_conjugate_is_conjugate_for_real_data():
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.6, frequency=1.3))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    k = volkov_kernel(0.8, pL, cfg, phi0=-0.4)
    kc = volkov_kernel_conj(0.8, pL, cfg, phi0=-0.4)
    assert kc == pytest.approx(np.conj(k), abs=1e-13)


def test_volkov_sign_toggle_flips_integrand_only():
    g, b, a, nu = 0.9, 0.5, 0.6, 1.3
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    kp = dot(WAVE_K, pL).real
    cfg = FieldConfig(g=g, B=b, profile=CircularProfile(amplitude=a, frequency=nu))
    params = dict(g=g, kp=kp, phi0=-0.4, beta=g * b / kp, a=a, nu=nu, sign=-1)
    flipped = volkov_kernel(0.8, pL, cfg, phi0=-0.4, sign=-1)
    assert flipped == pytest.approx(volkov_kernel_closed_form("circular_profile", params, 0.8),
                                    abs=1e-12)
    assert flipped != pytest.approx(volkov_kernel(0.8, pL, cfg, phi0=-0.4), abs=1e-6)


def test_volkov_needs_longitudinal_momentum():
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.6, frequency=1.3))
    degenerate = np.array([0.0, 0.0, 1.0, 1.0])   # dot(k, pL) = 0
    with pytest.raises(DivisionByZero):
        volkov_kernel(0.8, degenerate, cfg, phi0=0.0)


def test_longitudinal_phase_decays_on_upper_ray():
    # convergence of the proper-time integral needs dot(pL,pL) > m^2
    x_a = np.array([0.0, 0.0, 0.1, -0.2])
    x_b = np.array([0.0, 0.0, 0.5, 0.7])
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    gap = dot(pL, pL).real - 0.8**2
    assert gap > 0
    for s in (1.0, 5.0, 20.0):
        e0 = s * np.exp(1j * np.pi / 4)
        phase = longitudinal_phase(e0, x_a, x_b, pL, m=0.8)
        assert phase.real == pytest.approx(-0.5 * s * np.sin(np.pi / 4) * gap)


def test_cross_phase_zero_without_profile_and_drift():
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    x_a = np.array([0.1, -0.2, 0.3, 0.0])
    x_b = np.array([0.6, 0.4, -0.1, 0.5])
    assert cross_phase(ZCFG, pL, x_a, x_b) == 0.0


def test_cross_phase_pure_imaginary_for_real_data():
    # -i/2 g (real action integral): the exponent must sit on the imaginary axis
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    x_a = np.array([0.1, -0.2, 0.3, 0.0])
    x_b = np.array([0.6, 0.4, -0.1, 0.5])
    value = cross_phase(cfg, pL, x_a, x_b)
    assert abs(value.real) < 1e-12
    assert abs(value.imag) > 1e-6
