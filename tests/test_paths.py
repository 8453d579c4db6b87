"""Classical-path layer: the phase line, the transverse drift, and the
coefficient maps of the classical spin solution.

The drift has an independent closed form for a circular profile (solve the
first-order linear ODE in the complexified transverse plane), used here as an
oracle for the quadrature-based evaluation.
"""

import numpy as np
import pytest

from wavefield.errors import ResonantQ
from wavefield.fields import CircularProfile, FieldConfig, ZeroProfile
from wavefield.kernels import phase_pass
from wavefield.minkowski import WAVE_K, dot, transverse_spectral
from wavefield.paths import (PathContext, classical_spin_path, drift_path, exp_magnetic,
                             make_phi_path, spin_projection_constant)


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
    plus the homogeneous rotation of y0."""
    turn = np.exp(1j * cfg.g * cfg.B / dot(WAVE_K, pL) * (phi - phi_a))
    forced = phase_pass(cfg, pL, phi_a, phi, phi_a).drift
    return transverse_spectral(1.0 / turn, turn, 1.0) @ y0 + forced


def test_phase_path_slope():
    pL = np.array([0.0, 0.0, 0.3, 2.0])
    e0 = 0.9
    path = make_phi_path(e0, pL, phi_a=0.4)
    # slope is -e0 * dot(k, pL); fixed by the longitudinal stationarity
    kp = dot(WAVE_K, pL)
    assert path.at(0.0) == pytest.approx(0.4)
    assert path.at(1.0) == pytest.approx(0.4 - e0 * kp)


def test_exp_magnetic_group_property():
    cfg = FieldConfig(g=1.1, B=0.7, profile=ZeroProfile())
    e0 = 0.8 + 0.2j
    a = exp_magnetic(0.3, e0, cfg)
    b = exp_magnetic(0.5, e0, cfg)
    ab = exp_magnetic(0.8, e0, cfg)
    assert np.max(np.abs(a @ b - ab)) < 1e-13
    assert np.max(np.abs(exp_magnetic(0.0, e0, cfg) - np.eye(4))) < 1e-15


def test_drift_against_circular_oracle():
    g, B, a, nu = 0.9, 0.6, 0.5, 1.4
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    kp = dot(WAVE_K, pL).real
    cfg = FieldConfig(g=g, B=B, profile=CircularProfile(amplitude=a, frequency=nu))
    phi_a = -0.3
    y0 = np.array([0.2, -0.1, 0.0, 0.0], dtype=complex)
    for phi in (0.1, 0.9, 2.0):
        y = _drift_at_phi(phi, y0, cfg, pL, phi_a)
        u = _circular_drift_oracle(phi, phi_a, y0[0] + 1j * y0[1], g, B, kp, a, nu)
        assert y[0] + 1j * y[1] == pytest.approx(u, abs=1e-11)
        assert abs(y[2]) < 1e-14 and abs(y[3]) < 1e-14


def test_drift_initial_condition():
    cfg = FieldConfig(g=0.9, B=0.6, profile=CircularProfile(amplitude=0.5, frequency=1.4))
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    y0 = np.array([0.3, 0.1, 0.0, 0.0], dtype=complex)
    y = _drift_at_phi(-0.3, y0, cfg, pL, phi_a=-0.3)
    assert np.allclose(y, y0, atol=1e-14)


def test_drift_parameterizations_agree():
    # tau-parameterized drift along the phase line equals the phi-parameterized
    # one evaluated at phi(tau); two independent quadrature routes
    g, B = 1.1, 0.5
    e0 = 0.7
    pL = np.array([0.0, 0.0, -0.1, 1.8])
    cfg = FieldConfig(g=g, B=B, profile=CircularProfile(amplitude=0.4, frequency=0.9))
    phi = make_phi_path(e0, pL, phi_a=0.2)
    ctx = PathContext(e0=e0, cfg=cfg, phi=phi)
    y0 = np.array([0.1, 0.25, 0.0, 0.0], dtype=complex)
    for tau in (0.25, 0.6, 1.0):
        via_tau = drift_path(tau, y0, ctx)
        via_phi = _drift_at_phi(float(phi.at(tau).real), y0, cfg, pL, 0.2)
        assert np.max(np.abs(via_tau - via_phi)) < 1e-10


def test_spin_path_boundary_identities():
    cfg = FieldConfig(g=1.0, B=0.8, profile=CircularProfile(amplitude=0.3, frequency=1.2))
    pL = np.array([0.0, 0.0, 0.2, 2.1])
    ctx = PathContext(e0=0.9, cfg=cfg, phi=make_phi_path(0.9, pL, 0.1))
    start = classical_spin_path(0.0, ctx)
    end = classical_spin_path(1.0, ctx)
    transverse_id = transverse_spectral(1.0, 1.0, 0.0)
    assert np.max(np.abs(start.gamma_coeff + end.gamma_coeff - transverse_id)) < 1e-10
    assert np.max(np.abs(start.eta_coeff + end.eta_coeff)) < 1e-10


def test_spin_path_resonance_guard():
    cfg = FieldConfig(g=1.0, B=1.0, profile=ZeroProfile())
    pL = np.array([0.0, 0.0, 0.0, 2.0])
    # e0 g B = pi puts 1 + e^{Q} on its kernel
    ctx = PathContext(e0=np.pi, cfg=cfg, phi=make_phi_path(np.pi, pL, 0.0))
    with pytest.raises(ResonantQ):
        classical_spin_path(0.5, ctx)


def test_spin_projection_constant_exact():
    assert spin_projection_constant(np.array([0.0, 0.0, 1.0, 0.0])) == 0.5
    assert spin_projection_constant(np.array([0.0, 0.0, 0.0, 1.0])) == -0.5
    # transverse boundary data carries no longitudinal projection
    assert spin_projection_constant(np.array([1.0, 1.0, 0.0, 0.0])) == 0.0
