"""Classical worldline data entering the proper-time representation.

Three objects live here:

* the light-cone phase along proper time, phi(tau) = phi_a - e0 dot(k, pL) tau;
* the transverse bosonic drift Y(tau) absorbing the plane-wave force,
  solution of  -Y'/e0 + g f Y - g A^p(phi(tau)) = 0;
* the classical spin paths, kept as linear coefficient maps in the boundary
  data (a matrix multiplying the transverse boundary combination Gamma^T and
  a vector multiplying the conserved projection eta), so no anticommuting
  algebra is needed at runtime.

The magnetic exponential exp(Q tau), Q = e0 g f, acts spectrally: eigenvalue
exp(+i w tau) on eps, exp(-i w tau) on eps*, identity on the longitudinal
plane, with w = e0 g B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonantQ
from .fields import FieldConfig
from .minkowski import WAVE_K, dot, longitudinal_project, transverse_spectral
from .quadrature import adaptive_quad


@dataclass(frozen=True)
class PhiPath:
    """phi(tau) = phi_a + slope * tau with slope = -e0 dot(k, pL)."""

    phi_a: float
    slope: complex

    def at(self, tau):
        return self.phi_a + self.slope * tau


def make_phi_path(e0: complex, pL: np.ndarray, phi_a: float) -> PhiPath:
    return PhiPath(float(phi_a), -e0 * dot(WAVE_K, pL))


@dataclass(frozen=True)
class PathContext:
    """Inputs shared by the drift and spin-path evaluations."""

    e0: complex
    cfg: FieldConfig
    phi: PhiPath
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10


def exp_magnetic(tau, e0: complex, cfg: FieldConfig) -> np.ndarray:
    """exp(Q tau) with Q = e0 g f; a rotation of the transverse plane (stacked for arrays)."""
    w = e0 * cfg.g * cfg.B
    return transverse_spectral(np.exp(1j * w * tau), np.exp(-1j * w * tau), 1.0)


def _pulled_back(field, tau: float, ctx: PathContext) -> np.ndarray:
    """int_0^tau exp(-Q s) field(phi(s)) ds for a profile's potential or derivative."""
    if ctx.cfg.profile.is_zero:
        return np.zeros(4, dtype=complex)
    return adaptive_quad(
        lambda s: (exp_magnetic(-s, ctx.e0, ctx.cfg) @ field(ctx.phi.at(s))[..., None])[..., 0],
        0.0, float(tau), abs_tol=ctx.abs_tol, rel_tol=ctx.rel_tol).value


def drift_path(tau: float, y0: np.ndarray, ctx: PathContext) -> np.ndarray:
    """Transverse drift Y(tau) = exp(Q tau) [Y0 - e0 g int_0^tau exp(-Q s) A^p(phi(s)) ds]."""
    forced = _pulled_back(ctx.cfg.profile.potential, tau, ctx)
    return exp_magnetic(tau, ctx.e0, ctx.cfg) @ (np.asarray(y0, dtype=complex)
                                                 - ctx.e0 * ctx.cfg.g * forced)


@dataclass(frozen=True)
class SpinCoefficientMap:
    """Classical spin path at one tau, as coefficients of the boundary data.

    gamma_coeff multiplies the transverse boundary combination Gamma^T;
    eta_coeff multiplies the conserved projection eta. The actual
    (anticommuting) path is gamma_coeff @ Gamma^T + eta_coeff * eta.
    """

    gamma_coeff: np.ndarray
    eta_coeff: np.ndarray


def classical_spin_path(tau: float, ctx: PathContext) -> SpinCoefficientMap:
    """Coefficient maps of the transverse classical spin path at proper time tau.

    The boundary-value solution fixes the tau=0 value through
    (1 + exp(Q))^{-1}, which fails to exist on the transverse plane when
    cos(e0 g B / 2) = 0; that resonance raises ResonantQ.
    """
    w = ctx.e0 * ctx.cfg.g * ctx.cfg.B
    if abs(np.cos(w / 2.0)) < 1e-10:
        raise ResonantQ(f"1 + exp(Q) singular on the transverse plane (e0 g B = {w!r})")

    expq_tau = exp_magnetic(tau, ctx.e0, ctx.cfg)
    # (1 - tanh(Q/2))/2 = (1 + exp(Q))^{-1} spectrally, restricted transverse
    half_inv = transverse_spectral(1.0 / (1.0 + np.exp(1j * w)), 1.0 / (1.0 + np.exp(-1j * w)))
    gamma_coeff = expq_tau @ half_inv

    ew = transverse_spectral(np.exp(1j * w), np.exp(-1j * w))
    # J(tau) = int_0^tau exp(-Q s) A'^p(phi(s)) ds
    j_full = _pulled_back(ctx.cfg.profile.derivative, 1.0, ctx)
    j_tau = _pulled_back(ctx.cfg.profile.derivative, tau, ctx)
    eta_coeff = ctx.e0 * ctx.cfg.g * (expq_tau @ (ew @ half_inv @ j_full - j_tau))
    return SpinCoefficientMap(gamma_coeff=gamma_coeff, eta_coeff=eta_coeff)


def spin_projection_constant(gamma_boundary: np.ndarray) -> complex:
    """Conserved projection dot(k, Gamma^L) / 2 of the boundary spin vector."""
    return dot(WAVE_K, longitudinal_project(gamma_boundary)) / 2.0
