"""Closed-form kernels and phases of the proper-time representation.

`schwinger_kernel` is the transverse constant-field kernel

    [i g B / (4 pi sin(e0 g B / 2))]
      * exp{ i (g B / 2) [ (Xb1 Xa2 - Xb2 Xa1) - (1/2) cot(e0 g B / 2) |DX|^2 ] }

with caustics at e0 g B in 2 pi Z. `volkov_kernel` is the plane-wave
phase-integral dressing

    K(phi) = [g / (2 dot(k, pL))] exp(i beta phi)
             * int_{phi0}^{phi} exp(i beta phi') dot(eps, A'^p(phi')) dphi',
    beta = g B / dot(k, pL),

as printed, with a sign toggle that flips the integrand exponential only
(`sign=-1`) for sensitivity studies. `cross_phase` is the plane-wave /
magnetic mixing action, an exponent contribution

    -i (g/2) [ int_{phi_a}^{phi_b} A^p . dY/dphi  +  X^T . f Y^T |_{phi_a}^{phi_b} ],

with the drift Y evaluated in the phi parameterization, where the proper-time
scale drops out: dY/dphi = (g / dot(k, pL)) (A^p(phi) - f Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, KernelSingularity
from .fields import FieldConfig
from .minkowski import (EPS, EPS_CONJ, WAVE_K, dot, longitudinal_project,
                        transverse_project, transverse_spectral)
from .quadrature import QuadratureResult, adaptive_quad

#: |sin(e0 g B / 2)| below this raises KernelSingularity.
CAUSTIC_TOLERANCE = 1e-10

#: |sin(e0 g B / 2)| below this sets the advisory near-caustic flag.
NEAR_CAUSTIC_THRESHOLD = 0.05


@dataclass(frozen=True)
class TransverseEndpoints:
    """Transverse-plane worldline endpoints (slot-0 and slot-1 components)."""

    xa1: complex
    xa2: complex
    xb1: complex
    xb2: complex

    @classmethod
    def from_vectors(cls, x_a: np.ndarray, x_b: np.ndarray) -> "TransverseEndpoints":
        return cls(complex(x_a[0]), complex(x_a[1]), complex(x_b[0]), complex(x_b[1]))


@dataclass(frozen=True)
class KernelDiagnostics:
    error_estimate: float
    nodes: int
    near_singularity: bool


def schwinger_kernel(e0: complex, ep: TransverseEndpoints, cfg: FieldConfig) -> complex:
    """Transverse proper-time kernel of the constant magnetic background.

    Tends to [i/(2 pi e0)] exp(-i |DX|^2 / (2 e0)) as B -> 0; raises
    KernelSingularity on caustics (|sin(e0 g B / 2)| < 1e-10).
    """
    if e0 == 0:
        raise KernelSingularity("e0 = 0 is the short-time endpoint")
    half = e0 * cfg.g * cfg.B / 2.0
    s = np.sin(half)
    cross = ep.xb1 * ep.xa2 - ep.xb2 * ep.xa1
    dx2 = (ep.xb1 - ep.xa1) ** 2 + (ep.xb2 - ep.xa2) ** 2
    if half == 0:
        # B = 0: free transverse kernel (the limit the magnetic one tends to)
        return complex(1j / (2.0 * np.pi * e0) * np.exp(-1j * dx2 / (2.0 * e0)))
    # sin vanishes both at caustics (half near n pi, n >= 1) and at the
    # harmless short-time end half -> 0, where the formula is still stable;
    # only the former is an error.
    if abs(s) < CAUSTIC_TOLERANCE and abs(half) >= 1.0:
        raise KernelSingularity(f"caustic: |sin(e0 g B / 2)| = {float(abs(s)):.3e} at e0={e0!r}")
    prefactor = 1j * cfg.g * cfg.B / (4.0 * np.pi * s)
    exponent = 1j * (cfg.g * cfg.B / 2.0) * (cross - 0.5 * (np.cos(half) / s) * dx2)
    return complex(prefactor * np.exp(exponent))


def near_caustic(e0: complex, cfg: FieldConfig, threshold: float = NEAR_CAUSTIC_THRESHOLD) -> bool:
    half = e0 * cfg.g * cfg.B / 2.0
    return bool(abs(half) >= 1.0 and abs(np.sin(half)) < threshold)


def spin_determinant(e0: complex, cfg: FieldConfig) -> complex:
    """Fluctuation determinant of the spin sector, cos(e0 g B / 2)."""
    return complex(np.cos(e0 * cfg.g * cfg.B / 2.0))


def _volkov_quad(phi: float, pL: np.ndarray, cfg: FieldConfig, phi0: float,
                 conjugated: bool, sign: int, abs_tol: float, rel_tol: float):
    if cfg.profile.is_zero:
        return 0.0j, QuadratureResult(0.0j, 0.0, 0)
    kp = dot(WAVE_K, pL)
    if kp == 0:
        raise DivisionByZero("dot(k, pL) = 0 with a non-zero profile")
    beta = cfg.g * cfg.B / kp
    eps = EPS_CONJ if conjugated else EPS
    orient = -1.0 if conjugated else 1.0
    quad = adaptive_quad(
        lambda p: np.exp(1j * orient * sign * beta * p) * dot(eps, cfg.profile.derivative(p)),
        float(phi0), float(phi), abs_tol=abs_tol, rel_tol=rel_tol)
    value = cfg.g / (2.0 * kp) * np.exp(1j * orient * beta * phi) * quad.value
    return complex(value), quad


def volkov_kernel(phi: float, pL: np.ndarray, cfg: FieldConfig, phi0: float,
                  sign: int = +1, abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> complex:
    """Phase-integral dressing K(phi); identical zero for a zero profile."""
    return _volkov_quad(phi, pL, cfg, phi0, False, sign, abs_tol, rel_tol)[0]


def volkov_kernel_conj(phi: float, pL: np.ndarray, cfg: FieldConfig, phi0: float,
                       sign: int = +1, abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> complex:
    """Conjugate dressing K*(phi): eps -> eps*, exponentials sign-conjugated."""
    return _volkov_quad(phi, pL, cfg, phi0, True, sign, abs_tol, rel_tol)[0]


def volkov_kernel_full(phi, pL, cfg, phi0, conjugated=False, sign=+1,
                       abs_tol=1e-12, rel_tol=1e-10):
    """(value, QuadratureResult) variant for callers that report diagnostics."""
    return _volkov_quad(phi, pL, cfg, phi0, conjugated, sign, abs_tol, rel_tol)


def longitudinal_phase(e0: complex, x_a: np.ndarray, x_b: np.ndarray,
                       pL: np.ndarray, m: float) -> complex:
    """Exponent i dot(pL, dx^L) + i (e0/2) (dot(pL, pL) - m^2)."""
    dxl = longitudinal_project(np.asarray(x_b, dtype=complex) - np.asarray(x_a, dtype=complex))
    return 1j * dot(pL, dxl) + 0.5j * e0 * (dot(pL, pL) - m * m)


def drift_at_phi(phi: float, y0: np.ndarray, cfg: FieldConfig, pL: np.ndarray,
                 phi_a: float, abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> np.ndarray:
    """Transverse drift Y(phi) in the phase parameterization, Y(phi_a) = y0.

    Solves (k.pL) dY/dphi + g f Y - g A^p(phi) = 0 by the exponential-of-R
    representation, R = -(g / k.pL) f; independent of the proper-time scale.
    """
    y0 = np.asarray(y0, dtype=complex)
    if cfg.profile.is_zero and not np.any(y0):
        return np.zeros(4, dtype=complex)
    kp = dot(WAVE_K, pL)
    if kp == 0:
        raise DivisionByZero("dot(k, pL) = 0; drift is not defined in phi")
    rate = cfg.g / kp
    tensor = cfg.tensor

    def rot(dphi):
        # exp(R dphi) with R = -rate * f: eigenvalue exp(-i rate B dphi) on eps
        return transverse_spectral(np.exp(-1j * rate * tensor.B * dphi),
                                   np.exp(1j * rate * tensor.B * dphi), 1.0)

    if cfg.profile.is_zero:
        forced = np.zeros(4, dtype=complex)
    else:
        forced = adaptive_quad(lambda p: rot(phi - p) @ cfg.profile.potential(p),
                               float(phi_a), float(phi), abs_tol=abs_tol, rel_tol=rel_tol).value
    return rot(phi - phi_a) @ y0 + rate * forced


def cross_phase(cfg: FieldConfig, pL: np.ndarray, x_a: np.ndarray, x_b: np.ndarray,
                abs_tol: float = 1e-10, rel_tol: float = 1e-8) -> complex:
    """Mixing exponent -i (g/2) (action integral + boundary term), drift at rest at phi_a."""
    if cfg.profile.is_zero:
        return 0.0j
    phi_a = dot(WAVE_K, x_a).real
    phi_b = dot(WAVE_K, x_b).real
    tensor = cfg.tensor
    y_a = np.zeros(4, dtype=complex)

    kp = dot(WAVE_K, pL)
    if kp == 0:
        raise DivisionByZero("dot(k, pL) = 0; cross phase is not defined")
    rate = cfg.g / kp

    def slope(phi, y):
        return rate * (cfg.profile.potential(phi) - tensor.apply(y))

    def action_density(phi):
        y = drift_at_phi(phi, y_a, cfg, pL, phi_a, abs_tol=abs_tol * 1e-2, rel_tol=rel_tol * 1e-2)
        return dot(cfg.profile.potential(phi), slope(phi, y))

    integral = adaptive_quad(action_density, phi_a, phi_b,
                             abs_tol=abs_tol, rel_tol=rel_tol).value

    y_b = drift_at_phi(phi_b, y_a, cfg, pL, phi_a, abs_tol=abs_tol * 1e-2, rel_tol=rel_tol * 1e-2)
    boundary = dot(transverse_project(x_b) - y_b, tensor.apply(y_b))
    return -0.5j * cfg.g * (integral + boundary)
