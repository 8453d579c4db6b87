"""Brute-force and closed-form oracles.

Everything here is algorithmically independent of the production formulas in
`kernels` and `green` (no imports from either module; an import-graph test
enforces this). The time-sliced oracle discretizes the transverse worldline
action

    S = int_0^1 [ -Xdot^2/(2 e0) - (g/2) X . f Xdot ] dtau
      -> sum_j [ -|X_{j+1}-X_j|^2/(2 e0 D) - (g B/2)(X_j^1 X_{j+1}^2 - X_j^2 X_{j+1}^1) ]

(midpoint rule for the magnetic term, D = 1/N), with one free-kernel
normalization factor i/(2 pi e0 D) per link, and evaluates the interior
Gaussian exactly. The square-root branch is taken per eigenvalue (principal),
which reproduces the Fresnel phases at real e0 and the absolutely convergent
Gaussian on the rotated ray.

`zero_profile_green` is Schwinger's closed-form constant-field propagator
rotated onto the Euclidean proper-time axis e0 = i tau, where its integrand
is real, positive and free of caustics, integrated by scipy's QUADPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k0

from .errors import ResonantDenominator, SingularForm
from .minkowski import METRIC, P_MINUS, P_PLUS

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SliceLattice:
    """Time-slicing data: N slices, transverse endpoints, proper time, field."""

    n_slices: int
    e0: complex
    g: float
    B: float
    xa: tuple
    xb: tuple

    def __post_init__(self):
        if self.n_slices < 2:
            raise ValueError(f"need at least 2 slices, got {self.n_slices}")


def sliced_kernel(lat: SliceLattice) -> complex:
    """Discretized transverse path integral on the lattice, evaluated exactly."""
    n = lat.n_slices
    delta = 1.0 / n
    kappa = 1.0 / (lat.e0 * delta)
    mu = lat.g * lat.B / 2.0
    dim = 2 * (n - 1)

    # exponent = -(1/2) u^T A u + b^T u + c over the interior sites
    link = np.array([[1j * kappa, -1j * mu], [1j * mu, 1j * kappa]])
    A = np.zeros((dim, dim), dtype=complex)
    for j in range(n - 1):
        A[2 * j:2 * j + 2, 2 * j:2 * j + 2] = 2j * kappa * np.eye(2)
        if j + 1 < n - 1:
            A[2 * j:2 * j + 2, 2 * j + 2:2 * j + 4] = -link
            A[2 * j + 2:2 * j + 4, 2 * j:2 * j + 2] = -link.T

    xa = np.asarray(lat.xa, dtype=complex)
    xb = np.asarray(lat.xb, dtype=complex)
    b = np.zeros(dim, dtype=complex)
    b[0:2] = 1j * kappa * xa + 1j * mu * np.array([xa[1], -xa[0]])
    b[dim - 2:dim] += 1j * kappa * xb + 1j * mu * np.array([-xb[1], xb[0]])
    c = -0.5j * kappa * (xa @ xa + xb @ xb)

    lam = np.linalg.eigvals(A)
    if np.min(np.abs(lam)) < 1e-12 * np.max(np.abs(lam)):
        raise SingularForm(f"discrete Gaussian singular at e0={lat.e0!r}, N={n}")
    root = np.prod(np.power(lam, -0.5))
    sol = np.linalg.solve(A, b)
    prefactor = (1j / (2.0 * np.pi * lat.e0 * delta)) ** n * (2.0 * np.pi) ** (n - 1)
    return complex(prefactor * root * np.exp(0.5 * (b @ sol) + c))


def free_kernel(e0: complex, xa, xb) -> complex:
    """B -> 0 transverse kernel, [i/(2 pi e0)] exp(-i |DX|^2 / (2 e0))."""
    xa = np.asarray(xa, dtype=complex)
    xb = np.asarray(xb, dtype=complex)
    dx2 = np.sum((xb - xa) ** 2)
    return complex(1j / (2.0 * np.pi * e0) * np.exp(-1j * dx2 / (2.0 * e0)))


def richardson_extrapolate(ns, values):
    """Extrapolate a 1/N^p sequence from its last three doublings.

    Returns (limit, observed_order). ns must double between samples.
    """
    v1, v2, v3 = values[-3], values[-2], values[-1]
    order = np.log2(abs(v1 - v2) / abs(v2 - v3))
    return v3 + (v3 - v2) / (2.0 ** order - 1.0), float(order)


def volkov_kernel_closed_form(kind: str, params: dict, phi: float) -> complex:
    """Antiderivative oracle for the phase-integral dressing.

    Kinds: "B_zero" (beta = 0, circular profile, params a, nu), "constant_slope"
    (constant dot(eps, A') = c), "circular_profile" (full resonant fraction).
    Common params: g, kp, phi0; sign toggles the integrand exponential.
    """
    g, kp, phi0 = params["g"], params["kp"], params["phi0"]
    sign = params.get("sign", +1)
    if kind == "B_zero":
        a, nu = params["a"], params["nu"]
        return complex(g / (2.0 * kp) * (a / _SQRT2) * (np.exp(1j * nu * phi) - np.exp(1j * nu * phi0)))
    if kind == "constant_slope":
        beta, c = params["beta"], params["c"]
        if abs(beta) < 1e-12:
            raise ResonantDenominator("constant_slope closed form needs beta away from 0")
        integral = c * (np.exp(1j * sign * beta * phi) - np.exp(1j * sign * beta * phi0)) / (1j * sign * beta)
        return complex(g / (2.0 * kp) * np.exp(1j * beta * phi) * integral)
    if kind == "circular_profile":
        beta, a, nu = params["beta"], params["a"], params["nu"]
        denom = sign * beta + nu
        if abs(denom) < 1e-12:
            raise ResonantDenominator(f"resonant circular profile: sign*beta + nu = {denom!r}")
        integral = (a * nu / _SQRT2) * (np.exp(1j * denom * phi) - np.exp(1j * denom * phi0)) / denom
        return complex(g / (2.0 * kp) * np.exp(1j * beta * phi) * integral)
    raise ValueError(f"unknown closed-form kind {kind!r}")


def free_propagator(x_a, x_b, pL, m: float) -> complex:
    """Scalar free limit in the mixed representation, closed Bessel form.

    (1/2pi) exp(i pL . dx^L) K0(|DX^T| sqrt(pL^2 - m^2)); valid for
    pL^2 > m^2 and non-coincident transverse endpoints.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    pL = np.asarray(pL, dtype=float)
    p2 = float(np.sum(METRIC * pL * pL))
    gap = p2 - m * m
    if gap <= 0:
        raise ValueError(f"free propagator closed form needs pL^2 > m^2, got gap {gap!r}")
    rho = float(np.hypot(x_b[0] - x_a[0], x_b[1] - x_a[1]))
    if rho == 0.0:
        raise ValueError("free propagator closed form needs distinct transverse endpoints")
    dx = x_b - x_a
    phase = np.sum(METRIC[2:] * pL[2:] * dx[2:])
    return complex(np.exp(1j * phase) * k0(rho * np.sqrt(gap)) / (2.0 * np.pi))


def zero_profile_green(x_a, x_b, pL, m: float, b: float) -> np.ndarray:
    """Constant-field (zero-profile) Green function on the Euclidean axis e0 = i tau.

    G = exp(i pL.dx^L) exp(i (b/2)(xb1 xa2 - xb2 xa1)) (1/2) int_0^inf dtau
        [b / (4 pi sinh(b tau/2))] exp(-(b/4) coth(b tau/2) |DX|^2 - tau gap/2)
        (exp(-b tau/2) P+ + exp(+b tau/2) P-),  b = g B, gap = pL^2 - m^2,
    with sinh and coth written through q = exp(-|b| tau) so that nothing
    overflows at large tau (b = 0 is the free limit).
    """
    from scipy.integrate import quad

    x_a, x_b, pL = (np.asarray(v, dtype=float) for v in (x_a, x_b, pL))
    gap = float(np.sum(METRIC * pL * pL)) - m * m
    rho2 = float((x_b[0] - x_a[0]) ** 2 + (x_b[1] - x_a[1]) ** 2)
    if gap <= 0 or rho2 == 0.0:
        raise ValueError(f"oracle needs gap > 0 and |DX| > 0, got gap {gap!r}, |DX|^2 {rho2!r}")

    def weight(tau, damped):
        x = abs(b) * tau
        q = math.exp(-x)
        h = x / -math.expm1(-x) if x > 0.0 else 1.0     # x / (1 - q)
        w = h / (2.0 * math.pi * tau) * math.exp(-h * (1.0 + q) * rho2 / (4.0 * tau)
                                                  - 0.5 * tau * gap)
        return w * q if damped else w

    plus, minus = (quad(weight, 0.0, math.inf, args=(damped,), epsabs=0.0, epsrel=1e-13,
                        limit=200)[0] for damped in (b > 0.0, b < 0.0))
    phase = np.exp(1j * (np.sum(METRIC[2:] * pL[2:] * (x_b - x_a)[2:])
                         + 0.5 * b * (x_b[0] * x_a[1] - x_b[1] * x_a[0])))
    return 0.5 * phase * (plus * P_PLUS + minus * P_MINUS)
