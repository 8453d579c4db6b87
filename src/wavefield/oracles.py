"""Brute-force and closed-form oracles.

Everything here is algorithmically independent of the production formulas in
`kernels`, `green`, `fields` and `quadrature`: from the package it imports only
the error types and the basis constants (`errors`, `minkowski`), which an
import-graph test enforces. The time-sliced oracle discretizes the transverse
worldline action

    S = int_0^1 [ -Xdot^2/(2 e0) - (g/2) X . f Xdot ] dtau
      -> sum_j [ -|X_{j+1}-X_j|^2/(2 e0 D) - (g B/2)(X_j^1 X_{j+1}^2 - X_j^2 X_{j+1}^1) ]

(midpoint rule for the magnetic term, D = 1/N), with one free-kernel
normalization factor i/(2 pi e0 D) per link, and evaluates the interior
Gaussian exactly. Every 2x2 block of its matrix A is a polynomial in sigma_y,
so on sigma_y's eigenvectors A splits into an (N-1) tridiagonal T and its
transpose. T and T^T share their spectrum, each eigenvalue of T is a double
eigenvalue of A, and the Gaussian's det(A)^(-1/2) = prod_A lam^(-1/2) is
prod_T lam^(-1) = 1/det T exactly: the two copies of an eigenvalue take the
same principal root, so the branch choice cancels in pairs, at real e0 (the
Fresnel phases) as on the rotated ray. The interior solve runs on T alone.

`zero_profile_green` is Schwinger's closed-form constant-field propagator
rotated onto the Euclidean proper-time axis e0 = i tau, where its integrand
is real, positive and free of caustics, integrated by scipy's QUADPACK.

`landau_green` is the same proper-time integral in closed form: at the
drift-shifted far endpoint it is the constant-field (Landau) propagator,
Gamma(nu) e^{-X/2} U(nu, 1, X), evaluated by mpmath at 30 digits.

`cross_phase_nested` is the mixing exponent as the literal double integral in
real transverse coordinates: every node of the outer action integral solves
for the drift (`drift_nested`) by its own inner QUADPACK integrals.

`classical_spin_path` is the boundary-value solution of the transverse spin
equations along the phase line, as coefficient maps of the boundary data,
with its one integral by a fixed Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k0, roots_legendre

from .errors import ResonantDenominator, ResonantQ, SingularForm
from .minkowski import (EPS, EPS_CONJ, METRIC, P_MINUS, P_PLUS, WAVE_K, dot,
                        transverse_spectral)

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

    # exponent = -(1/2) u^T A u + b^T u + c over the N-1 interior sites, two
    # components each; A has blocks 2i kappa on its diagonal, -(i kappa + mu sigma_y)
    # above it and -(i kappa - mu sigma_y) below. On sigma_y's eigenvectors
    # (1, +-i)/sqrt2 it splits into T (sigma_y = +1) and T^T (sigma_y = -1), and
    # b into the components b_+ and b_-.
    off = np.full(n - 2, 1j * kappa)
    t = np.diag(np.full(n - 1, 2j * kappa)) - np.diag(off + mu, 1) - np.diag(off - mu, -1)

    xa = np.asarray(lat.xa, dtype=complex)
    xb = np.asarray(lat.xb, dtype=complex)
    b = np.zeros((n - 1, 2), dtype=complex)
    b[0] = 1j * kappa * xa + 1j * mu * np.array([xa[1], -xa[0]])
    b[-1] += 1j * kappa * xb + 1j * mu * np.array([-xb[1], xb[0]])
    c = -0.5j * kappa * (xa @ xa + xb @ xb)
    b_plus, b_minus = (b[:, 0] - 1j * b[:, 1]) / _SQRT2, (b[:, 0] + 1j * b[:, 1]) / _SQRT2

    lam = np.linalg.eigvals(t)
    if np.min(np.abs(lam)) < 1e-12 * np.max(np.abs(lam)):
        raise SingularForm(f"discrete Gaussian singular at e0={lat.e0!r}, N={n}")
    # A has each eigenvalue of T twice, so prod_A lam^(-1/2) = prod_T lam^(-1);
    # and (1/2) b^T A^(-1) b = (1/2)(b_-^T T^(-1) b_+ + b_+^T T^(-T) b_-) = b_-^T T^(-1) b_+
    root = np.prod(1.0 / lam)
    exponent = b_minus @ np.linalg.solve(t, b_plus) + c
    prefactor = (1j / (2.0 * np.pi * lat.e0 * delta)) ** n * (2.0 * np.pi) ** (n - 1)
    return complex(prefactor * root * np.exp(exponent))


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


def landau_green(x_a, x_b, pL, m: float, b: float, drift=(0.0, 0.0), cross: complex = 0.0,
                 plus=P_PLUS, minus=P_MINUS) -> np.ndarray:
    """The proper-time integral in closed form (Schwinger; the Landau-level sum
    of Gusynin, Miransky and Shovkovy, Nucl. Phys. B 462, 249 (1996)):

        G = (1/2) exp(i pL.dx^L + cross + i (b/2) chi) (J+ M+ + J- M-),
        J_s = Gamma(nu_s) e^{-X/2} U(nu_s, 1, X) / (2 pi),
        nu_s = gap / (2|b|) + (1 + s sgn b) / 2,   X = |b| rho^2 / 2,

    and J = K0(sqrt(gap rho^2)) / pi at b = 0. Here b = g B, gap = pL^2 - m^2,
    rho and chi = Xb1 Xa2 - Xb2 Xa1 are taken at the far endpoint shifted by
    the drift, X_b = x_b^T - Y, `cross` is the plane-wave / magnetic mixing
    exponent and M+- the dressed braces (P+- for a zero profile). mpmath is
    imported here, at 30 digits: scipy's hyperu loses digits at large nu.
    """
    import mpmath

    x_a, x_b, pL = (np.asarray(v, dtype=float) for v in (x_a, x_b, pL))
    far = x_b[:2] - np.asarray(drift, dtype=float)
    gap = float(np.sum(METRIC * pL * pL)) - m * m
    rho2 = float((far[0] - x_a[0]) ** 2 + (far[1] - x_a[1]) ** 2)
    if gap <= 0 or rho2 == 0.0:
        raise ValueError(f"oracle needs gap > 0 and |DX| > 0, got gap {gap!r}, |DX|^2 {rho2!r}")
    with mpmath.workdps(30):
        if b == 0.0:
            j_plus = j_minus = float(mpmath.besselk(0, mpmath.sqrt(gap * rho2)) / mpmath.pi)
        else:
            x = mpmath.mpf(abs(b)) * rho2 / 2

            def j(s):
                nu = mpmath.mpf(gap) / (2 * abs(b)) + mpmath.mpf(1 + s * np.sign(b)) / 2
                return float(mpmath.gamma(nu) * mpmath.exp(-x / 2) * mpmath.hyperu(nu, 1, x)
                             / (2 * mpmath.pi))

            j_plus, j_minus = j(+1), j(-1)
    chi = far[0] * x_a[1] - far[1] * x_a[0]
    phase = np.exp(1j * np.sum(METRIC[2:] * pL[2:] * (x_b - x_a)[2:]) + cross + 0.5j * b * chi)
    return 0.5 * phase * (j_plus * np.asarray(plus) + j_minus * np.asarray(minus))


def drift_nested(components, g: float, B: float, kp: float, phi_a: float, phi: float,
                 knots=()) -> tuple:
    """Transverse drift (Y1, Y2) at phi, at rest at phi_a, in the real
    transverse plane: Y(phi) = rate int_{phi_a}^{phi} exp(-rate F (phi - p)) A(p) dp
    with rate = g / kp, A = components(p) and F = B [[0, 1], [-1, 0]], a
    rotation by rate B (phi - p), by two QUADPACK integrals. `knots` are phases
    where the profile is not smooth, handed to QUADPACK as break points."""
    rate = g / kp

    def forced(p, row):
        angle = rate * B * (phi - p)
        a1, a2 = (float(v) for v in components(p))
        if row == 0:
            return rate * (math.cos(angle) * a1 - math.sin(angle) * a2)
        return rate * (math.sin(angle) * a1 + math.cos(angle) * a2)

    return tuple(_quad(forced, phi_a, phi, knots, (row,)) for row in (0, 1))


def _quad(fn, lo, hi, knots=(), args=()):
    from scipy.integrate import quad

    inside = [p for p in knots if min(lo, hi) < p < max(lo, hi)]
    return quad(fn, lo, hi, args=args, epsabs=1e-13, epsrel=1e-12, limit=200,
                points=inside or None)[0]


def cross_phase_nested(components, g: float, B: float, kp: float, phi_a: float, phi_b: float,
                       xb, knots=()) -> complex:
    """Mixing exponent -i (g/2) [int_{phi_a}^{phi_b} A . dY/dphi + (X_b - Y_b) . F Y_b].

    Real transverse plane (metric +1, +1): A = components(phi) = (a1, a2),
    F = B [[0, 1], [-1, 0]] and, with rate = g / kp, the drift at rest at phi_a
    is Y(phi) = rate int_{phi_a}^{phi} exp(-rate F (phi - p)) A(p) dp, a
    rotation by rate B (phi - p), computed afresh at every outer node.
    xb holds the two transverse components of x_b; `knots` are phases where
    the profile is not smooth (a tabulated grid), handed to QUADPACK as
    break points.
    """
    rate = g / kp

    def density(phi):
        a1, a2 = (float(v) for v in components(phi))
        y1, y2 = drift_nested(components, g, B, kp, phi_a, phi, knots)
        return rate * (a1 * (a1 - B * y2) + a2 * (a2 + B * y1))

    y1, y2 = drift_nested(components, g, B, kp, phi_a, phi_b, knots)
    boundary = (float(xb[0]) - y1) * B * y2 - (float(xb[1]) - y2) * B * y1
    return -0.5j * g * (_quad(density, phi_a, phi_b, knots) + boundary)


#: Gauss-Legendre order of the pulled-back integral in `classical_spin_path`.
SPIN_PATH_ORDER = 48


def classical_spin_path(taus, e0: complex, g: float, B: float, phi_a: float, slope: complex,
                        derivative) -> tuple:
    """Coefficient maps (gamma, eta) of the transverse classical spin path at
    each proper time in `taus`, shapes (n, 4, 4) and (n, 4): the path is
    gamma @ Gamma^T + eta * eta_k for the transverse boundary combination
    Gamma^T and the conserved projection eta_k. With Q = e0 g f, which acts as
    exp(+-i w tau) on eps / eps*, w = e0 g B, and the phase line
    phi(s) = phi_a + slope s,

        gamma(tau) = exp(Q tau) (1 + exp(Q))^{-1}   (transverse plane),
        eta(tau) = e0 g exp(Q tau) [exp(Q) (1 + exp(Q))^{-1} J(1) - J(tau)],
        J(tau) = int_0^tau exp(-Q s) A'(phi(s)) ds,

    J by a SPIN_PATH_ORDER-point Gauss-Legendre rule on each [0, tau].
    `derivative` maps an array of phases to the two transverse components
    (d1, d2) of A' there, like `components` in `drift_nested`. Raises
    ResonantQ where 1 + exp(Q) is singular on the transverse plane, cos(w/2) = 0.
    """
    w = e0 * g * B
    if abs(np.cos(w / 2.0)) < 1e-10:
        raise ResonantQ(f"1 + exp(Q) singular on the transverse plane (e0 g B = {w!r})")
    ends = np.append(np.asarray(taus, dtype=float), 1.0)          # J(1) rides along
    x, weights = roots_legendre(SPIN_PATH_ORDER)
    s = np.multiply.outer(ends / 2.0, x + 1.0)
    d1, d2 = derivative(phi_a + slope * s)
    # exp(-Q s) turns the eps / eps* components of A', (d1 -+ i d2)/sqrt2, by exp(-+i w s)
    j_eps, j_conj = ((np.exp(-1j * sign * w * s) * (d1 - 1j * sign * d2) / _SQRT2) @ weights
                     * ends / 2.0 for sign in (1, -1))
    turn = np.exp(1j * w * ends[:-1])
    inv_eps, inv_conj = 1.0 / (1.0 + np.exp(1j * w)), 1.0 / (1.0 + np.exp(-1j * w))
    # exp(Q) (1 + exp(Q))^{-1} = (1 + exp(-Q))^{-1}: the two eigenvalues swap
    eta = e0 * g * (np.multiply.outer(turn * (inv_conj * j_eps[-1] - j_eps[:-1]), EPS)
                    + np.multiply.outer((inv_eps * j_conj[-1] - j_conj[:-1]) / turn, EPS_CONJ))
    return transverse_spectral(turn * inv_eps, inv_conj / turn), eta


def spin_projection_constant(gamma_boundary) -> complex:
    """Conserved projection dot(k, Gamma) / 2 of the boundary spin vector; k has
    no transverse slots, so only the longitudinal part of Gamma enters."""
    return dot(WAVE_K, gamma_boundary) / 2.0
