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
Fresnel phases) as on the rotated ray. T is tridiagonal Toeplitz, with 2i kappa
on its diagonal, -(i kappa + mu) above it and -(i kappa - mu) below (kappa =
N/e0, mu = g B/2), so its spectrum is known in closed form:

    lambda_k = 2i kappa - 2 sqrt((i kappa + mu)(i kappa - mu)) cos(k pi / N),
    k = 1 ... N-1

(the eigenvectors are sines, scaled geometrically by the ratio of the two
off-diagonals). The cosines come in +- pairs, so the branch of the square root
does not matter. The interior solve runs on T alone.

`zero_profile_green` is Schwinger's closed-form constant-field propagator
(Phys. Rev. 82, 664 (1951)) rotated onto the Euclidean proper-time axis
e0 = i tau, where its integrand is real, positive and free of caustics,
integrated by an exp-sinh rule (below); `zero_profile_gradient` adds its four
x_b derivatives, for the transverse slots by one more weight per projector sign.
`free_propagator`'s K0 is the trapezoid sum of int_0^inf exp(-z cosh t) dt.

`landau_green` is the same proper-time integral in closed form: at the
drift-shifted far endpoint it is the constant-field (Landau) propagator,
Gamma(nu) e^{-X/2} U(nu, 1, X), evaluated by mpmath at 30 digits.

`cross_phase_nested` is the mixing exponent as the literal double integral in
real transverse coordinates: every node of the outer action integral solves
for the drift (`drift_nested`) by its own inner integrals, all nodes of a level
at once as one 2-D array.

The integrals are double-exponential (Takahasi-Mori) rules written here and
vectorized over their nodes: tanh-sinh on finite pieces, split at a profile's
knots, and exp-sinh on [0, inf) scaled to the saddle of the Euclidean weight.
The trapezoid step in the map variable halves until two levels agree to the
requested tolerance, or the rule raises QuadratureFailure. No scipy: the oracles
cost `verify` no import beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure, ResonantDenominator, SingularForm
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


def _interior_spectrum(n: int, kappa: complex, mu: float) -> np.ndarray:
    """The N-1 eigenvalues of the tridiagonal Toeplitz block T of `sliced_kernel`,
    in closed form (module docstring): no eigensolver."""
    root = np.sqrt((1j * kappa + mu) * (1j * kappa - mu))
    return 2j * kappa - 2.0 * root * np.cos(np.arange(1, n) * (np.pi / n))


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

    lam = _interior_spectrum(n, kappa, mu)
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
    return complex(np.exp(1j * phase) * _k0(rho * np.sqrt(gap)) / (2.0 * np.pi))


def _k0(z: float) -> float:
    """K0(z) = int_0^inf exp(-z cosh t) dt, z > 0, by the trapezoid rule, which
    converges geometrically for this even, entire integrand: the step resolves
    its width 1/sqrt(z) near t = 0, and the sum stops where z (cosh t - 1),
    written 2 z sinh^2(t/2), passes 40."""
    step = 0.125 / max(1.0, math.sqrt(z))
    t = step * np.arange(math.ceil(math.acosh(1.0 + 40.0 / z) / step) + 1)
    terms = np.exp(-2.0 * z * np.sinh(0.5 * t) ** 2)
    return math.exp(-z) * step * (float(np.sum(terms)) - 0.5)


def _euclidean_axis(x_a, x_b, pL, m: float, b: float):
    """(integrals, braces, dx) of `zero_profile_green`: integrals(spread) is its
    weight integrated over tau by an exp-sinh rule, one entry per projector
    sign (+, -), the entry of sign(b) times q = exp(-|b| tau), and both times
    (b/2) coth(b tau/2) if `spread`; braces(I+, I-) is
    (1/2) phase (I+ P+ + I- P-); dx = x_b - x_a. The rule is scaled to the
    saddle sqrt(rho^2 / (2 gap)) of the free weight's exponent."""
    x_a, x_b, pL = (np.asarray(v, dtype=float) for v in (x_a, x_b, pL))
    gap = float(np.sum(METRIC * pL * pL)) - m * m
    dx = x_b - x_a
    rho2 = float(dx[0] ** 2 + dx[1] ** 2)
    if gap <= 0 or rho2 == 0.0:
        raise ValueError(f"oracle needs gap > 0 and |DX| > 0, got gap {gap!r}, |DX|^2 {rho2!r}")
    damped = np.array([[b > 0.0], [b < 0.0]])

    def weights(tau, spread):
        x = abs(b) * tau
        q = np.exp(-x)
        h = np.divide(x, -np.expm1(-x), out=np.ones_like(x), where=x > 0.0)   # x / (1 - q)
        w = h / (2.0 * np.pi * tau) * np.exp(-h * (1.0 + q) * rho2 / (4.0 * tau) - 0.5 * tau * gap)
        if spread:
            w = w * h * (1.0 + q) / (2.0 * tau)
        return np.where(damped, w * q, w)

    def integrals(spread):
        return _double_exponential(lambda tau: weights(tau, spread),
                                   _exp_sinh(math.sqrt(rho2 / (2.0 * gap))), 0.0, 1e-13)

    phase = np.exp(1j * (np.sum(METRIC[2:] * pL[2:] * dx[2:])
                         + 0.5 * b * (x_b[0] * x_a[1] - x_b[1] * x_a[0])))
    return integrals, lambda plus, minus: 0.5 * phase * (plus * P_PLUS + minus * P_MINUS), dx


def zero_profile_green(x_a, x_b, pL, m: float, b: float) -> np.ndarray:
    """Constant-field (zero-profile) Green function on the Euclidean axis e0 = i tau.

    G = exp(i pL.dx^L) exp(i (b/2)(xb1 xa2 - xb2 xa1)) (1/2) int_0^inf dtau
        [b / (4 pi sinh(b tau/2))] exp(-(b/4) coth(b tau/2) |DX|^2 - tau gap/2)
        (exp(-b tau/2) P+ + exp(+b tau/2) P-),  b = g B, gap = pL^2 - m^2,
    with sinh and coth written through q = exp(-|b| tau) so that nothing
    overflows at large tau (b = 0 is the free limit).
    """
    integrals, braces, _ = _euclidean_axis(x_a, x_b, pL, m, b)
    return braces(*integrals(False))


def zero_profile_gradient(x_a, x_b, pL, m: float, b: float) -> tuple:
    """(G, [dG/dx_b^mu]) of `zero_profile_green`, differentiated under the
    integral: d/dxb1 of i (b/2) xb1 xa2 - (b/4) coth(b tau/2) |DX|^2 is
    i (b/2) xa2 - (b/2) coth(b tau/2) DX1 (slot 2 likewise), one more weight per
    projector sign; a longitudinal slot mu gives i g_mumu pL^mu G."""
    integrals, braces, dx = _euclidean_axis(x_a, x_b, pL, m, b)
    plain, spread = integrals(False), integrals(True)
    gauge = 0.5j * b * np.array([x_a[1], -x_a[0]])
    value = braces(*plain)
    return value, ([braces(*(gauge[mu] * plain - dx[mu] * spread)) for mu in (0, 1)]
                   + [1j * METRIC[mu] * pL[mu] * value for mu in (2, 3)])


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
    rotation by rate B (phi - p), by a tanh-sinh rule. `knots` are phases where
    the profile is not smooth: the rule runs on each piece between them."""
    return tuple(float(y) for y in _drift(components, g / kp, B, phi_a, phi, knots))


def _drift(components, rate: float, B: float, phi_a: float, phi, knots) -> np.ndarray:
    """`drift_nested` at every phase of the array phi at once, shape
    (2, *phi.shape): one 2-D array of inner nodes per piece."""
    ends = np.asarray(phi, dtype=float)[..., None]

    def forced(p):
        angle = rate * B * (ends - p)
        a1, a2 = components(p)
        cos, sin = np.cos(angle), np.sin(angle)
        return rate * np.stack([cos * a1 - sin * a2, sin * a1 + cos * a2])

    return _piecewise(forced, phi_a, ends, knots)


def cross_phase_nested(components, g: float, B: float, kp: float, phi_a: float, phi_b: float,
                       xb, knots=()) -> complex:
    """Mixing exponent -i (g/2) [int_{phi_a}^{phi_b} A . dY/dphi + (X_b - Y_b) . F Y_b].

    Real transverse plane (metric +1, +1): A = components(phi) = (a1, a2),
    F = B [[0, 1], [-1, 0]] and, with rate = g / kp, the drift at rest at phi_a
    is Y(phi) = rate int_{phi_a}^{phi} exp(-rate F (phi - p)) A(p) dp, a
    rotation by rate B (phi - p), computed afresh at every outer node: the
    inner rule runs at all outer nodes of a level as one 2-D array.
    xb holds the two transverse components of x_b; `knots` are phases where
    the profile is not smooth (a tabulated grid), where both rules split.
    """
    rate = g / kp

    def density(phi):
        a1, a2 = components(phi)
        y1, y2 = _drift(components, rate, B, phi_a, phi, knots)
        return rate * (a1 * (a1 - B * y2) + a2 * (a2 + B * y1))

    y1, y2 = drift_nested(components, g, B, kp, phi_a, phi_b, knots)
    boundary = (float(xb[0]) - y1) * B * y2 - (float(xb[1]) - y2) * B * y1
    return -0.5j * g * (float(_piecewise(density, phi_a, phi_b, knots)) + boundary)


def _piecewise(fn, start: float, ends, knots):
    """int_start^end fn for every entry of `ends` (all on one side of `start`),
    by a tanh-sinh rule on each piece between the knots in between, to the
    accuracy the nested oracles ask (abs 1e-13, rel 1e-12). A knot past an
    end clips onto it and leaves that end an empty piece."""
    ends = np.asarray(ends, dtype=float)
    low, high = np.minimum(start, ends), np.maximum(start, ends)
    inside = sorted((k for k in knots if low.min() < k < high.max()), key=lambda k: abs(k - start))
    points = [np.full_like(ends, start)] + [np.clip(k, low, high) for k in inside] + [ends]
    return sum(_double_exponential(fn, _tanh_sinh(lo, hi), 1e-13, 1e-12)
               for lo, hi in zip(points[:-1], points[1:]))


#: Double-exponential rules sum over t in [-_DE_SPAN, _DE_SPAN], where a
#: tanh-sinh weight has fallen below 1e-22 of the span and an exp-sinh node
#: spans scale * exp(-+26); the step halves from 1/2 for at most _DE_LEVELS levels.
_DE_SPAN = 3.5
_DE_LEVELS = 10


def _double_exponential(fn, nodes, epsabs: float, epsrel: float):
    """Trapezoid sum over t of fn(x(t)) x'(t) for a double-exponential map
    `nodes(t) -> (x, x')`. The step halves, each level adding the odd
    multiples of the new step, until two levels agree within
    max(epsabs, epsrel |sum|) at every entry; QuadratureFailure if they never
    do. fn may return any leading shape: its last axis runs over the nodes."""

    def level_sum(t):
        x, jacobian = nodes(t)
        return np.sum(fn(x) * jacobian, axis=-1)

    steps = round(2 * _DE_SPAN)             # half-steps of the first level
    total = 0.5 * level_sum(0.5 * np.arange(-steps, steps + 1))
    for level in range(1, _DE_LEVELS):
        step, steps = 0.5 ** (level + 1), 2 * steps
        refined = 0.5 * total + step * level_sum(step * np.arange(1 - steps, steps, 2))
        change = np.abs(refined - total)
        if np.all(change <= np.maximum(epsabs, epsrel * np.abs(refined))):
            return refined
        total = refined
    raise QuadratureFailure(f"double-exponential rule did not converge in {_DE_LEVELS} levels",
                            error_estimate=float(np.max(change)))


def _tanh_sinh(lo, hi):
    """Nodes x(t) = mid + half tanh(u), u = (pi/2) sinh t, from lo to hi (arrays
    broadcast), written through c = 1 - tanh|u| from the nearer end so that
    nodes crowding an end keep their digits; sech^2 u = c (2 - c)."""
    half = 0.5 * (hi - lo)

    def nodes(t):
        c = 2.0 / (1.0 + np.exp(np.pi * np.abs(np.sinh(t))))
        x = np.where(t < 0.0, lo + half * c, hi - half * c)
        return x, half * (0.5 * np.pi) * np.cosh(t) * c * (2.0 - c)

    return nodes


def _exp_sinh(scale: float):
    """Nodes x(t) = scale exp((pi/2) sinh t) on [0, inf)."""

    def nodes(t):
        x = scale * np.exp(0.5 * np.pi * np.sinh(t))
        return x, x * (0.5 * np.pi) * np.cosh(t)

    return nodes
