"""Brute-force and closed-form oracles.

Everything here is algorithmically independent of the production formulas in
`kernels`, `green`, `fields` and `quadrature`: from the package it imports only
the error types and the basis constants (`errors`, `minkowski`), which an
import-graph test enforces. Each oracle is a plain function of plain arguments.
The oracles that verification calls per random draw (`zero_profile_green`,
`zero_profile_gradient`, `sliced_kernel` at one N, `carrier_kernel`,
`dressed_braces`, `cross_phase_closed`) take one context or a stack of them
on a leading axis, so that each check calls each oracle once: one context is
a stack of one, through the same code.
The time-sliced oracle `sliced_kernel` discretizes the transverse worldline
action

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
does not matter. The spectrum feeds the guard against a singular form; det T
and the four corners of T^(-1), all that the Gaussian's exponent reads (the
end sites alone carry its linear term), are Chebyshev closed forms in
theta = arctan(mu / kappa), so no lattice is solved.

`zero_profile_green` is Schwinger's closed-form constant-field propagator
(Phys. Rev. 82, 664 (1951)) rotated onto the Euclidean proper-time axis
e0 = i tau, where its integrand is real, positive and free of caustics,
integrated by an exp-sinh rule (below); `zero_profile_gradient` adds its four
x_b derivatives, for the transverse slots by one more weight per projector sign,
integrated in the same rule call. A stack of contexts is one rule call too,
each context scaled to its own saddle; the rule refines until every context's
levels agree, so a context may take a level more in a stack than alone, and
where it takes the same levels it has the same bits.
`free_propagator`'s K0 is the trapezoid sum of int_0^inf exp(-z cosh t) dt.

`landau_green` is the same proper-time integral in closed form: at the
drift-shifted far endpoint it is the constant-field (Landau) propagator,
Gamma(nu) e^{-X/2} U(nu, 1, X), evaluated by mpmath at 30 digits.

`carrier_kernel` is the phase integral K of a profile whose slope is a sum of
carriers, as a sum of the E(w, t) of `cross_phase_closed`, finite at every
frequency; `dressed_braces` builds the printed braces M+- from K at phi_b.
`cross_phase_nested` is the mixing exponent as the literal double integral in
real transverse coordinates: every node of the outer action integral solves
for the drift (`drift_nested`) by its own inner integrals, all nodes of a
level at once as one 2-D array. It returns the drift at phi_b, which its
boundary term solves for, with the exponent, and takes any profile.
`cross_phase_closed` returns the same two for a profile that is a sum of
carriers, A_c = a1 + i a2 = sum_k c_k e^{i w_k phi} (circular: one term,
linear: two), along the classical (Volkov) path: the drift and the action are
sums of elementary exponential integrals, and the cross term's double integral
is a divided difference of exp, evaluated so that it keeps its digits as a
frequency w_k approaches the cyclotron rate beta = g B / kp.

The integrals are double-exponential rules (Takahasi and Mori, Publ. RIMS 9,
721 (1974)) written here and vectorized over their nodes: tanh-sinh on finite
pieces, split at a profile's knots, and exp-sinh on [0, inf) scaled to the
saddle of the Euclidean weight. The trapezoid step in the map variable halves
until two levels agree to the requested tolerance, or the rule raises
QuadratureFailure. Each level's nodes and weights, but for a factor set by the
endpoints, are tables built when this module is imported, so a level costs one
broadcast of its endpoints and one product of the integrand with a table; the
first two levels are one call, as the first comparison needs both. No scipy:
the oracles cost `verify` no import beyond numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure, SingularForm
from .minkowski import (IDENTITY4, METRIC, P_MINUS, P_PLUS, SLASH_EPS, SLASH_EPS_CONJ,
                        SLASH_K)


def _interior_spectrum(n: int, kappa, mu) -> np.ndarray:
    """The N-1 eigenvalues of the tridiagonal Toeplitz block T of `sliced_kernel`,
    in closed form (module docstring): no eigensolver. kappa and mu may be
    arrays, the eigenvalues on a new last axis."""
    root = np.sqrt((1j * kappa + mu) * (1j * kappa - mu))[..., None]
    return 2j * np.asarray(kappa)[..., None] - 2.0 * root * np.cos(np.arange(1, n) * (np.pi / n))


def sliced_kernel(n_slices: int, e0, g, B, xa, xb):
    """Transverse path integral on N = n_slices time slices from the transverse
    endpoint xa to xb, proper time e0 and field g B, evaluated exactly. A stack
    of lattices at one N (e0, g, B of shape (k,), xa and xb of shape (k, 2))
    gives k kernels from one call. One lattice (scalars and two
    2-vectors) is a stack of one and gives a complex: the arithmetic runs on
    arrays either way, so each kernel of a stack has the bits it has alone."""
    n = n_slices
    if n < 2:
        raise ValueError(f"need at least 2 slices, got {n}")
    single = np.ndim(e0) == 0
    e0, g, B = (np.atleast_1d(v) for v in (e0, g, B))
    delta = 1.0 / n
    kappa = 1.0 / (e0 * delta)
    mu = g * B / 2.0

    # exponent = -(1/2) u^T A u + b^T u + c over the N-1 interior sites, two
    # components each; A has blocks 2i kappa on its diagonal, -(i kappa + mu sigma_y)
    # above it and -(i kappa - mu sigma_y) below. On sigma_y's eigenvectors
    # (1, +-i)/sqrt2 it splits into T (sigma_y = +1) and T^T (sigma_y = -1), and
    # b, which the end sites alone carry, into b_+ and b_- (times sqrt2 here)
    up, down = 1j * kappa - mu, 1j * kappa + mu
    (xa1, xa2), (xb1, xb2) = (np.atleast_2d(np.asarray(x, dtype=float)).T for x in (xa, xb))
    plus = up * (xa1 - 1j * xa2), down * (xb1 - 1j * xb2)      # b_+ at the first and last site
    minus = down * (xa1 + 1j * xa2), up * (xb1 + 1j * xb2)     # b_-
    c = -0.5j * kappa * (xa1 * xa1 + xa2 * xa2 + xb1 * xb1 + xb2 * xb2)

    lam = _interior_spectrum(n, kappa, mu)
    magnitude = np.abs(lam)
    if np.any(magnitude.min(axis=-1) < 1e-12 * magnitude.max(axis=-1)):
        raise SingularForm(f"discrete Gaussian singular at e0={e0!r}, N={n}")
    # A has each eigenvalue of T twice, so prod_A lam^(-1/2) = prod_T lam^(-1) = 1/det T;
    # and (1/2) b^T A^(-1) b = (1/2)(b_-^T T^(-1) b_+ + b_+^T T^(-T) b_-) = b_-^T T^(-1) b_+,
    # which reads T^(-1) at its four corners only. With tan(theta) = mu / kappa and
    # rho = i kappa / cos(theta), T's off-diagonals are -rho e^(-+i theta) and the
    # determinant of its leading k x k block is rho^k S(k + 1), S(k) = sin(k theta) /
    # sin(theta) (Chebyshev's U_{k-1}); so, M = N - 1, det T = rho^M S(N), both
    # diagonal corners of T^(-1) are S(M) / (rho S(N)) and the top right and bottom
    # left ones e^(-+i (M-1) theta) / (rho S(N))
    theta = np.arctan(mu / kappa)
    rho = 1j * kappa / np.cos(theta)

    def chebyshev(k):
        return np.divide(np.sin(k * theta), np.sin(theta), out=np.full_like(theta, k),
                         where=theta != 0.0)

    edge = rho * chebyshev(n)
    turn = np.exp(1j * (n - 2) * theta)
    exponent = ((minus[0] * plus[0] + minus[1] * plus[1]) * chebyshev(n - 1)
                + minus[0] * plus[1] / turn + minus[1] * plus[0] * turn) / (2.0 * edge) + c
    root = 1.0 / (rho ** (n - 2) * edge)
    prefactor = (1j / (2.0 * np.pi * e0 * delta)) ** n * (2.0 * np.pi) ** (n - 1)
    value = prefactor * root * np.exp(exponent)
    return complex(value[0]) if single else value


def free_kernel(e0: complex, xa, xb) -> complex:
    """B -> 0 transverse kernel, [i/(2 pi e0)] exp(-i |DX|^2 / (2 e0))."""
    xa = np.asarray(xa, dtype=complex)
    xb = np.asarray(xb, dtype=complex)
    dx2 = np.sum((xb - xa) ** 2)
    return complex(1j / (2.0 * np.pi * e0) * np.exp(-1j * dx2 / (2.0 * e0)))


def richardson_extrapolate(ns, values):
    """Extrapolate a 1/N^p sequence from its last three doublings.

    Returns (limit, observed_order). ns must double between samples. Each
    value may be an array (a stack of lattices), extrapolated entry by entry;
    the order is then an array too.
    """
    v1, v2, v3 = values[-3], values[-2], values[-1]
    order = np.log2(np.abs(v1 - v2) / np.abs(v2 - v3))
    return v3 + (v3 - v2) / (2.0 ** order - 1.0), order


def carrier_kernel(amplitudes, frequencies, g, kp, phi0, phi, beta, sign):
    """K(phi) integrated from phi0 for a profile whose slope is a sum of
    carriers, dot(eps, A') = sum_k c_k e^{i w_k phi} (`amplitudes` holds the
    complex c_k and `frequencies` the w_k on the last axis): with s = sign,
    which toggles the integrand exponential, beta = g B / kp and E as in
    `cross_phase_closed`, K = (g / 2 kp) e^{i beta phi}
    sum_k c_k e^{i (s beta + w_k) phi0} E(s beta + w_k, phi - phi0), which
    grows linearly in phi - phi0 at resonance, s beta + w_k = 0. A circular
    profile (a, nu) is one carrier (i a nu / sqrt2, nu), a linear one two,
    (+-i a nu / (2 sqrt2), +-nu), and a line a1 = slope phi one, (slope / sqrt2, 0).
    A stack of contexts (the scalars of shape (n,), the carriers of shape
    (n, K)) gives n kernels from one call, each with the bits it has alone."""
    single = np.ndim(amplitudes) == 1
    c = np.atleast_2d(np.asarray(amplitudes, dtype=complex))
    w = np.atleast_2d(np.asarray(frequencies, dtype=float))
    g, kp, phi0, phi, beta, sign = (np.atleast_1d(np.asarray(v, dtype=float))
                                    for v in (g, kp, phi0, phi, beta, sign))
    turn = (sign * beta)[:, None] + w
    integral = _terms(c * np.exp(1j * (turn * phi0[:, None]))
                      * _integral_e(turn, (phi - phi0)[:, None]))
    kernel = g / (2.0 * kp) * np.exp(1j * (beta * phi)) * integral
    return complex(kernel[0]) if single else kernel


def dressed_braces(k_b) -> tuple:
    """The printed braces (M+, M-) = ((1 - kslash epsslash* K) P+,
    (1 - kslash epsslash K*) P-) at phi_b, where K is k_b, with K integrated
    from phi_a, where it vanishes; for real data K* is K's complex conjugate.
    An array of k_b gives stacks of braces on its leading axes."""
    k_b = np.asarray(k_b)[..., None, None]
    return ((IDENTITY4 - SLASH_K @ SLASH_EPS_CONJ * k_b) @ P_PLUS,
            (IDENTITY4 - SLASH_K @ SLASH_EPS * np.conj(k_b)) @ P_MINUS)


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
    phase = np.exp(1j * _longitudinal(pL, x_b - x_a))
    return complex(phase * _k0(rho * np.sqrt(gap)) / (2.0 * np.pi))


def _longitudinal(pL, dx):
    """pL.dx^L: the metric product over the longitudinal slots 2 and 3, of
    one pair of four-vectors or of each pair of a stack."""
    return np.sum(METRIC[2:] * pL[..., 2:] * dx[..., 2:], axis=-1)


def _k0(z: float) -> float:
    """K0(z) = int_0^inf exp(-z cosh t) dt, z > 0, by the trapezoid rule, which
    converges geometrically for this even, entire integrand: the step resolves
    its width 1/sqrt(z) near t = 0, and the sum stops where z (cosh t - 1),
    written 2 z sinh^2(t/2), passes 40."""
    step = 0.125 / max(1.0, math.sqrt(z))
    t = step * np.arange(math.ceil(math.acosh(1.0 + 40.0 / z) / step) + 1)
    terms = np.exp(-2.0 * z * np.sinh(0.5 * t) ** 2)
    return math.exp(-z) * step * (float(np.sum(terms)) - 0.5)


def _euclidean_axis(x_a, x_b, pL, m, b):
    """(integrals, braces, dx) of `zero_profile_green`, for one context or a
    stack of them on the leading axes (each four-vector on the last axis):
    integrals(spread) is 2 pi times its weight integrated over tau by one
    exp-sinh rule for the whole stack, per context one entry per projector
    sign (+, -) on the last axis, the entry of sign(b) times q = exp(-|b| tau);
    with `spread`, a leading row holds the same times (b/2) coth(b tau/2);
    braces(I), I holding (I+, I-) on its last axis, is
    phase (I+ P+ + I- P-) / (4 pi); dx = x_b - x_a. The rule is scaled per
    context to the saddle sqrt(rho^2 / (2 gap)) of the free weight's exponent."""
    x_a, x_b, pL, m, b = (np.asarray(v, dtype=float) for v in (x_a, x_b, pL, m, b))
    gap = np.sum(METRIC * pL * pL, axis=-1) - m * m
    dx = x_b - x_a
    rho2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    if np.any(gap <= 0) or np.any(rho2 == 0.0):
        raise ValueError(f"oracle needs gap > 0 and |DX| > 0, got gap {gap!r}, |DX|^2 {rho2!r}")
    # the sign axis sits next to the nodes: each context's sums are then the
    # product of its own (2, nodes) block with the table, which has the same
    # bits in a stack of any size as alone
    damped = np.stack([b > 0.0, b < 0.0], axis=-1)[..., None]
    abs_b, rho2_n, gap_n = (v[..., None, None] for v in (np.abs(b), rho2, gap))

    def weights(tau, spread):
        # 2 pi times the weight: the braces carry the 1/(2 pi)
        x = abs_b * tau
        q = np.exp(-x)
        h = np.divide(x, -np.expm1(-x), out=np.ones_like(x), where=x > 0.0)   # x / (1 - q)
        coth = h * (1.0 + q) / (2.0 * tau)                  # (|b|/2) coth(|b| tau/2)
        w = h / tau * np.exp(-0.5 * rho2_n * coth - 0.5 * gap_n * tau)
        if spread:
            w = np.stack([w, w * coth])
        return np.where(damped, w * q, w)

    def integrals(spread):
        return _double_exponential(lambda tau: weights(tau, spread),
                                   _exp_sinh(np.sqrt(rho2 / (2.0 * gap))[..., None]), 0.0, 1e-13)

    phase = (np.exp(1j * (_longitudinal(pL, dx)
                          + 0.5 * b * (x_b[..., 0] * x_a[..., 1] - x_b[..., 1] * x_a[..., 0])))
             / (4.0 * np.pi))[..., None, None]

    def braces(signs):
        return phase * (signs[..., 0, None, None] * P_PLUS + signs[..., 1, None, None] * P_MINUS)

    return integrals, braces, dx


def zero_profile_green(x_a, x_b, pL, m, b) -> np.ndarray:
    """Constant-field (zero-profile) Green function on the Euclidean axis e0 = i tau.

    G = exp(i pL.dx^L) exp(i (b/2)(xb1 xa2 - xb2 xa1)) (1/2) int_0^inf dtau
        [b / (4 pi sinh(b tau/2))] exp(-(b/4) coth(b tau/2) |DX|^2 - tau gap/2)
        (exp(-b tau/2) P+ + exp(+b tau/2) P-),  b = g B, gap = pL^2 - m^2,
    with sinh and coth written through q = exp(-|b| tau) so that nothing
    overflows at large tau (b = 0 is the free limit). A stack of contexts
    (x_a, x_b, pL of shape (..., 4), m and b of shape (...)) gives a stack of
    G of shape (..., 4, 4) from one rule call, which refines until every
    context's levels agree.
    """
    integrals, braces, _ = _euclidean_axis(x_a, x_b, pL, m, b)
    return braces(integrals(False))


def zero_profile_gradient(x_a, x_b, pL, m, b) -> tuple:
    """(G, [dG/dx_b^mu]) of `zero_profile_green`, one context or a stack,
    differentiated under the integral: d/dxb1 of i (b/2) xb1 xa2
    - (b/4) coth(b tau/2) |DX|^2 is i (b/2) xa2 - (b/2) coth(b tau/2) DX1
    (slot 2 likewise), one more weight per projector sign; a longitudinal slot
    mu gives i g_mumu pL^mu G."""
    integrals, braces, dx = _euclidean_axis(x_a, x_b, pL, m, b)
    x_a, pL, b = (np.asarray(v, dtype=float) for v in (x_a, pL, b))
    plain, spread = integrals(True)
    gauge = 0.5j * b * np.stack([x_a[..., 1], -x_a[..., 0]])
    value = braces(plain)
    return value, ([braces(gauge[mu][..., None] * plain - dx[..., mu, None] * spread)
                    for mu in (0, 1)]
                   + [1j * METRIC[mu] * pL[..., mu, None, None] * value for mu in (2, 3)])


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
    phase = np.exp(1j * _longitudinal(pL, x_b - x_a) + cross + 0.5j * b * chi)
    return 0.5 * phase * (j_plus * np.asarray(plus) + j_minus * np.asarray(minus))


def drift_nested(components, g: float, B: float, kp: float, phi_a: float, phi: float,
                 knots=()) -> tuple:
    """Transverse drift (Y1, Y2) at phi, at rest at phi_a, in the real
    transverse plane: Y(phi) = rate int_{phi_a}^{phi} exp(-rate F (phi - p)) A(p) dp
    with rate = g / kp, A = components(p) and F = B [[0, 1], [-1, 0]], a
    rotation by rate B (phi - p), by a tanh-sinh rule. `knots` are phases where
    the profile is not smooth: the rule runs on each piece between them."""
    y = complex(_drift(components, g / kp, B, phi_a, phi, knots))
    return y.real, y.imag


def _drift(components, rate: float, B: float, phi_a: float, phi, knots) -> np.ndarray:
    """`drift_nested` at every phase of the array phi at once, as Y1 + i Y2:
    one 2-D array of inner nodes per piece, where the rotation of
    A = a1 + i a2 by rate B (phi - p) is a product with its cos + i sin."""
    ends = np.asarray(phi, dtype=float)

    def forced(p):
        angle = rate * B * (ends[..., None] - p)
        a1, a2 = components(p)
        return rate * (np.cos(angle) + 1j * np.sin(angle)) * (a1 + 1j * a2)

    return _piecewise(forced, phi_a, ends, knots)


def cross_phase_nested(components, g: float, B: float, kp: float, phi_a: float, phi_b: float,
                       xb, knots=()) -> tuple:
    """(exponent, (Y1, Y2)): the mixing exponent
    -i (g/2) [int_{phi_a}^{phi_b} A . dY/dphi + (X_b - Y_b) . F Y_b] and the
    drift Y_b at phi_b that its boundary term solves for, as `drift_nested`.

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
        y = _drift(components, rate, B, phi_a, phi, knots)
        return rate * (a1 * (a1 - B * y.imag) + a2 * (a2 + B * y.real))

    y1, y2 = drift_nested(components, g, B, kp, phi_a, phi_b, knots)
    boundary = (float(xb[0]) - y1) * B * y2 - (float(xb[1]) - y2) * B * y1
    return -0.5j * g * (float(_piecewise(density, phi_a, phi_b, knots)) + boundary), (y1, y2)


def cross_phase_closed(amplitudes, frequencies, g, B, kp, phi_a, phi_b, xb) -> tuple:
    """(exponent, (Y1, Y2)) of `cross_phase_nested` in closed form, for a
    profile A_c = a1 + i a2 = sum_k c_k e^{i w_k phi}: `amplitudes` holds the
    c_k (complex) and `frequencies` the w_k on its last axis. A circular
    profile is one term (a, nu), a linear one two, (a/2, +-nu).

    With rate = g / kp, beta = rate B, t = phi - phi_a and
    E(w, t) = int_0^t e^{i w s} ds, the drift at rest at phi_a is the sum
    Y1 + i Y2 = rate sum_k c_k e^{i w_k phi_a} e^{i beta t} E(w_k - beta, t),
    and the action rate int_0^D [|A_c|^2 - B Im(conj(A_c) Y_c)] ds,
    D = phi_b - phi_a, holds besides E only
    F(al, ga, D) = int_0^D e^{i al s} E(ga, s) ds, the divided difference
    D^2 exp[0, i al D, i (al + ga) D] (`_exp_divided`), which keeps its digits
    as a frequency difference goes to 0. A stack of contexts (g, B, kp,
    phi_a, phi_b of shape (n,), xb of shape (n, 2), the terms of shape
    (n, K)) gives n exponents and drifts from one call; one context (the
    terms of shape (K,)) is a stack of one, so each context of a stack has
    the bits it has alone."""
    single = np.ndim(amplitudes) == 1
    c = np.atleast_2d(np.asarray(amplitudes, dtype=complex))
    w = np.atleast_2d(np.asarray(frequencies, dtype=float))
    g, B, kp, phi_a, phi_b = (np.atleast_1d(np.asarray(v, dtype=float))
                              for v in (g, B, kp, phi_a, phi_b))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    rate = g / kp
    beta, span = rate * B, phi_b - phi_a
    at_a = c * np.exp(1j * (w * phi_a[:, None]))        # each term at phi_a
    drift = _terms(at_a * _integral_e(w - beta[:, None], span[:, None]))
    drift = rate * np.exp(1j * (beta * span)) * drift
    # pairs (j, k) of terms on the last two axes
    wj, wk, cj, ck = w[:, :, None], w[:, None, :], at_a[:, :, None], at_a[:, None, :]
    beta, span = beta[:, None, None], span[:, None, None]
    square = _terms(_terms(cj * np.conj(ck) * _integral_e(wj - wk, span)))
    cross = _terms(_terms(np.conj(cj) * ck * span ** 2
                          * _exp_divided(1j * ((beta - wj) * span), 1j * ((wk - wj) * span))))
    action = rate * (square.real - B * (rate * cross).imag)
    y1, y2 = drift.real, drift.imag
    boundary = (xb[:, 0] - y1) * B * y2 - (xb[:, 1] - y2) * B * y1
    exponent = -0.5j * g * (action + boundary)
    if single:
        return complex(exponent[0]), (float(y1[0]), float(y2[0]))
    return exponent, (y1, y2)


def _terms(values):
    """The sum over the last axis, in order: a stack of any size adds each
    context's terms alike."""
    total = values[..., 0]
    for k in range(1, values.shape[-1]):
        total = total + values[..., k]
    return total


def _phi1(z):
    """(e^z - 1) / z, 1 at z = 0, through expm1, which keeps its digits as z -> 0."""
    return np.divide(np.expm1(z), z, out=np.ones(z.shape, complex), where=z != 0.0)


def _integral_e(w, t):
    """E(w, t) = int_0^t e^{i w s} ds = t (e^{i w t} - 1) / (i w t)."""
    return t * _phi1(1j * (w * t))


#: The series of `_exp_divided`, sum_{i, j} x^i z^j / (i + j + 2)! over
#: i + j <= 18: at |x|, |z| < 1 the first terms left out, i + j = 19, are
#: below 1e-18 of the sum's first.
_SERIES_POWERS = np.arange(19)
_SERIES = np.array([[1.0 / math.factorial(i + j + 2) if i + j <= 18 else 0.0
                     for j in _SERIES_POWERS] for i in _SERIES_POWERS])


def _exp_divided(x, z):
    """The divided difference exp[0, x, z] = int over the triangle
    0 <= v <= s <= 1 of exp(x s + (z - x) v). Of the three points' distances
    |x|, |z| and |z - x| the largest divides the difference of two first
    divided differences, exp[0, x] = phi1(x), exp[0, z] = phi1(z) and
    exp[x, z] = e^x phi1(z - x), each accurate to rounding, so the result
    keeps its digits where that distance is 1 or more; below, every point
    lies within 1 of 0 and the double series `_SERIES` converges fast."""
    x, z = np.broadcast_arrays(x, z)
    y = z - x
    far_x, far_z, far_y = abs(x), abs(z), abs(y)
    span = np.maximum(np.maximum(far_x, far_z), far_y)
    first_x, first_z, first_y = _phi1(np.stack([x, z, y]))
    shifted = np.exp(x) * first_y
    by_y, by_x = far_y == span, far_x == span
    numerator = np.where(by_y, first_z - first_x,
                         np.where(by_x, shifted - first_z, shifted - first_x))
    denominator = np.where(by_y, y, np.where(by_x, x, z))
    value = np.divide(numerator, denominator, out=np.zeros_like(numerator),
                      where=span >= 1.0)
    near = span < 1.0
    if near.any():
        powers_x, powers_z = (v[..., None] ** _SERIES_POWERS for v in (x, z))
        series = ((powers_z @ _SERIES) * powers_x).sum(axis=-1)
        value = np.where(near, series, value)
    return value


def _piecewise(fn, start: float, ends, knots):
    """int_start^end fn for every entry of `ends` (all on one side of `start`),
    by a tanh-sinh rule on each piece between the knots in between, to the
    accuracy the nested oracles ask (abs 1e-13, rel 1e-12). A knot past an
    end clips onto it and leaves that end an empty piece."""
    ends = np.asarray(ends, dtype=float)
    points = [start, ends]
    if len(knots):
        low, high = np.minimum(start, ends), np.maximum(start, ends)
        inside = sorted((k for k in knots if low.min() < k < high.max()),
                        key=lambda k: abs(k - start))
        points[1:1] = [np.clip(k, low, high) for k in inside]
    return sum(_double_exponential(fn, _tanh_sinh(lo, hi), 1e-13, 1e-12)
               for lo, hi in zip(points[:-1], points[1:]))


#: Double-exponential rules sum over t in [-_DE_SPAN, _DE_SPAN], where a
#: tanh-sinh weight has fallen below 1e-22 of the span and an exp-sinh node
#: spans scale * exp(-+26); the step halves from 1/2 for at most _DE_LEVELS levels.
_DE_SPAN = 3.5
_DE_LEVELS = 10


def _stages(node_map) -> list:
    """A rule's table: per stage, node_map(t) at the stage's abscissae t,
    with its last entry, x'(t) over the endpoint-dependent scale, times the
    trapezoid step: the stage's weights. Stage 0 holds levels 0 and 1
    (steps 1/2 and 1/4), whose sums the first comparison needs, with a weight
    column per level (level 0's is zero on level 1's nodes); stage k >= 1
    holds level k + 1, the odd multiples of its step."""
    half_span = round(2 * _DE_SPAN)             # multiples of 1/2 in half the span
    level_0 = 0.5 * np.arange(-half_span, half_span + 1)
    *data, jacobian = node_map(np.concatenate(
        [level_0, 0.25 * np.arange(1 - 2 * half_span, 2 * half_span, 2)]))
    coarse = np.where(np.arange(jacobian.size) < level_0.size, 0.5 * jacobian, 0.0)
    stages = [(*data, np.stack([coarse, 0.25 * jacobian], axis=-1))]
    for level in range(2, _DE_LEVELS):
        step = 0.5 ** (level + 1)
        steps = half_span << level
        *data, jacobian = node_map(step * np.arange(1 - steps, steps, 2))
        stages.append((*data, step * jacobian))
    return stages


def _tanh_sinh_map(t) -> tuple:
    """(upper, c, jacobian) of the tanh-sinh map at t: the nodes taken from
    the upper end (t >= 0), c = 1 - tanh|u| signed so that each node is its
    end plus half c, and x'(t) / half = (pi/2) cosh t sech^2 u, sech^2 u = c (2 - c)."""
    c = 2.0 / (1.0 + np.exp(np.pi * np.abs(np.sinh(t))))
    upper = t >= 0.0
    return upper, np.where(upper, -c, c), (0.5 * np.pi) * np.cosh(t) * c * (2.0 - c)


def _exp_sinh_map(t) -> tuple:
    """(e, jacobian) of the exp-sinh map at t: x / scale = e = exp((pi/2) sinh t)
    and x'(t) / scale = e (pi/2) cosh t."""
    e = np.exp(0.5 * np.pi * np.sinh(t))
    return e, e * (0.5 * np.pi) * np.cosh(t)


#: The rules' tables, built once when the module is imported.
_TANH_SINH = _stages(_tanh_sinh_map)
_EXP_SINH = _stages(_exp_sinh_map)


def _double_exponential(fn, rule, epsabs: float, epsrel: float):
    """Trapezoid sum over t of fn(x(t)) x'(t) for a double-exponential rule
    (scale, nodes, table): nodes(stage) gives a stage's nodes x, and x'(t)
    times the step is scale times the stage's weights, the last entry of
    table[stage], so each level costs one product of fn's values with a
    table. The step halves, each level adding the odd multiples of the new
    step, until two levels agree within max(epsabs, epsrel |sum|) at every
    entry; QuadratureFailure if they never do. fn may return any leading
    shape: its last axis runs over the nodes, and scale broadcasts against
    the rest."""
    scale, nodes, table = rule
    first = fn(nodes(0)) @ table[0][-1]               # levels 0 and 1
    total, refined = scale * first[..., 0], scale * first[..., 1]
    stage = 1
    while not np.all(np.abs(refined - total) <= np.maximum(epsabs, epsrel * np.abs(refined))):
        if stage == len(table):
            raise QuadratureFailure(
                f"double-exponential rule did not converge in {_DE_LEVELS} levels",
                error_estimate=float(np.max(np.abs(refined - total))))
        total, refined = refined, 0.5 * refined + scale * (fn(nodes(stage)) @ table[stage][-1])
        stage += 1
    return refined


def _tanh_sinh(lo, hi):
    """Nodes x(t) = mid + half tanh(u), u = (pi/2) sinh t, from lo to hi (arrays
    broadcast, the nodes on a new last axis), written through c = 1 - tanh|u|
    from the nearer end so that nodes crowding an end keep their digits."""
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)

    def nodes(stage):
        upper, c, _ = _TANH_SINH[stage]
        return np.where(upper, hi, lo) + half * c

    return half[..., 0], nodes, _TANH_SINH


def _exp_sinh(scale):
    """Nodes x(t) = scale exp((pi/2) sinh t) on [0, inf), for every entry of
    scale (an array) at once, the nodes on a new last axis."""
    return scale, lambda stage: np.asarray(scale)[..., None] * _EXP_SINH[stage][0], _EXP_SINH
