"""Closed-form kernels and phases of the proper-time representation.

`schwinger_kernel` is the transverse constant-field kernel

    [i g B / (4 pi sin(e0 g B / 2))]
      * exp{ i (g B / 2) [ (Xb1 Xa2 - Xb2 Xa1) - (1/2) cot(e0 g B / 2) |DX|^2 ] }

with caustics at e0 g B in 2 pi Z, written through `landau_factors`. Its
e0-dependent part, `folded_kernel`, sees the endpoints only through
rho^2 = |DX|^2; the gauge phase i (g B / 2)(Xb1 Xa2 - Xb2 Xa1) is a constant.
Everything the wave phase contributes comes from one pass along it,
`phase_pass`, whose `PhasePass` is a plain record of:

* `kernel_a`, `kernel_b`: the phase-integral dressing at phi_a and phi_b,
  as printed,

    K(phi) = [g / (2 dot(k, pL))] exp(i beta phi)
             * int_{phi0}^{phi} exp(i beta phi') dot(eps, A'^p(phi')) dphi',
    beta = g B / dot(k, pL),

  with a sign toggle that flips the integrand exponential only (`sign=-1`)
  for sensitivity studies; K*, the same with eps -> eps* and both
  exponentials sign-conjugated, is the complex conjugate of K for the real
  profiles here, so callers take it as `.conjugate()`;
* `drift`: the real transverse drift (Y1, Y2) at phi_b, at rest at phi_a, in
  the phi parameterization, where the proper-time scale drops out:
  dY/dphi = (g / dot(k, pL)) (A^p(phi) - f Y);
* `action`: the real int_{phi_a}^{phi_b} A^p . dY/dphi, which enters the
  e0-independent exponent as -i (g/2) action; `green._prepare` adds the
  boundary term and the gauge phase at X = x_b - Y in one expression.

rot(phi - p) = rot(phi - phi_a) rot(phi_a - p) makes Y = rate rot(phi - phi_a) C(phi),
with C the integral from phi_a of d, the eps component of rot(phi_a - p) A^p(p)
(its eps* component is conj(d)). With w = C(phi_b) exp(-i beta (phi_b - phi_a)),
Y = sqrt2 rate (Re w, -Im w), and the action density is
2 rate (|d|^2 - beta Im(d conj(C))), so one panel set and its cumulative sums
give all of these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZero, KernelSingularity
from .fields import FieldConfig
from .minkowski import SQRT2, WAVE_K, dot
from .quadrature import CUMULATIVE, XK, adaptive_quad

#: |sin(e0 g B / 2)| below this raises KernelSingularity.
CAUSTIC_TOLERANCE = 1e-10

#: |sin(e0 g B / 2)| below this sets the near-caustic flag of the `kernel` command.
NEAR_CAUSTIC_THRESHOLD = 0.05


@dataclass(frozen=True)
class KernelDiagnostics:
    error_estimate: float     # proper-time quadrature error estimate
    nodes: int                # proper-time quadrature nodes
    prepare_nodes: int        # nodes of the phase pass (action, drift, K)
    prepare_error: float      # its error estimate


def landau_factors(e0, b: float):
    """(h, q) at one proper time e0 or at an array of them, b = g B: q = exp(i |b| e0)
    and h = |b| / (1 - q), or its limit i / e0 at b = 0 (where q = 1). Then

        i b / (4 pi sin(e0 b / 2)) = h q^{1/2} / (2 pi),   (b/2) cot(e0 b / 2) = -(i/2) h (1 + q),

    and |q| <= 1 on the upper half plane, so nothing overflows however far out
    e0 lies. Raises KernelSingularity at e0 = 0 and on caustics: |sin(e0 b / 2)|
    = |1 - q| / (2 |q|^{1/2}) < 1e-10 away from the short-time end (|e0 b / 2| >= 1).
    """
    if np.any(np.asarray(e0) == 0):
        raise KernelSingularity("e0 = 0 is the short-time endpoint")
    if b == 0.0:
        return 1j / e0, 1.0
    z = 1j * abs(b) * e0
    q = np.exp(z)
    one_minus_q = -np.expm1(z)
    caustic = (np.abs(one_minus_q) < 2.0 * CAUSTIC_TOLERANCE * np.sqrt(np.abs(q))) \
        & (np.abs(z) >= 2.0)
    if np.any(caustic):
        raise KernelSingularity(f"caustic: |sin(e0 g B / 2)| < {CAUSTIC_TOLERANCE:g} "
                                f"at e0={np.asarray(e0)[caustic]!r}")
    return abs(b) / one_minus_q, q


def folded_kernel(e0, rho2, b: float):
    """(k, q): the transverse kernel without its gauge phase is k q^{1/2},
    q = exp(i |b| e0), b = g B, with rho2 the squared transverse distance of the
    endpoints; a caller's factor exp(+-i e0 b / 2) makes it k q or k, and
    nothing overflows."""
    h, q = landau_factors(e0, b)
    return h / (2.0 * np.pi) * np.exp(-0.25 * h * (1.0 + q) * rho2), q


def schwinger_kernel(e0, x_a: np.ndarray, x_b: np.ndarray, cfg: FieldConfig):
    """Transverse proper-time kernel of the constant magnetic background
    between the transverse slots (0 and 1) of the endpoints x_a and x_b, at one
    e0 (complex result) or at each of an array of them.

    Tends to [i/(2 pi e0)] exp(-i |DX|^2 / (2 e0)) as B -> 0 (and is that at
    B = 0); raises KernelSingularity on caustics (|sin(e0 g B / 2)| < 1e-10).
    """
    b = cfg.g * cfg.B
    rho2 = (x_b[0] - x_a[0]) ** 2 + (x_b[1] - x_a[1]) ** 2
    k, _ = folded_kernel(e0, rho2, b)
    value = k * np.exp(0.5j * b * (x_b[0] * x_a[1] - x_b[1] * x_a[0]) + 0.5j * abs(b) * e0)
    return complex(value) if np.ndim(value) == 0 else value


def near_caustic(e0: complex, cfg: FieldConfig) -> bool:
    half = e0 * cfg.g * cfg.B / 2.0
    return bool(abs(half) >= 1.0 and abs(np.sin(half)) < NEAR_CAUSTIC_THRESHOLD)


def spin_determinant(e0: complex, cfg: FieldConfig) -> complex:
    """Fluctuation determinant of the spin sector, cos(e0 g B / 2)."""
    return complex(np.cos(e0 * cfg.g * cfg.B / 2.0))


#: The drift and phase-integral columns of `phase_pass` meet this share of
#: the tolerances its action column meets.
SUB_TOLERANCE = 1e-2


@dataclass(frozen=True)
class PhasePass:
    """What the wave phase contributes between phi_a and phi_b (drift at rest
    at phi_a), with the kernel K integrated from phi0; K* is its conjugate."""

    action: float             # int_{phi_a}^{phi_b} A^p . dY/dphi dphi
    drift: np.ndarray         # (Y1, Y2) at phi_b
    kernel_a: complex         # K(phi_a)
    kernel_b: complex         # K(phi_b)
    nodes: int
    error_estimate: float


def phase_pass(cfg: FieldConfig, pL: np.ndarray, phi_a: float, phi_b: float, phi0: float,
               sign: int = +1, abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> PhasePass:
    """One adaptive quadrature on the hull of (phi0, phi_a, phi_b), breakpoints at
    the three, of three columns: C's integrand d, K's integrand and the real
    action density with C counted from the panel's left edge (d and the action
    zero off [phi_a, phi_b]; the action weighted by SUB_TOLERANCE). Cumulative
    sums of the panel integrals supply C at the panel edges and so the rest."""
    nothing = PhasePass(0.0, np.zeros(2), 0.0j, 0.0j, 0, 0.0)
    if cfg.profile.is_zero:
        return nothing
    kp = dot(WAVE_K, pL).real
    if kp == 0:
        raise DivisionByZero("dot(k, pL) = 0 with a non-zero profile")
    lo, hi = min(phi_a, phi_b), max(phi_a, phi_b)
    start, stop = min(phi0, lo), max(phi0, hi)
    if start == stop:
        return nothing
    rate, beta = cfg.g / kp, cfg.g * cfg.B / kp          # beta = rate B turns the drift

    def columns(x):
        # d: the eps component of rot(phi_a - x) A^p(x); x[7] is the panel midpoint
        (a1, a2), (s1, s2) = cfg.profile.components(x), cfg.profile.slope_components(x)
        d = float(lo < x[7] < hi) * np.exp(1j * beta * (x - phi_a)) * (a1 - 1j * a2) / SQRT2
        half = (x[-1] - x[0]) / (XK[-1] - XK[0])
        c = half * (CUMULATIVE @ d)                          # C - C(panel's left edge)
        action = 2.0 * rate * (abs(d) ** 2 - beta * (d * c.conj()).imag)
        return np.stack([d, np.exp(1j * sign * beta * x) * (s1 + 1j * s2) / SQRT2,
                         SUB_TOLERANCE * action], axis=1)

    quad = adaptive_quad(columns, start, stop, abs_tol=abs_tol, rel_tol=rel_tol,
                         breakpoints=[phi0, phi_a, phi_b])
    edges = [panel[0] for panel in quad.panels] + [stop]
    values = np.array([panel[2] for panel in quad.panels])
    cumulative = np.concatenate([np.zeros((1, 3)), np.cumsum(values, axis=0)])
    at_a, at_b, at_0 = (cumulative[np.searchsorted(edges, phi)] for phi in (phi_a, phi_b, phi0))
    # each panel's integral of d times conj(C) at its left edge: the action's cross-panel part
    area = np.sum((values[:, 0] * (cumulative[:-1, 0] - at_a[0]).conj()).imag)
    action = (at_b[2] - at_a[2]).real / SUB_TOLERANCE \
        - 2.0 * np.sign(phi_b - phi_a) * rate * beta * area
    w = (at_b[0] - at_a[0]) * np.exp(-1j * beta * (phi_b - phi_a))
    scale = cfg.g / (2.0 * kp)
    kernels = [complex(scale * np.exp(1j * beta * phi) * (at[1] - at_0[1]))
               for phi, at in ((phi_a, at_a), (phi_b, at_b))]
    return PhasePass(float(action), SQRT2 * rate * np.array([w.real, -w.imag]), *kernels,
                     quad.nodes, quad.error_estimate)
