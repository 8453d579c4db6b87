"""Green-function assembly in the mixed (fixed longitudinal momentum,
transverse position) representation.

Along the ray e0 = s exp(+i theta), s in [0, inf), theta in (0, pi/2] (by
default pi/2: the Euclidean axis, where the integrand is real, positive and
free of caustics), G is two scalar integrals times two fixed matrices:

    G = I+ M+ + I- M-,
    I+- = int de0 (-i/2) kernel(e0, rho^2) exp(i (e0/2)(pL^2 - m^2) + constant) exp(+-i e0 g B/2)

where the transverse kernel is a Gaussian in rho^2, the squared transverse
distance from x_a to the drift-shifted endpoint X = x_b - Y, and `constant` is
the e0-independent exponent of the classical action,

    i pL.dx^L - i (g/2) action + i (g B/2) [X1 (xa2 - Y2) - X2 (xa1 - Y1)],

the last term being the boundary term of the action and the magnetic gauge
phase in one. M+- are the projector braces dressed by the phase-integral
kernels (P+- for a zero profile, the zero-k limit).

Far endpoints x_b that share the rest of a context share one ray: only rho^2,
the constant exponent and the braces differ between them,
so one adaptive quadrature integrates all of them (`dirac_apply` sends its 33
stencil points at once; `green_function` is the case of one).

Absolute convergence needs dot(pL, pL) > m^2 (the longitudinal phase decays
at large s) and distinct transverse endpoints (the kernel decays at small s);
both are checked up front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conventions import (DEFAULT_ABS_TOL, DEFAULT_CONTOUR_ANGLE, DEFAULT_REL_TOL,
                          DEFAULT_VOLKOV_SIGN)
from .errors import QuadratureFailure, RangeError, StepCalibrationFailure
from .fields import FieldConfig, ZeroProfile, _real
from .kernels import SUB_TOLERANCE, KernelDiagnostics, folded_kernel, phase_pass
from .minkowski import (GAMMA, IDENTITY4, METRIC, P_MINUS, P_PLUS, SLASH_EPS,
                        SLASH_EPS_CONJ, SLASH_K, UNIT_FIELD, WAVE_K, dot)
from .quadrature import adaptive_quad


@dataclass(frozen=True)
class EvalContext:
    """One evaluation point: mass, endpoints, longitudinal momentum, field, contour."""

    m: float
    x_a: np.ndarray
    x_b: np.ndarray
    pL: np.ndarray
    cfg: FieldConfig
    theta: float = DEFAULT_CONTOUR_ANGLE
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    volkov_sign: int = DEFAULT_VOLKOV_SIGN

    def __post_init__(self):
        for name, shape in (("m", ()), ("x_a", (4,)), ("x_b", (4,)), ("pL", (4,)),
                            ("theta", ()), ("abs_tol", ()), ("rel_tol", ())):
            object.__setattr__(self, name, _real(name, getattr(self, name), shape, RangeError))
        if not isinstance(self.cfg, FieldConfig):
            raise RangeError(f"cfg must be a FieldConfig, got {self.cfg!r}")
        if not 0.0 < self.theta <= np.pi / 2.0:
            raise RangeError(f"contour angle must lie in (0, pi/2], got {self.theta!r}")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise RangeError(f"abs_tol and rel_tol must be positive, "
                             f"got {self.abs_tol!r} and {self.rel_tol!r}")
        if self.pL[0] != 0.0 or self.pL[1] != 0.0:
            raise RangeError(f"pL must be longitudinal (transverse slots zero), got {self.pL!r}")
        # an int, not a bool or a float: the sidecar prints it
        if type(self.volkov_sign) is not int or self.volkov_sign not in (+1, -1):
            raise RangeError(f"volkov_sign must be the integer +1 or -1, got {self.volkov_sign!r}")

    @property
    def phi_a(self) -> float:
        return dot(WAVE_K, self.x_a).real

    @property
    def phi_b(self) -> float:
        return dot(WAVE_K, self.x_b).real

    @property
    def phi0(self) -> float:
        return self.phi_a if self.cfg.phi0 is None else self.cfg.phi0

    @property
    def mass_gap(self) -> float:
        return dot(self.pL, self.pL).real - self.m ** 2


@dataclass(frozen=True)
class PropagatorValue:
    matrix: np.ndarray
    diagnostics: KernelDiagnostics


@dataclass(frozen=True)
class _Prepared:
    """The e0-independent pieces of the integrand at n far endpoints that share
    the rest of one context: per endpoint rho^2, the constant exponent, the
    braces M+- and R (`weight`); `passes` holds one phase pass per distinct phi_b."""

    rho2: np.ndarray          # (n,) squared transverse distance, drift-shifted
    constant: np.ndarray      # (n,) e0-independent exponent of the classical action
    plus: np.ndarray          # (n, 4, 4)
    minus: np.ndarray         # (n, 4, 4)
    weight: np.ndarray        # (n, 2, 2)
    passes: tuple


#: Phases of far endpoints closer than this times their largest coordinate are one phase.
_ROUNDINGS = 8.0 * np.finfo(float).eps


def _prepare(ctx: EvalContext, points) -> _Prepared:
    """One phase pass and one set of braces per distinct phi_b of the far
    endpoints `points` (shape (n, 4)), the action at the context's tolerances
    and the rest at SUB_TOLERANCE of them; rho^2 and constant exponent per
    point."""
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    phis = dot(WAVE_K, points).real
    # a point shares the pass of the first point whose phase lies within a few
    # roundings of the coordinates: the stencil's (x2 + h) - x3 and x2 - (x3 - h)
    # need not round to the same float
    tie = _ROUNDINGS * abs(points).max()
    first = (abs(phis[:, None] - phis) <= tie).argmax(axis=1)
    plus, minus = np.empty((2, len(points), 4, 4), dtype=complex)
    drift = np.empty((len(points), 2))
    action = np.empty(len(points))
    passes = []
    for j in dict.fromkeys(first.tolist()):
        mine = first == j
        run = phase_pass(ctx.cfg, ctx.pL, ctx.phi_a, float(phis[j]), ctx.phi0,
                         sign=ctx.volkov_sign, abs_tol=ctx.abs_tol * SUB_TOLERANCE,
                         rel_tol=ctx.rel_tol * SUB_TOLERANCE)
        passes.append(run)
        plus[mine] = (IDENTITY4 - (SLASH_K @ SLASH_EPS_CONJ) * run.kernel_b) @ P_PLUS @ \
            (IDENTITY4 + (SLASH_K @ SLASH_EPS) * run.kernel_a.conjugate())
        minus[mine] = (IDENTITY4 - (SLASH_K @ SLASH_EPS) * run.kernel_b.conjugate()) @ P_MINUS @ \
            (IDENTITY4 + (SLASH_K @ SLASH_EPS_CONJ) * run.kernel_a)
        drift[mine] = run.drift
        action[mine] = run.action
    # R of [vec M+, vec M-] = QR by Gram-Schmidt: LAPACK's QR keeps 0.6 MB of pages resident
    a, b = plus.reshape(-1, 16), minus.reshape(-1, 16)
    r00 = np.linalg.norm(a, axis=1)
    r01 = np.sum(a.conj() * b, axis=1) / r00
    r11 = np.linalg.norm(b - (r01 / r00)[:, None] * a, axis=1)
    weight = np.moveaxis(np.array([[r00, r01], [0.0 * r01, r11]]), -1, 0)
    far, near = points[:, :2] - drift, ctx.x_a[:2] - drift
    rho2 = (far[:, 0] - ctx.x_a[0]) ** 2 + (far[:, 1] - ctx.x_a[1]) ** 2
    # pL has no transverse slots (EvalContext), so the first term is i pL.dx^L;
    # the last is the action's boundary term and the magnetic gauge phase in one
    constant = 1j * dot(ctx.pL, points - ctx.x_a) - 0.5j * ctx.cfg.g * action \
        + 0.5j * ctx.cfg.g * ctx.cfg.B * (far[:, 0] * near[:, 1] - far[:, 1] * near[:, 0])
    return _Prepared(rho2=rho2, constant=constant, plus=plus, minus=minus,
                     weight=weight, passes=tuple(passes))


def spin_factor(e0, ctx: EvalContext) -> np.ndarray:
    """Dressed projector braces exp(+i w) M+ + exp(-i w) M-, w = e0 g B / 2,
    at one proper-time node or at each node of an array (set-up runs once)."""
    pre = _prepare(ctx, ctx.x_b)
    w = np.asarray(e0) * ctx.cfg.g * ctx.cfg.B / 2.0
    return np.multiply.outer(np.exp(1j * w), pre.plus[0]) \
        + np.multiply.outer(np.exp(-1j * w), pre.minus[0])


def _green_batch(ctx: EvalContext, points):
    """(G at each far endpoint of `points`, shape (n, 4, 4), joint diagnostics):
    the context with x_b replaced, all points on one panel set of the ray
    e0 = s exp(i theta), s = L u / (1 - u), u in [0, 1), L = 2 / (gap sin theta).
    Per endpoint the integrand is R (f e^{+iw}, f e^{-iw}), f e^{+-iw} = k q or k
    (`folded_kernel`) times (-i/2) exp(i (e0/2) gap + constant); R, the QR factor
    of [vec M+, vec M-], makes its norm that of G (jointly sqrt(sum |G_n|^2))."""
    pre = _prepare(ctx, points)
    if ctx.mass_gap <= 0.0:
        raise QuadratureFailure(
            f"proper-time integrand does not decay at large s: need dot(pL, pL) > m^2 "
            f"(gap {ctx.mass_gap!r})")
    if np.any(pre.rho2 == 0.0):
        raise QuadratureFailure(
            "coincident transverse endpoints: the short-time end of the ray is log-divergent")
    rate = 0.5j * ctx.mass_gap          # the e0-dependent part of the longitudinal phase
    b = ctx.cfg.g * ctx.cfg.B
    ray = np.exp(1j * ctx.theta)
    scale = 2.0 / (ctx.mass_gap * np.sin(ctx.theta))

    def integrand(u):
        e0 = (scale * u / (1.0 - u) * ray)[:, None]
        k, q = folded_kernel(e0, pre.rho2, b)
        f = -0.5j * k * np.exp(rate * e0 + pre.constant)
        both = np.stack([f * q, f] if b > 0.0 else [f, f * q], axis=-1)
        jacobian = ray * scale / (1.0 - u) ** 2
        return (pre.weight @ both[..., None])[..., 0] * jacobian[:, None, None]

    # the short-time boundary layer of the kernel, at fixed s
    breaks = [s / (s + scale) for s in (0.02, 0.1, 0.5, 2.5)]
    result = adaptive_quad(integrand, 0.0, 1.0, abs_tol=ctx.abs_tol, rel_tol=ctx.rel_tol,
                           breakpoints=breaks)
    diag = KernelDiagnostics(error_estimate=result.error_estimate, nodes=result.nodes,
                             prepare_nodes=sum(run.nodes for run in pre.passes),
                             prepare_error=max(run.error_estimate for run in pre.passes))
    # I+ M+ + I- M- per point, from R (I+, I-)
    r, weighted = pre.weight, result.value
    i_minus = weighted[:, 1] / r[:, 1, 1]
    i_plus = (weighted[:, 0] - r[:, 0, 1] * i_minus) / r[:, 0, 0]
    return i_plus[:, None, None] * pre.plus + i_minus[:, None, None] * pre.minus, diag


def green_function(ctx: EvalContext) -> PropagatorValue:
    """Mixed-representation Green function at fixed longitudinal momentum."""
    matrices, diag = _green_batch(ctx, ctx.x_b)
    return PropagatorValue(matrix=matrices[0], diagnostics=diag)


def green_function_zero_k(ctx: EvalContext) -> PropagatorValue:
    """Vanishing-wave-vector limit (magnetic field only): `green_function`
    with the profile set to zero."""
    return green_function(replace(ctx, cfg=replace(ctx.cfg, profile=ZeroProfile())))


def total_potential_lowered(ctx: EvalContext, x: np.ndarray) -> np.ndarray:
    """Lowered components of the total potential A_mu at the point x."""
    phi = dot(WAVE_K, x).real
    return 0.5 * ((ctx.cfg.B * UNIT_FIELD) @ np.asarray(x, dtype=complex)) \
        + METRIC * ctx.cfg.profile.potential(phi)


#: Coarse finite-difference step of `dirac_apply`; the fine step is its half.
DIRAC_STEP = 0.02


def dirac_apply(ctx: EvalContext, evaluator=None) -> np.ndarray:
    """Apply the gauged Dirac operator (i gamma^mu (d_mu - g A_mu) + m) in x_b.

    Derivatives are 4th-order central differences; each direction is
    calibrated by comparing steps h and h/2 (StepCalibrationFailure when the
    two disagree by more than 10%). `evaluator` maps an (n, 4) array of far
    endpoints to the (n, 4, 4) array of matrices there; it is called once,
    with x_b and its 32 stencil neighbours. By default it is the Green
    function at all 33 on one shared ray, so their quadrature errors are
    common-mode and cancel in the differences.
    """
    if evaluator is None:
        def evaluator(points):
            return _green_batch(ctx, points)[0]

    steps = (DIRAC_STEP, DIRAC_STEP / 2.0)
    points = [ctx.x_b] + [ctx.x_b + (k * h) * unit for unit in np.eye(4) for h in steps
                          for k in (2, 1, -1, -2)]
    values = np.asarray(evaluator(np.array(points)), dtype=complex)
    base = values[0]
    # per direction and step: G at x_b + (2, 1, -1, -2) h e_mu
    shifted = values[1:].reshape(4, 2, 4, 4, 4)

    def stencil(f, h):
        return (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * h)

    a_low = total_potential_lowered(ctx, ctx.x_b)
    out = ctx.m * base
    for mu in range(4):
        coarse, fine = (stencil(f, h) for f, h in zip(shifted[mu], steps))
        scale = max(float(np.linalg.norm(fine)), 1e-300)
        if float(np.linalg.norm(coarse - fine)) > 0.1 * scale:
            raise StepCalibrationFailure(
                f"direction {mu}: steps {steps[0]} and {steps[1]} disagree beyond 10%")
        out = out + 1j * GAMMA[mu] @ (fine - ctx.cfg.g * a_low[mu] * base)
    return out

