"""Green-function assembly in the mixed (fixed longitudinal momentum,
transverse position) representation.

Along the ray e0 = s exp(+i theta), s in [0, inf), theta in (0, pi/2] (by
default pi/2: the Euclidean axis, where the integrand is real, positive and
free of caustics), G is two scalar integrals times two fixed matrices:

    G = I+ M+ + I- M-,   I+- = int de0 (-i/2) kernel(e0) exp(long + cross) exp(+-i e0 g B/2)

where the transverse kernel carries its own magnetic phase, `long` is
i pL.dx^L + i (e0/2)(pL^2 - m^2), `cross` is the e0-independent
plane-wave/magnetic mixing exponent, and M+- are the projector braces dressed
by the phase-integral kernels (P+- for a zero profile, the zero-k limit).

Far endpoints x_b that share the rest of a context share one ray: only the
kernel's endpoints, the constant exponent and the braces differ between them,
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
from .fields import FieldConfig, ZeroProfile
from .kernels import (SUB_TOLERANCE, KernelDiagnostics, TransverseEndpoints, folded_kernel,
                      landau_factors, longitudinal_phase, phase_pass)
from .minkowski import (GAMMA, IDENTITY4, METRIC, P_MINUS, P_PLUS, SLASH_EPS,
                        SLASH_EPS_CONJ, SLASH_K, WAVE_K, dot, transverse_project)
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
        for name in ("x_a", "x_b", "pL"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(getattr(self, name))):
                raise RangeError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not np.isfinite(self.m):
            raise RangeError(f"m must be finite, got {self.m!r}")
        if not 0.0 < self.theta <= np.pi / 2.0:
            raise RangeError(f"contour angle must lie in (0, pi/2], got {self.theta!r}")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise RangeError(f"abs_tol and rel_tol must be positive, "
                             f"got {self.abs_tol!r} and {self.rel_tol!r}")
        if self.pL[0] != 0.0 or self.pL[1] != 0.0:
            raise RangeError(f"pL must be longitudinal (transverse slots zero), got {self.pL!r}")
        if self.volkov_sign not in (+1, -1):
            raise RangeError(f"volkov_sign must be +1 or -1, got {self.volkov_sign!r}")

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
    contour_angle: float


@dataclass(frozen=True)
class _Prepared:
    """The e0-independent pieces of the integrand at n far endpoints that share
    the rest of one context: per endpoint the transverse endpoints, the
    constant exponent, the braces M+- and R (`weight`); `passes` holds one
    phase pass per distinct phi_b."""

    endpoints: TransverseEndpoints
    constant: np.ndarray      # (n,) e0-independent exponent i pL.dx^L + cross
    plus: np.ndarray          # (n, 4, 4)
    minus: np.ndarray         # (n, 4, 4)
    weight: np.ndarray        # (n, 2, 2)
    passes: tuple


#: Phases of far endpoints closer than this times their largest coordinate are one phase.
_ROUNDINGS = 8.0 * np.finfo(float).eps


def _prepare(ctx: EvalContext, points) -> _Prepared:
    """One phase pass and one set of braces per distinct phi_b of the far
    endpoints `points` (shape (n, 4)), the action at the context's tolerances
    and the rest at SUB_TOLERANCE of them; endpoints and constant exponent per
    point."""
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    phis = dot(WAVE_K, points).real
    # a point shares the pass of the first point whose phase lies within a few
    # roundings of the coordinates: the stencil's (x2 + h) - x3 and x2 - (x3 - h)
    # need not round to the same float
    tie = _ROUNDINGS * abs(points).max()
    first = (abs(phis[:, None] - phis) <= tie).argmax(axis=1)
    plus, minus = np.empty((2, len(points), 4, 4), dtype=complex)
    drift = np.empty((len(points), 4), dtype=complex)
    cross = np.empty(len(points), dtype=complex)
    passes = []
    for j in dict.fromkeys(first.tolist()):
        mine = first == j
        run = phase_pass(ctx.cfg, ctx.pL, ctx.phi_a, float(phis[j]), ctx.phi0,
                         sign=ctx.volkov_sign, abs_tol=ctx.abs_tol * SUB_TOLERANCE,
                         rel_tol=ctx.rel_tol * SUB_TOLERANCE)
        passes.append(run)
        plus[mine] = (IDENTITY4 - (SLASH_K @ SLASH_EPS_CONJ) * run.kernel_b) @ P_PLUS @ \
            (IDENTITY4 + (SLASH_K @ SLASH_EPS) * run.kernel_conj_a)
        minus[mine] = (IDENTITY4 - (SLASH_K @ SLASH_EPS) * run.kernel_conj_b) @ P_MINUS @ \
            (IDENTITY4 + (SLASH_K @ SLASH_EPS_CONJ) * run.kernel_a)
        drift[mine] = run.drift
        cross[mine] = run.cross_phase(ctx.cfg, points[mine])
    # R of [vec M+, vec M-] = QR by Gram-Schmidt: LAPACK's QR keeps 0.6 MB of pages resident
    a, b = plus.reshape(-1, 16), minus.reshape(-1, 16)
    r00 = np.linalg.norm(a, axis=1)
    r01 = np.sum(a.conj() * b, axis=1) / r00
    r11 = np.linalg.norm(b - (r01 / r00)[:, None] * a, axis=1)
    weight = np.moveaxis(np.array([[r00, r01], [0.0 * r01, r11]]), -1, 0)
    far = transverse_project(points) - drift
    x_a = transverse_project(ctx.x_a)
    endpoints = TransverseEndpoints(complex(x_a[0]), complex(x_a[1]), far[:, 0], far[:, 1])
    constant = longitudinal_phase(0.0, ctx.x_a, points, ctx.pL, ctx.m) + cross
    return _Prepared(endpoints=endpoints, constant=constant, plus=plus, minus=minus,
                     weight=weight, passes=tuple(passes))


def _assemble(pre: _Prepared, weighted) -> np.ndarray:
    """I+ M+ + I- M- per point, from R (I+, I-) in the last axis of `weighted` (..., n, 2)."""
    r = pre.weight
    i_minus = weighted[..., 1] / r[:, 1, 1]
    i_plus = (weighted[..., 0] - r[:, 0, 1] * i_minus) / r[:, 0, 0]
    return i_plus[..., None, None] * pre.plus + i_minus[..., None, None] * pre.minus


def spin_factor(e0, ctx: EvalContext) -> np.ndarray:
    """Dressed projector braces exp(+i w) M+ + exp(-i w) M-, w = e0 g B / 2,
    at one proper-time node or at each node of an array (set-up runs once)."""
    pre = _prepare(ctx, ctx.x_b)
    w = np.asarray(e0) * ctx.cfg.g * ctx.cfg.B / 2.0
    return np.multiply.outer(np.exp(1j * w), pre.plus[0]) \
        + np.multiply.outer(np.exp(-1j * w), pre.minus[0])


def _ray_node(ctx: EvalContext, pre: _Prepared):
    """Node function e0 -> R (f e^{+iw}, f e^{-iw}) per far endpoint, on a column
    of nodes (shape (m, 1)) giving shape (m, n, 2); f e^{+-iw} is k q or k (see
    `folded_kernel`) times (-i/2) exp(long + cross). R is the triangular QR factor
    of [vec M+, vec M-]: its norm is the Frobenius norm of the matrix integrand,
    so the stopping rule and the error estimate measure the G themselves."""
    rate = 0.5j * ctx.mass_gap          # the e0-dependent part of the longitudinal phase
    b = ctx.cfg.g * ctx.cfg.B

    def node(e0):
        k, q = folded_kernel(e0, pre.endpoints, b)
        f = -0.5j * k * np.exp(rate * e0 + pre.constant)
        both = np.stack([f * q, f] if b > 0.0 else [f, f * q], axis=-1)
        return (pre.weight @ both[..., None])[..., 0]
    return node


def _check_ray_domain(ctx: EvalContext, endpoints: TransverseEndpoints):
    if ctx.mass_gap <= 0.0:
        raise QuadratureFailure(
            f"proper-time integrand does not decay at large s: need dot(pL, pL) > m^2 "
            f"(gap {ctx.mass_gap!r})")
    dx2 = abs((endpoints.xb1 - endpoints.xa1) ** 2 + (endpoints.xb2 - endpoints.xa2) ** 2)
    if np.any(dx2 == 0.0):
        raise QuadratureFailure(
            "coincident transverse endpoints: the short-time end of the ray is log-divergent")


def _integrate_ray(node, ctx: EvalContext, pre: _Prepared):
    """Integrate a node function along e0 = s exp(i theta), s = L u / (1 - u) for
    u in [0, 1), L = 2 / (gap sin theta), over which the longitudinal phase decays
    by 1/e; all far endpoints on one panel set (joint norm sqrt(sum |G_n|^2))."""
    ray = np.exp(1j * ctx.theta)
    scale = 2.0 / (ctx.mass_gap * np.sin(ctx.theta))

    def f(u):
        values = node((scale * u / (1.0 - u) * ray)[:, None])
        jacobian = ray * scale / (1.0 - u) ** 2
        return values * jacobian.reshape((-1,) + (1,) * (values.ndim - 1))

    # the short-time boundary layer of the kernel, at fixed s
    breaks = [s / (s + scale) for s in (0.02, 0.1, 0.5, 2.5)]
    result = adaptive_quad(f, 0.0, 1.0, abs_tol=ctx.abs_tol, rel_tol=ctx.rel_tol,
                           breakpoints=breaks)
    diag = KernelDiagnostics(error_estimate=result.error_estimate, nodes=result.nodes,
                             prepare_nodes=sum(run.nodes for run in pre.passes),
                             prepare_error=max(run.error_estimate for run in pre.passes))
    return result.value, diag


def _green_batch(ctx: EvalContext, points):
    """(G at each far endpoint of `points`, shape (n, 4, 4), joint diagnostics):
    the context with x_b replaced, all points integrated on one shared ray."""
    pre = _prepare(ctx, points)
    _check_ray_domain(ctx, pre.endpoints)
    weighted, diag = _integrate_ray(_ray_node(ctx, pre), ctx, pre)
    return _assemble(pre, weighted), diag


def green_function(ctx: EvalContext) -> PropagatorValue:
    """Mixed-representation Green function at fixed longitudinal momentum."""
    matrices, diag = _green_batch(ctx, ctx.x_b)
    return PropagatorValue(matrix=matrices[0], diagnostics=diag, contour_angle=ctx.theta)


def _without_profile(ctx: EvalContext) -> EvalContext:
    return replace(ctx, cfg=replace(ctx.cfg, profile=ZeroProfile()))


def green_function_zero_k(ctx: EvalContext) -> PropagatorValue:
    """Vanishing-wave-vector limit (magnetic field only): `green_function`
    with the profile set to zero."""
    return green_function(_without_profile(ctx))


def zero_k_value_and_gradient(ctx: EvalContext):
    """(G, [dG/dx_b^mu]) for the zero-wave-vector limit, by analytic
    differentiation of the integrand (dual route to the finite differences):
    the transverse derivatives are extra scalar weights on the same nodes."""
    ctx = _without_profile(ctx)
    pre = _prepare(ctx, ctx.x_b)
    endpoints = pre.endpoints
    _check_ray_domain(ctx, endpoints)
    b = ctx.cfg.g * ctx.cfg.B
    ray_node = _ray_node(ctx, pre)

    def node(e0):
        base = ray_node(e0)
        # d/dx_b of the kernel exponent i (b/2)(xb1 xa2 - xb2 xa1) - (h/4)(1 + q)|DX|^2
        h, q = landau_factors(e0, b)
        spread = 0.5 * h * (1.0 + q)
        c0 = 0.5j * b * endpoints.xa2 - spread * (endpoints.xb1 - endpoints.xa1)
        c1 = -0.5j * b * endpoints.xa1 - spread * (endpoints.xb2 - endpoints.xa2)
        return np.stack([base, c0[..., None] * base, c1[..., None] * base], axis=-3)

    weighted, _ = _integrate_ray(node, ctx, pre)
    value, d0, d1 = _assemble(pre, weighted)[:, 0]
    d2 = 1j * METRIC[2] * ctx.pL[2] * value
    d3 = 1j * METRIC[3] * ctx.pL[3] * value
    return value, [d0, d1, d2, d3]


def total_potential_lowered(ctx: EvalContext, x: np.ndarray) -> np.ndarray:
    """Lowered components of the total potential A_mu at the point x."""
    phi = dot(WAVE_K, x).real
    return 0.5 * (ctx.cfg.tensor.lowered @ np.asarray(x, dtype=complex)) \
        + METRIC * ctx.cfg.profile.potential(phi)


def dirac_apply(ctx: EvalContext, evaluator=None, step: float = 0.02) -> np.ndarray:
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

    steps = (step, step / 2.0)
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
                f"direction {mu}: steps {step} and {step / 2} disagree beyond 10%")
        out = out + 1j * GAMMA[mu] @ (fine - ctx.cfg.g * a_low[mu] * base)
    return out


def position_space_green(ctx: EvalContext, p2_values, p3_values) -> np.ndarray:
    """Optional transform back to position space over a truncated momentum box.

    Trapezoidal (2 pi)^-2 sum of the fixed-pL values over the grid; the
    truncation error is O(max boundary magnitude * box perimeter), not
    controlled adaptively. Every grid point must satisfy dot(pL, pL) > m^2.
    Smoke-level utility; the supported representation is fixed-pL.
    """
    p2_values = np.asarray(p2_values, dtype=float)
    p3_values = np.asarray(p3_values, dtype=float)
    samples = np.empty((p2_values.size, p3_values.size, 4, 4), dtype=complex)
    for i, p2 in enumerate(p2_values):
        for j, p3 in enumerate(p3_values):
            point = replace(ctx, pL=np.array([0.0, 0.0, p2, p3]))
            samples[i, j] = green_function(point).matrix
    inner = np.trapezoid(samples, p3_values, axis=1)
    return np.trapezoid(inner, p2_values, axis=0) / (2.0 * np.pi) ** 2
