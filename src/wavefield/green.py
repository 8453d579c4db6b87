"""Green-function assembly in the mixed (fixed longitudinal momentum,
transverse position) representation.

Along the rotated ray e0 = s exp(+i theta), s in (0, e0_max], theta in
(0, pi/2), G is two scalar proper-time integrals times two fixed matrices:

    G = I+ M+ + I- M-,   I+- = int de0 (-i/2) kernel(e0) exp(long + cross) exp(+-i e0 g B/2)

where the transverse kernel carries its own magnetic phase, `long` is
i pL.dx^L + i (e0/2)(pL^2 - m^2), `cross` is the e0-independent
plane-wave/magnetic mixing exponent, and M+- are the projector braces dressed
by the phase-integral kernels (P+- for a zero profile, the zero-k limit).

Absolute convergence on the ray needs dot(pL, pL) > m^2 (the longitudinal
phase decays at large s) and distinct transverse endpoints (the kernel decays
at small s); both are checked up front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conventions import (DEFAULT_ABS_TOL, DEFAULT_CONTOUR_ANGLE, DEFAULT_E0_MAX,
                          DEFAULT_REL_TOL, DEFAULT_VOLKOV_SIGN)
from .errors import ContourCaustic, QuadratureFailure, RangeError, StepCalibrationFailure
from .fields import FieldConfig, ZeroProfile
from .kernels import (NEAR_CAUSTIC_THRESHOLD, KernelDiagnostics, TransverseEndpoints,
                      cross_phase, drift_at_phi, longitudinal_phase, schwinger_kernel,
                      volkov_kernel, volkov_kernel_conj)
from .minkowski import (GAMMA, IDENTITY4, METRIC, P_MINUS, P_PLUS, SLASH_EPS,
                        SLASH_EPS_CONJ, SLASH_K, WAVE_K, dot, transverse_project)
from .quadrature import adaptive_quad

#: Minimum |sin(e0 g B / 2)| seen along the ray before declaring a caustic hit.
CONTOUR_CAUSTIC_TOLERANCE = 1e-8


@dataclass(frozen=True)
class EvalContext:
    """One evaluation point: mass, endpoints, longitudinal momentum, field, contour."""

    m: float
    x_a: np.ndarray
    x_b: np.ndarray
    pL: np.ndarray
    cfg: FieldConfig
    theta: float = DEFAULT_CONTOUR_ANGLE
    e0_max: float = DEFAULT_E0_MAX
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    volkov_sign: int = DEFAULT_VOLKOV_SIGN

    def __post_init__(self):
        for name in ("x_a", "x_b", "pL"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not 0.0 < self.theta < np.pi / 2.0:
            raise RangeError(f"contour angle must lie in (0, pi/2), got {self.theta!r}")
        if self.e0_max <= 0.0:
            raise RangeError(f"e0_max must be positive, got {self.e0_max!r}")
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
    """Per-context, e0-independent pieces of the integrand (weight is R)."""

    endpoints: TransverseEndpoints
    cross: complex
    plus: np.ndarray
    minus: np.ndarray
    weight: np.ndarray


def _prepare(ctx: EvalContext) -> _Prepared:
    cfg = ctx.cfg
    y_b = drift_at_phi(ctx.phi_b, np.zeros(4, dtype=complex), cfg, ctx.pL, ctx.phi_a)
    endpoints = TransverseEndpoints.from_vectors(transverse_project(ctx.x_a),
                                                 transverse_project(ctx.x_b) - y_b)
    cross = cross_phase(cfg, ctx.pL, ctx.x_a, ctx.x_b, abs_tol=ctx.abs_tol, rel_tol=ctx.rel_tol)
    kw = dict(pL=ctx.pL, cfg=cfg, phi0=ctx.phi0, sign=ctx.volkov_sign)
    plus = (IDENTITY4 - (SLASH_K @ SLASH_EPS_CONJ) * volkov_kernel(ctx.phi_b, **kw)) @ P_PLUS @ \
           (IDENTITY4 + (SLASH_K @ SLASH_EPS) * volkov_kernel_conj(ctx.phi_a, **kw))
    minus = (IDENTITY4 - (SLASH_K @ SLASH_EPS) * volkov_kernel_conj(ctx.phi_b, **kw)) @ P_MINUS @ \
            (IDENTITY4 + (SLASH_K @ SLASH_EPS_CONJ) * volkov_kernel(ctx.phi_a, **kw))
    weight = np.linalg.qr(np.stack([plus.ravel(), minus.ravel()], axis=1), mode="r")
    return _Prepared(endpoints=endpoints, cross=cross, plus=plus, minus=minus, weight=weight)


def _assemble(pre: _Prepared, weighted) -> np.ndarray:
    """I+ M+ + I- M- from R (I+, I-) in the last axis of `weighted`."""
    r = pre.weight
    i_minus = weighted[..., 1] / r[1, 1]
    i_plus = (weighted[..., 0] - r[0, 1] * i_minus) / r[0, 0]
    return np.multiply.outer(i_plus, pre.plus) + np.multiply.outer(i_minus, pre.minus)


def spin_factor(e0, ctx: EvalContext) -> np.ndarray:
    """Dressed projector braces exp(+i w) M+ + exp(-i w) M-, w = e0 g B / 2,
    at one proper-time node or at each node of an array (set-up runs once)."""
    pre = _prepare(ctx)
    w = np.asarray(e0) * ctx.cfg.g * ctx.cfg.B / 2.0
    return np.multiply.outer(np.exp(1j * w), pre.plus) + np.multiply.outer(np.exp(-1j * w), pre.minus)


def _ray_node(ctx: EvalContext, pre: _Prepared):
    """Node function e0 -> R (f e^{+iw}, f e^{-iw}), R the triangular QR factor of
    [vec M+, vec M-]: its norm is the Frobenius norm of the matrix integrand, so
    the stopping rule and the error estimate measure G itself."""
    def node(e0):
        f = -0.5j * schwinger_kernel(e0, pre.endpoints, ctx.cfg) \
            * np.exp(longitudinal_phase(e0, ctx.x_a, ctx.x_b, ctx.pL, ctx.m) + pre.cross)
        w = e0 * ctx.cfg.g * ctx.cfg.B / 2.0
        return pre.weight @ np.array([f * np.exp(1j * w), f * np.exp(-1j * w)])
    return node


def _check_ray_domain(ctx: EvalContext, endpoints: TransverseEndpoints):
    if ctx.mass_gap <= 0.0:
        raise QuadratureFailure(
            f"proper-time tail does not decay on the rotated ray: need dot(pL, pL) > m^2 "
            f"(gap {ctx.mass_gap!r})")
    dx2 = abs((endpoints.xb1 - endpoints.xa1) ** 2 + (endpoints.xb2 - endpoints.xa2) ** 2)
    if dx2 == 0.0:
        raise QuadratureFailure(
            "coincident transverse endpoints: the short-time end of the ray is log-divergent")


def _integrate_ray(node, ctx: EvalContext):
    """Integrate an array-valued node function along e0 = s exp(i theta)."""
    ray = np.exp(1j * ctx.theta)
    min_sin = [np.inf]

    def f(s):
        e0 = s * ray
        half = e0 * ctx.cfg.g * ctx.cfg.B / 2.0
        if abs(half) >= 1.0:
            # sin also vanishes at the short-time end; only half near n pi,
            # n >= 1, is a caustic
            sin_mag = abs(np.sin(half))
            if sin_mag < min_sin[0]:
                min_sin[0] = sin_mag
            if sin_mag < CONTOUR_CAUSTIC_TOLERANCE:
                raise ContourCaustic(f"ray passed within {sin_mag!r} of a caustic at s={s!r}")
        return node(e0) * ray

    scale = min(1.0, ctx.e0_max / 10.0)
    breaks = [b * scale for b in (0.02, 0.1, 0.5, 2.5)] + [ctx.e0_max / 2.0]
    result = adaptive_quad(f, 0.0, ctx.e0_max, abs_tol=ctx.abs_tol, rel_tol=ctx.rel_tol,
                           breakpoints=breaks)
    decay = np.sin(ctx.theta) * ctx.mass_gap / 2.0
    tail = float(np.linalg.norm(node(ctx.e0_max * ray))) / decay
    diag = KernelDiagnostics(error_estimate=result.error_estimate + tail,
                             nodes=result.nodes,
                             near_singularity=bool(min_sin[0] < NEAR_CAUSTIC_THRESHOLD))
    return result.value, diag


def green_function(ctx: EvalContext) -> PropagatorValue:
    """Mixed-representation Green function at fixed longitudinal momentum."""
    pre = _prepare(ctx)
    _check_ray_domain(ctx, pre.endpoints)
    weighted, diag = _integrate_ray(_ray_node(ctx, pre), ctx)
    return PropagatorValue(matrix=_assemble(pre, weighted), diagnostics=diag,
                           contour_angle=ctx.theta)


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
    pre = _prepare(ctx)
    endpoints = pre.endpoints
    _check_ray_domain(ctx, endpoints)
    gb = ctx.cfg.g * ctx.cfg.B
    ray_node = _ray_node(ctx, pre)

    def node(e0):
        base = ray_node(e0)
        if gb == 0.0:
            c0 = -1j * (endpoints.xb1 - endpoints.xa1) / e0
            c1 = -1j * (endpoints.xb2 - endpoints.xa2) / e0
        else:
            w = e0 * gb / 2.0
            cot = np.cos(w) / np.sin(w)
            c0 = 0.5j * gb * (endpoints.xa2 - cot * (endpoints.xb1 - endpoints.xa1))
            c1 = 0.5j * gb * (-endpoints.xa1 - cot * (endpoints.xb2 - endpoints.xa2))
        return np.stack([base, c0 * base, c1 * base])

    weighted, _ = _integrate_ray(node, ctx)
    value, d0, d1 = _assemble(pre, weighted)
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
    two disagree by more than 10%). `evaluator` maps x_b to a 4x4 matrix and
    defaults to the full Green-function evaluation.
    """
    if evaluator is None:
        def evaluator(x):
            return green_function(replace(ctx, x_b=x)).matrix

    def stencil(mu, h):
        shift = np.zeros(4)
        shift[mu] = h
        return (-evaluator(ctx.x_b + 2 * shift) + 8 * evaluator(ctx.x_b + shift)
                - 8 * evaluator(ctx.x_b - shift) + evaluator(ctx.x_b - 2 * shift)) / (12 * h)

    base = np.asarray(evaluator(ctx.x_b), dtype=complex)
    a_low = total_potential_lowered(ctx, ctx.x_b)
    out = ctx.m * base
    for mu in range(4):
        coarse = stencil(mu, step)
        fine = stencil(mu, step / 2.0)
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
