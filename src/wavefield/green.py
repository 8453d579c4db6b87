"""Green-function assembly in the mixed (fixed longitudinal momentum,
transverse position) representation.

Along the ray e0 = s exp(+i theta), s in [0, inf), theta in (0, pi/2] (by
default pi/2: the Euclidean axis, where the integrand is real, positive and
free of caustics), G is two scalar integrals times two fixed matrices:

    G = exp(constant) (I+ M+ + I- M-),
    I+- = int de0 (-i/2) kernel(e0, rho^2) exp(i (e0/2)(pL^2 - m^2)) exp(+-i e0 g B/2)

where the transverse kernel is a Gaussian in rho^2, the squared transverse
distance from x_a to the drift-shifted endpoint X = x_b - Y, and `constant` is
the e0-independent exponent of the classical action,

    i pL.dx^L - i (g/2) action + i (g B/2) [X1 (xa2 - Y2) - X2 (xa1 - Y1)],

the last term being the boundary term of the action and the magnetic gauge
phase in one. Every term is i times a real number, so exp(constant) is a pure
phase, taken once per endpoint after the ray: the ray's integrand, and so its
stopping rule, never sees it. The kernel's Gaussian and the longitudinal phase
share one exponential per ray node and endpoint. M+- are the projector braces
dressed by the phase-integral kernel K, integrated from phi_a: K(phi_a) = 0
makes each brace's right-hand factor the identity, so
M+- = (1 - kslash epsslash^(*) K^(*)(phi_b)) P+- = P+- - K^(*)(phi_b) D+-, with the
fixed D+- = kslash epsslash^(*) P+- (P+- for a zero profile, the zero-k limit).
P+- and D+- are orthogonal and each has one Frobenius norm for both signs, so
both braces have the norm sqrt(|P|^2 + |D|^2 |K|^2).

Far endpoints x_b that share the rest of a context share one phase pass over
all their phases phi_b and one ray: only rho^2, the constant exponent and the
braces differ between them, so one adaptive quadrature integrates all of them
(`dirac_apply` sends its 25 stencil points at once; `green_function` is the
case of one). A stack of contexts (`_prepare`, `_green_batch`,
`_green_functions`, `_dirac_applies`) runs their passes and then their rays
in lockstep (`quadrature._lockstep_quad`), whose rounds form the nodes of
all of them at once; each context's braces, rho^2 and constant come from its
own arrays, and its ray integrand is `_block` on its own `_Ray` and nodes.
Every context keeps the bits it has alone.
Each of these stages returns one result per context or raises, and
`quadrature.earliest_failure` makes a failing stack raise what its earliest
failing context raises alone. The public functions are stacks of one.

Absolute convergence needs dot(pL, pL) > m^2 (the longitudinal phase decays
at large s) and distinct transverse endpoints (the kernel decays at small s);
both are checked before the ray, and the first before the phase pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .conventions import (DEFAULT_ABS_TOL, DEFAULT_CONTOUR_ANGLE, DEFAULT_REL_TOL,
                          DEFAULT_VOLKOV_SIGN)
from .errors import QuadratureFailure, RangeError, StepCalibrationFailure
from .fields import FieldConfig, _real
from .kernels import KernelDiagnostics, PhasePass, _phase_passes, folded_kernel
from .minkowski import (GAMMA, P_MINUS, P_PLUS, SLASH_EPS, SLASH_EPS_CONJ, SLASH_K,
                        UNIT_FIELD, light_cone, longitudinal_dot)
from .quadrature import _stacked, adaptive_quad, earliest_failure

#: D+- = kslash epsslash^(*) P+-, fixed: the braces are M+- = P+- - K^(*) D+-.
D_PLUS = SLASH_K @ SLASH_EPS_CONJ @ P_PLUS
D_MINUS = SLASH_K @ SLASH_EPS @ P_MINUS

#: |P+|^2 = |P-|^2 and |D+|^2 = |D-|^2 (Frobenius), and <P+-, D+-> = 0: both braces
#: have the squared norm _P2 + _D2 |K|^2.
_P2, _D2 = (np.vdot(m, m).real for m in (P_PLUS, D_PLUS))

#: Proper times s where `_green_batch` cuts its ray before the first round,
#: 0.02 * 4^k: on the Euclidean axis the kernel's short-time boundary layer sits at
#: s ~ rho^2 / 2 and the longitudinal decay at s ~ 2 / gap, and cuts a factor 4
#: apart over the decades where either lies let most rays meet the tolerances in
#: their seeded round. Fixed numbers, never scaled per context.
RAY_SEEDS = (0.02, 0.08, 0.32, 1.28, 5.12)


#: The evaluation inputs and their shapes, in field order: the context checks each
#: with `fields._real`, and the CLI reads `eval` and writes its sidecar from this.
EVAL_INPUTS = {"m": (), "x_a": (4,), "x_b": (4,), "pL": (4,),
               "theta": (), "abs_tol": (), "rel_tol": ()}


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
        stored = vars(self)     # frozen to callers: the checked values go in directly
        for name, shape in EVAL_INPUTS.items():
            stored[name] = _real(name, stored[name], shape, RangeError)
        if not isinstance(self.cfg, FieldConfig):
            raise RangeError(f"cfg must be a FieldConfig, got {self.cfg!r}")
        if not 0.0 < self.theta <= np.pi / 2.0:
            raise RangeError(f"theta must lie in (0, pi/2], got {self.theta!r}")
        for name in ("abs_tol", "rel_tol"):
            if not getattr(self, name) > 0.0:
                raise RangeError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.pL[0] != 0.0 or self.pL[1] != 0.0:
            raise RangeError(f"pL must be longitudinal (transverse slots zero), got {self.pL.tolist()}")
        # an int, not a bool or a float: the sidecar prints it
        if type(self.volkov_sign) is not int or self.volkov_sign not in (+1, -1):
            raise RangeError(f"volkov_sign must be the integer +1 or -1, got {self.volkov_sign!r}")

    @property
    def phi_a(self) -> float:
        return float(light_cone(self.x_a))

    @property
    def phi_b(self) -> float:
        return float(light_cone(self.x_b))

    @property
    def mass_gap(self) -> float:
        # numpy's power, the same pow as float's, gives inf where float's raises OverflowError
        return float(longitudinal_dot(self.pL, self.pL) - np.float64(self.m) ** 2)


@dataclass(frozen=True)
class PropagatorValue:
    matrix: np.ndarray
    diagnostics: KernelDiagnostics


@dataclass(frozen=True)
class _Prepared:
    """The e0-independent pieces of G at n far endpoints that share the rest of
    one context: per endpoint rho^2, the constant exponent, the braces
    M+- = P+- - K^(*) D+- and their one Frobenius norm (`weight`, |M+| = |M-|);
    `run` is the one phase pass that serves them all."""

    rho2: np.ndarray          # (n,) squared transverse distance, drift-shifted
    constant: np.ndarray      # (n,) e0-independent exponent of the classical action
    plus: np.ndarray          # (n, 4, 4)
    minus: np.ndarray         # (n, 4, 4)
    weight: np.ndarray        # (n,) |M+| = |M-| = sqrt(|P|^2 + |D|^2 |K|^2)
    run: PhasePass


@earliest_failure
def _prepare(items) -> list:
    """`_Prepared` for each (context, far endpoints `points`, shape (n, 4)) of
    `items`: one stacked phase pass over the phases phi_b of each context's
    points at the context's tolerances, which the pass splits between its
    columns; braces and their norm, rho^2 and constant exponent per point,
    context by context."""
    items = [(ctx, np.asarray(points, dtype=float).reshape(-1, 4)) for ctx, points in items]
    runs = _phase_passes([(ctx.cfg, ctx.pL, ctx.phi_a, light_cone(points),
                           ctx.volkov_sign, ctx.abs_tol, ctx.rel_tol) for ctx, points in items])
    prepared = []
    for (ctx, points), run in zip(items, runs):
        kernel, drift, x_a, g, B = run.kernel_b, run.drift, ctx.x_a, ctx.cfg.g, ctx.cfg.B
        far, near = points[:, :2] - drift, x_a[:2] - drift
        # pL has no transverse slots (EvalContext), so the first term is i pL.dx^L;
        # the last is the action's boundary term and the magnetic gauge phase in one
        constant = 1j * longitudinal_dot(ctx.pL, points - x_a) - 0.5j * g * run.action \
            + 0.5j * g * B * (far[:, 0] * near[:, 1] - far[:, 1] * near[:, 0])
        # P+ fills columns 0 and 2 only and P- columns 1 and 3, so M+ and M- are
        # orthogonal and |I+ M+ + I- M-| = w |(I+, I-)|
        prepared.append(_Prepared(
            rho2=(far[:, 0] - x_a[0]) ** 2 + (far[:, 1] - x_a[1]) ** 2, constant=constant,
            plus=P_PLUS - np.multiply.outer(kernel, D_PLUS),
            minus=P_MINUS - np.multiply.outer(kernel.conjugate(), D_MINUS),
            weight=np.sqrt(_P2 + _D2 * (kernel.real ** 2 + kernel.imag ** 2)), run=run))
    return prepared


def spin_factor(e0, ctx: EvalContext) -> np.ndarray:
    """Dressed projector braces exp(+i w) M+ + exp(-i w) M-, w = e0 g B / 2,
    at one proper-time node or at each node of an array (set-up runs once);
    RangeError where e0, w or exp(+-i w) is not finite, before the phase pass."""
    # a non-finite e0 makes w non-finite too, and an overflow in w or in
    # exp(+-i w) is refused with it
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.asarray(e0) * ctx.cfg.g * ctx.cfg.B / 2.0
        turns = np.exp(1j * w), np.exp(-1j * w)
    if not np.isfinite(w).all():
        raise RangeError(f"e0 and w = e0 g B / 2 must be finite, got e0 = {e0!r}")
    if not (np.isfinite(turns[0]).all() and np.isfinite(turns[1]).all()):
        raise RangeError(f"exp(+-i w), w = e0 g B / 2, must be finite, got e0 = {e0!r}")
    pre = _prepare([(ctx, ctx.x_b)])[0]
    return np.multiply.outer(turns[0], pre.plus[0]) + np.multiply.outer(turns[1], pre.minus[0])


class _Ray:
    """A context of `_green_batch` that integrates a ray: its prepared
    endpoints and the ray's numbers."""

    def __init__(self, ctx: EvalContext, pre: _Prepared, gap: float):
        b = ctx.cfg.g * ctx.cfg.B
        scale = 2.0 / (gap * np.sin(ctx.theta))
        # e0 = scale u / (1 - u) ray; 0.5j gap is the e0-dependent part of the
        # longitudinal phase
        self.numbers = np.exp(1j * ctx.theta), scale, b, 0.5j * gap, pre.rho2, pre.weight
        self.problem = (0.0, 1.0, dict(abs_tol=ctx.abs_tol, rel_tol=ctx.rel_tol,
                                       breakpoints=[s / (s + scale) for s in RAY_SEEDS]))


def _block(ray, u):
    """The ray integrand's (nodes, n, 2) values w f (q, 1), or w f (1, q) for
    g B <= 0 (see `_green_batch`), on the nodes u of the context `ray`."""
    x = u[:, None]
    turn, scale, b, rate, rho2, weight = ray.numbers
    rest = 1.0 - x
    e0 = scale * x / rest * turn
    n, c, q = folded_kernel(e0, b)
    f = np.exp(rate * e0 + c * rho2)
    f *= -0.5j * n * (turn * scale / rest ** 2)
    f *= weight
    both = np.empty(f.shape + (2,), complex)
    both[..., 0], both[..., 1] = (f * q, f) if b > 0.0 else (f, f * q)
    return both


@earliest_failure
def _green_batch(items) -> list:
    """(G at each far endpoint of `points`, shape (n, 4, 4), joint diagnostics)
    for each (context, points) of `items`: the context with x_b replaced, all
    its points on one panel set of the ray e0 = s exp(i theta), s = L u / (1 - u),
    u in [0, 1), L = 2 / (gap sin theta), cut before the first round at
    u = s / (s + L) for each s of RAY_SEEDS; the contexts' rays and phase
    passes in lockstep, each with the bits of its own alone. Per endpoint the
    integrand is w f (q, 1), or w f (1, q) for g B <= 0, with
    f = (-i/2) n exp(i (e0/2) gap + c rho^2) ds/du: n, c and q are `folded_kernel`'s
    per-node factors and w the braces' one norm, so each node and endpoint takes
    one exponential. M+ and M- fill disjoint columns, so the integrand's norm is
    that of G (jointly sqrt(sum |G_n|^2)) and never sees the action's phase;
    exp(constant) / w takes the integrals I+- to G once per endpoint, after the ray."""
    gaps = []
    for ctx, _ in items:
        gaps.append(ctx.mass_gap)
        if not 0.0 < gaps[-1] < np.inf:
            raise QuadratureFailure(
                f"proper-time integrand needs a finite mass gap dot(pL, pL) - m^2 > 0, "
                f"got gap {gaps[-1]!r}")
    prepared = _prepare(items)
    for pre in prepared:
        if np.any(pre.rho2 == 0.0):
            raise QuadratureFailure(
                "coincident transverse endpoints: the short-time end of the ray is "
                "log-divergent")
    rays = [_Ray(ctx, pre, gap) for (ctx, _), pre, gap in zip(items, prepared, gaps)
            if pre.rho2.size]
    # each integrand is bound here: kept on its `_Ray`, it would make a reference cycle
    results = iter(_stacked(adaptive_quad, [(partial(_block, ray), *ray.problem) for ray in rays]))
    values = []
    for pre in prepared:
        if not pre.rho2.size:       # no endpoint: no ray to integrate
            values.append((np.empty((0, 4, 4), complex), KernelDiagnostics(
                error_estimate=0.0, nodes=0, prepare_nodes=pre.run.nodes,
                prepare_error=pre.run.error_estimate)))
            continue
        result = next(results)
        i_plus, i_minus = (result.value * (np.exp(pre.constant) / pre.weight)[:, None]).T
        values.append((i_plus[:, None, None] * pre.plus + i_minus[:, None, None] * pre.minus,
                       KernelDiagnostics(error_estimate=result.error_estimate, nodes=result.nodes,
                                         prepare_nodes=pre.run.nodes,
                                         prepare_error=pre.run.error_estimate)))
    return values


def green_function(ctx: EvalContext) -> PropagatorValue:
    """Mixed-representation Green function at fixed longitudinal momentum."""
    return _green_functions([ctx])[0]


def _green_functions(contexts) -> list:
    """`green_function` at each context, all in one `_green_batch`; raises the
    error of the earliest context that fails."""
    return [PropagatorValue(matrix=matrices[0], diagnostics=diag)
            for matrices, diag in _green_batch([(ctx, ctx.x_b) for ctx in contexts])]


def total_potential_lowered(ctx: EvalContext, x: np.ndarray) -> np.ndarray:
    """Lowered components of the total potential A_mu at the point x: the
    plane-wave part lowers to (a1, a2, 0, 0), its slots being transverse."""
    a1, a2 = ctx.cfg.profile.components(light_cone(x))
    return 0.5 * ((ctx.cfg.B * UNIT_FIELD) @ np.asarray(x, dtype=complex)) \
        + np.array([a1, a2, 0.0, 0.0])


#: Coarse finite-difference step of `dirac_apply`; the fine step is its half, so
#: the coarse stencil's inner points are the fine stencil's outer ones.
DIRAC_STEP = 0.02

#: The 24 stencil offsets of `dirac_apply` from x_b: per direction mu,
#: (4, 2, 1, -1, -2, -4) h e_mu, h the fine step.
_DIRAC_OFFSETS = (np.array([4, 2, 1, -1, -2, -4])[:, None] * (DIRAC_STEP / 2.0)
                  * np.eye(4)[:, None]).reshape(24, 4)


def dirac_apply(ctx: EvalContext) -> np.ndarray:
    """Apply the gauged Dirac operator (i gamma^mu (d_mu - g A_mu) + m) in x_b.

    Derivatives are 4th-order central differences; each direction is
    calibrated by comparing steps h and h/2 (StepCalibrationFailure when the
    two disagree by more than 10%). The Green function at x_b and its 24
    distinct stencil neighbours comes from one `_green_batch` call, on one
    shared ray, so their quadrature errors are common-mode and cancel in the
    differences.
    """
    return _dirac_applies([ctx])[0]


@earliest_failure
def _dirac_applies(contexts) -> list:
    """`dirac_apply` at each context, every stencil in one `_green_batch`;
    raises the error of the earliest context that fails."""
    steps = (DIRAC_STEP, DIRAC_STEP / 2.0)
    values = _green_batch([(ctx, np.concatenate([ctx.x_b[None], ctx.x_b + _DIRAC_OFFSETS]))
                           for ctx in contexts])

    def stencil(f, h):
        return (-f[:, 0] + 8 * f[:, 1] - 8 * f[:, 2] + f[:, 3]) / (12 * h)

    def norms(f):       # Frobenius, per direction, as np.linalg.norm's axis=(1, 2) forms them
        return np.sqrt(np.add.reduce((f.conj() * f).real, axis=(1, 2)))

    applied = []
    for ctx, (matrices, _) in zip(contexts, values):
        base, shifted = matrices[0], matrices[1:].reshape(4, 6, 4, 4)
        # the coarse stencil (2, 1, -1, -2) 2h is entries 0, 1, 4, 5, the fine one 1 to 4
        coarse = stencil(shifted[:, [0, 1, 4, 5]], steps[0])
        fine = stencil(shifted[:, 1:5], steps[1])
        scale = np.maximum(norms(fine), 1e-300)
        failed = np.flatnonzero(norms(coarse - fine) > 0.1 * scale)
        if failed.size:
            raise StepCalibrationFailure(
                f"direction {failed[0]}: steps {steps[0]} and {steps[1]} disagree beyond 10%")
        a_low = total_potential_lowered(ctx, ctx.x_b)
        out = ctx.m * base
        for term in 1j * GAMMA @ (fine - (ctx.cfg.g * a_low)[:, None, None] * base):
            out = out + term        # in mu order, as the sum is written
        applied.append(out)
    return applied
