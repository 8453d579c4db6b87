"""Closed-form kernels and phases of the proper-time representation.

`folded_kernel` is the e0-dependent part of the transverse constant-field kernel

    [i g B / (4 pi sin(e0 g B / 2))]
      * exp{ i (g B / 2) [ (Xb1 Xa2 - Xb2 Xa1) - (1/2) cot(e0 g B / 2) |DX|^2 ] },

the bare formula the ray calls, written through q = exp(i |g B| e0) as a
prefactor and the coefficient of rho^2 = |DX|^2 in a Gaussian, the only way it
sees the endpoints; the gauge phase i (g B / 2)(Xb1 Xa2 - Xb2 Xa1) is a constant.
Everything the wave phase contributes comes from one pass along it,
`phase_pass`, to one phi_b or to an array of them, whose `PhasePass` is a
plain record of:

* `kernel_b`: the phase-integral dressing at phi_b, as printed, integrated
  from phi_a,

    K(phi) = [g / (2 dot(k, pL))] exp(i beta phi)
             * int_{phi_a}^{phi} exp(i beta phi') dot(eps, A'^p(phi')) dphi',
    beta = g B / dot(k, pL),

  so K(phi_a) = 0 and G sees the profile between phi_a and phi_b only; a
  sign toggle flips the integrand exponential only (`sign=-1`) for
  sensitivity studies. It is integrated by parts, which is exact and needs
  the potential only, never its slope: with s = sign and
  a(phi) = dot(eps, A^p(phi)) = (a1 + i a2) / sqrt2,

    K(phi) = [g / (2 dot(k, pL))] exp(i beta phi)
             * { exp(i s beta phi) a(phi) - exp(i s beta phi_a) a(phi_a)
                 - i s int_{phi_a}^{phi} beta exp(i s beta phi') a(phi') dphi' },

  whose integrand vanishes at B = 0, where K is the boundary term alone.
  K*, the same with eps -> eps* and both exponentials sign-conjugated, is
  the complex conjugate of K for the real profiles here, so callers take it
  as `.conjugate()`;
* `drift`: the real transverse drift (Y1, Y2) at phi_b, at rest at phi_a, in
  the phi parameterization, where the proper-time scale drops out:
  dY/dphi = (g / dot(k, pL)) (A^p(phi) - f Y);
* `action`: the real int_{phi_a}^{phi_b} A^p . dY/dphi, which enters the
  e0-independent exponent as -i (g/2) action; `green._prepare` adds the
  boundary term and the gauge phase at X = x_b - Y in one expression.

`_phase_passes` runs a stack of passes (each its own context, phi_a and
phi_b) as one lockstep quadrature, one integrand call per round for all of
them, each pass's columns from `_columns` on its own nodes; `phase_pass` is
its stack of one, and every pass keeps the bits it has alone. A failing
stack raises what its earliest failing pass raises alone
(`quadrature.earliest_failure`).

rot(phi - p) = rot(phi - phi_a) rot(phi_a - p) makes Y = rate rot(phi - phi_a) C(phi),
with C the integral from phi_a of d, the eps component of rot(phi_a - p) A^p(p)
(its eps* component is conj(d)). With w = C(phi_b) exp(-i beta (phi_b - phi_a)),
Y = sqrt2 rate (Re w, -Im w), and the action density is
2 rate (|d|^2 - beta Im(d conj(C))), so one panel set and its cumulative sums,
read at the panel edge of each phi_b, give all of these for every endpoint.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .conventions import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, DEFAULT_VOLKOV_SIGN, NODE_CAP
from .errors import DivisionByZero
from .fields import FieldConfig
from .minkowski import SQRT2, light_cone
from .quadrature import CUMULATIVE, XK, _each, _stacked, adaptive_quad, earliest_failure

#: |sin(e0 g B / 2)| that perfbench's admissibility check requires along the
#: default ray; nothing in the package reads it.
NEAR_CAUSTIC_THRESHOLD = 0.05


@dataclass(frozen=True)
class KernelDiagnostics:
    error_estimate: float     # proper-time quadrature error estimate
    nodes: int                # proper-time quadrature nodes
    prepare_nodes: int        # nodes of the phase pass (action, drift, K)
    prepare_error: float      # its error estimate


def folded_kernel(e0, b: float):
    """(n, c, q) at one proper time e0 or at an array of them, b = g B: at squared
    transverse distance rho2 of the endpoints, the transverse kernel without its
    gauge phase is n exp(c rho2) q^{1/2}, q = exp(i |b| e0); a caller's factor
    exp(+-i e0 b / 2) makes it n exp(c rho2) q or n exp(c rho2). With h = |b| / (1 - q),
    or its limit i / e0 at b = 0 (where q = 1),

        i b / (4 pi sin(e0 b / 2)) = h q^{1/2} / (2 pi),   (b/2) cot(e0 b / 2) = -(i/2) h (1 + q),

    so n = h / (2 pi) and c = -(h/4)(1 + q), and |q| <= 1 on the upper half plane:
    nothing overflows however far out e0 lies. None depends on rho2, so a caller
    with many endpoints forms them once per e0. No domain check: the ray's nodes
    (Im e0 > 0) never reach e0 = 0 or a caustic.
    """
    if b == 0.0:
        h, q = 1j / e0, 1.0
    else:
        z = 1j * abs(b) * e0
        q = np.exp(z)
        h = abs(b) / -np.expm1(z)
    return h / (2.0 * np.pi), -0.25 * h * (1.0 + q), q


#: The drift and phase-integral columns of `phase_pass` meet this share of
#: the tolerances its action column meets.
_SUB_TOLERANCE = 1e-2

#: `phase_pass` seeds its panels so that none spans more than this many radians
#: of its integrand's fastest rotation, |beta| plus the profile's turn rate. A
#: K15 panel over 2 radians meets the sub-tolerance at once, so a long pass ends
#: in its seeded round. Per gf of perfbench's span-pulse workload, 1 rad took 144
#: pass nodes, 2 rad 77 and 3 rad 90, where wider panels get bisected again
#: (unseeded: 124 nodes in 3-4 rounds).
_SEED_RADIANS = 2.0

#: XK[-1] - XK[0]: a panel's half-width is its outer nodes' distance over this.
_NODE_SPAN = float(XK[-1] - XK[0])


@dataclass(frozen=True)
class PhasePass:
    """What the wave phase contributes between phi_a and each phi_b: the drift
    at rest at phi_a and the kernel K integrated from phi_a; K* is its conjugate.
    `action`, `drift` (on its last axis) and `kernel_b` take the shape of phi_b;
    `nodes` and `error_estimate` are the whole pass's, all columns together."""

    action: float | np.ndarray        # int_{phi_a}^{phi_b} A^p . dY/dphi dphi
    drift: np.ndarray                 # (Y1, Y2) at phi_b
    kernel_b: complex | np.ndarray    # K(phi_b)
    nodes: int
    error_estimate: float


def _nothing(shape) -> PhasePass:
    """The pass of a zero profile or an empty hull, shaped like phi_b."""
    return PhasePass(np.zeros(shape)[()], np.zeros(shape + (2,)), np.zeros(shape, complex)[()],
                     0, 0.0)


def _turns(rate: float | None, lo: float, hi: float, beta: float) -> float:
    """Seeded panels, unrounded, that [lo, hi] needs: its rotation |beta| + the
    turn rate `rate` there, over _SEED_RADIANS (none when the rate is None)."""
    return 0.0 if rate is None else (hi - lo) * ((abs(beta) + rate) / _SEED_RADIANS)


def _seeds(profile, edges: list, beta: float) -> list:
    """The sorted hull breakpoints `edges` with the profile's knots between
    them, each gap then cut into equal panels spanning at most _SEED_RADIANS
    of the rotation |beta| + turn rate: the whole gap at the rate of its
    fastest piece of `turn_rates`, or each piece at its own where that takes
    fewer panels. Seeds that alone would pass the node cap are dropped, knots
    too: the pass then runs from `edges` as an unseeded one. The cap is
    applied before any count is rounded, so an infinite or nan count falls
    back the same way."""
    start, stop = edges[0], edges[-1]
    cuts = edges
    if len(profile.knots):
        knots = np.asarray(profile.knots, dtype=float)
        cuts = sorted({*edges, *knots[(knots > start) & (knots < stop)].tolist()})
    limit, gaps = NODE_CAP // 15, []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = profile.turn_rates(lo, hi)
        split = [(a, b, _turns(rate, a, b, beta)) for a, b, rate in pieces]
        if len(split) > 1:      # one piece is its own whole gap
            rates = [rate for *_, rate in pieces]
            whole = _turns(None if None in rates else max(rates), lo, hi, beta)
            # a whole gap past the cap (inf, nan) is never rounded: its pieces, which
            # take no more turns, are kept, for the cap below to drop if they pass it
            if whole <= limit and sum(max(1, math.ceil(t)) for *_, t in split) \
                    >= max(1, math.ceil(whole)):
                split = [(lo, hi, whole)]
        gaps += split
    if not len(gaps) + sum(turn for *_, turn in gaps) <= limit:
        return edges
    seeds = []
    for lo, hi, turn in gaps:
        n = max(1, math.ceil(turn))
        seeds += [lo + (hi - lo) * j / n for j in range(n)]
    return seeds + [stop]


def phase_pass(cfg: FieldConfig, pL: np.ndarray, phi_a: float, phi_b,
               sign: int = DEFAULT_VOLKOV_SIGN, abs_tol: float = DEFAULT_ABS_TOL,
               rel_tol: float = DEFAULT_REL_TOL) -> PhasePass:
    """One adaptive quadrature on the hull of phi_a and every phi_b (one phase
    or an array of them), breakpoints at each, at the profile's knots and at
    seeds no more than _SEED_RADIANS of rotation apart, of three columns: C's integrand
    d, the integrand of K by parts, beta exp(i sign beta x) dot(eps, A^p(x)),
    and the real action density with C counted from the panel's left edge.
    The quadrature's running sums of the panel integrals give C and K at the
    panel edges and so the rest; K adds its boundary term, from the profile at
    phi_a and every distinct phi_b, read with each round's nodes, which raises
    RangeError for a tabulated profile whose grid does not hold them all.
    Nothing outside the hull is sampled.
    abs_tol and rel_tol are the evaluation's: the action meets them and the
    drift and K meet _SUB_TOLERANCE of them, as the quadrature runs at that
    share with the action column weighted by it. The stack of one of
    `_phase_passes`."""
    return _phase_passes([(cfg, pL, phi_a, phi_b, sign, abs_tol, rel_tol)])[0]


class _Pass:
    """A context of `_phase_passes` that needs a quadrature: its profile,
    phases, numbers, quadrature problem and the boundary terms its last
    round read."""

    def __init__(self, cfg, kp, phi_a, reads, ends, hull, sign, abs_tol, rel_tol):
        rate, beta = cfg.g / kp, cfg.g * cfg.B / kp          # beta = rate B turns the drift
        self.profile, self.reads, self.ends, self.sign = cfg.profile, reads, ends, sign
        # the turns of d's exponential and of K's, and the action's factor
        self.numbers = 1j * beta, 1j * sign * beta, beta, phi_a, 2.0 * rate
        # K's scale and the drift's
        self.scale, self.turn = cfg.g / (2.0 * kp), float(SQRT2) * rate
        # K's boundary term e^{i sign beta phi} dot(eps, A^p(phi)) at phi_a and at each
        # read, from the profile read that each round makes
        self.phases, self.boundary = np.array([phi_a, *reads]), []
        self.problem = (hull[0], hull[-1], dict(abs_tol=abs_tol * _SUB_TOLERANCE,
                                                rel_tol=rel_tol * _SUB_TOLERANCE,
                                                breakpoints=_seeds(cfg.profile, hull, beta)))


def _columns(job, x):
    """The three columns of `phase_pass` on the nodes x of the context `job`,
    stacked on axis 0, from its profile read once at x and its boundary
    phases; sets the job's boundary terms. A profile read's RangeError
    propagates."""
    n, read = x.size, np.concatenate((x, job.phases))
    a1, a2 = job.profile.components(read)
    turn_d, turn_k, beta, phi_a, density = job.numbers
    ia2 = 1j * a2
    turned, dotted = np.exp(turn_k * read), a1 + ia2
    job.boundary[:] = (turned[n:] * dotted[n:] / SQRT2).tolist()
    # d: the eps component of rot(phi_a - x) A^p(x)
    d = np.exp(turn_d * (x - phi_a)) * (a1 - ia2)[:n] / SQRT2
    # C - C(panel's left edge), one CUMULATIVE product per panel, on the
    # panel's (re, im) pairs
    panels = x.reshape(-1, 15, 1)
    halves = (panels[:, 14:] - panels[:, :1]) / _NODE_SPAN
    c = (halves * (CUMULATIVE @ d.view(np.float64).reshape(-1, 15, 2))).view(complex).ravel()
    stack = np.empty((n, 3), complex)
    stack[:, 0] = d
    stack[:, 1] = (beta * turned * dotted / SQRT2)[:n]
    stack[:, 2] = _SUB_TOLERANCE * (density * (abs(d) ** 2 - beta * (d * c.conj()).imag))
    return stack


def _setup(cfg, pL, phi_a, phi_b, sign, abs_tol, rel_tol) -> tuple:
    """(shape of phi_b, and None where the pass is `_nothing`, else its
    `_Pass`) of one request of `_phase_passes`; DivisionByZero where
    dot(k, pL) = 0 with a non-zero profile."""
    phi_b = np.asarray(phi_b)
    shape, ends = phi_b.shape, phi_b.ravel().tolist()
    if cfg.profile.is_zero or not ends:
        return shape, None
    # phases a few roundings apart, as (x2 + h) - x3 and x2 - (x3 - h) in a
    # dirac stencil, share one breakpoint and are read at it: everything below
    # is worked out once per distinct read, then indexed out to every endpoint
    # at the last read at or below it
    reads = []
    for phi in sorted(set(ends)):
        if not reads or phi - reads[-1] > 4.0 * math.ulp(reads[-1]):
            reads.append(phi)
    kp = float(light_cone(pL))
    if kp == 0:
        raise DivisionByZero("dot(k, pL) = 0 with a non-zero profile")
    hull = sorted({phi_a, *reads})
    if hull[0] == hull[-1]:
        return shape, None
    return shape, _Pass(cfg, kp, phi_a, reads, ends, hull, sign, abs_tol, rel_tol)


@earliest_failure
def _phase_passes(requests) -> list:
    """`phase_pass` on a stack of (cfg, pL, phi_a, phi_b, sign, abs_tol,
    rel_tol) requests: one lockstep quadrature for all of them, each pass with
    the bits of its own alone."""
    setups = [_setup(*request) for request in requests]
    jobs = [job for _, job in setups if job]
    quads, passes = iter(_stacked(adaptive_quad, _each(_columns, jobs),
                                  [job.problem for job in jobs])), []
    for shape, job in setups:
        if job is None:
            passes.append(_nothing(shape))
            continue
        quad = next(quads)
        turn_d, _, beta, phi_a, density = job.numbers
        reads, sign, boundary = job.reads, job.sign, job.boundary
        # a handful of panels and endpoints: the bookkeeping runs on Python scalars
        lefts = [lo for lo, _, _ in quad.panels] + [job.problem[1]]
        cumulative = quad.cumulative.tolist()
        ia = bisect_left(lefts, phi_a)
        at_a = cumulative[ia]
        # the action's cross-panel part: a running sum of each panel's integral of d
        # times conj(C) at its left edge
        area = [0.0]
        for (_, _, value), c in zip(quad.panels, cumulative):
            area.append(area[-1] + (complex(value[0]) * (c[0] - at_a[0]).conjugate()).imag)
        scale, turn = job.scale, job.turn
        slots = []
        for phi, at_phi in zip(reads, boundary[1:]):
            ib = bisect_left(lefts, phi)
            at_b = cumulative[ib]
            w = (at_b[0] - at_a[0]) * cmath.exp(-1j * beta * (phi - phi_a))
            slots.append(((at_b[2] - at_a[2]).real / _SUB_TOLERANCE
                          - density * beta * (area[ib] - area[ia]),
                          (turn * w.real, turn * -w.imag),
                          scale * cmath.exp(turn_d * phi)
                          * (at_phi - boundary[0] - 1j * sign * (at_b[1] - at_a[1]))))
        actions, drifts, kernels = zip(*(slots[bisect_right(reads, phi) - 1] for phi in job.ends))
        passes.append(PhasePass(np.array(actions).reshape(shape)[()],
                                np.array(drifts).reshape(shape + (2,)),
                                np.array(kernels).reshape(shape)[()], quad.nodes,
                                quad.error_estimate))
    return passes
