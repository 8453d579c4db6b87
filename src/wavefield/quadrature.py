"""Adaptive Gauss-Kronrod (G7/K15) panels for complex- and matrix-valued integrands.

Written in-repo rather than wrapping scipy.integrate.quad because the contracts
here need complex/matrix integrands, a hard node budget with structured failure,
and deterministic node accounting for bit-identical reruns.

Rounds: the integrand is called once per subdivision round, on the 15 Kronrod
nodes of every panel of the round joined panel after panel: first the seeded
panels, then the halves of every panel that round bisects. One stacked weights
product per round applies the rule to all of them; it runs the same product
per panel, so each panel's value keeps the bits of that panel evaluated alone.

Determinism: the subdivision order is a pure function of the inputs (heap ties
broken by insertion counter), and the value and the error estimate are plain
running sums over the panels sorted by left endpoint. The panel order, not
compensation, fixes the bits; the phase pass reads the same running sums at
its panel edges.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .conventions import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, NODE_CAP
from .errors import QuadratureFailure

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights on the
# shared subset. Standard QUADPACK constants.
_XK_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WK_HALF = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG_HALF = np.array([0.1294849661688697, 0.2797053914892767, 0.3818300505051189, 0.4179591836734694])

XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])            # 15 ordered nodes
WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])                       # Gauss subset inside XK
WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

#: Row 0 is the K15 rule, row 1 the K15 rule minus the G7 rule (zero off the
#: Gauss subset): one product with a panel's stacked values gives both.
_WG_FULL = np.zeros(15)
_WG_FULL[_G_IDX] = WG
_PANEL_WEIGHTS = np.stack([WK, WK - _WG_FULL])


#: For a panel of half-width `half`, half * CUMULATIVE @ f(nodes) integrates the
#: degree-14 interpolant of f from the panel's left edge to each of its nodes: entry
#: (i, j) is the K15 rule (exact to degree 22) on [-1, XK[i]] for node j's Lagrange
#: polynomial (numpy.polynomial or LAPACK here would stay resident in every process).
_HALF = (XK + 1.0) / 2.0
_DIFF = (-1.0 + _HALF[:, None] * (XK + 1.0))[..., None] - XK      # [i, K15 node, k]
CUMULATIVE = _HALF[:, None] * np.einsum("m,imj->ij", WK, np.stack(
    [np.prod(np.delete(_DIFF, j, axis=-1), axis=-1) / np.prod(np.delete(XK[j] - XK, j))
     for j in range(15)], axis=-1))


class QuadratureResult(NamedTuple):
    value: object            # complex scalar or ndarray, matching the integrand
    error_estimate: float
    nodes: int
    panels: tuple = ()       # (left, right, value) per panel, ascending, never sign-flipped
    cumulative: object = ()  # rows: 0, then the running sum of the panel values; never sign-flipped


def _norm(v) -> float:
    """Euclidean norm of a real or complex scalar or array (np.linalg.norm's
    value, without its dispatch)."""
    flat = v.ravel().view(np.float64)
    return math.sqrt(flat.dot(flat))


def _panels(f, intervals):
    """K15/G7 evaluations on each (a, b) of `intervals` from one call of f on all
    their nodes, joined panel after panel: (kronrod values stacked on axis 0,
    [|kronrod - gauss|]) in order. One stacked weights product serves the whole
    round; it runs the same product per panel, so each panel's value has the
    bits of that panel evaluated alone."""
    # (midpoint, half-width) of each panel, in Python floats, which round as numpy's do
    spans = np.array([(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in intervals])
    halves = spans[:, 1:]
    nodes = halves * XK
    nodes += spans[:, :1]
    stack = np.ascontiguousarray(f(nodes.ravel()), dtype=complex)
    # complex values as interleaved (re, im) floats: one real product for both rows
    blocks = stack.view(np.float64).reshape(len(intervals), 15, -1)
    sums = halves[..., None] * (_PANEL_WEIGHTS @ blocks)
    values = sums[:, 0].view(complex).reshape((len(intervals),) + stack.shape[1:])
    # each panel's norm of kronrod - gauss as its own dot product, as `_norm` takes it
    diffs = sums[:, 1]
    return values, np.sqrt(np.vecdot(diffs, diffs)).tolist()


def adaptive_quad(f, a: float, b: float, abs_tol: float = DEFAULT_ABS_TOL,
                  rel_tol: float = DEFAULT_REL_TOL, node_cap: int = NODE_CAP,
                  breakpoints=None) -> QuadratureResult:
    """Integrate f over [a, b] to max(abs_tol, rel_tol*|result|).

    The work goes in rounds, one call of f each. The first evaluates every
    seeded panel: [a, b], cut at the `breakpoints` inside it (useful when the
    integrand has a known boundary layer; repeats count once). Each later round
    takes the worst panels until the error left fits the tolerance and bisects
    them all. f maps the 15 Kronrod nodes of each panel of the round, joined
    panel after panel, to their values stacked on axis 0 (complex scalars or
    ndarrays). Raises QuadratureFailure, with the nodes used and the error so
    far, when a value, the error or the value's norm is not finite, or when a
    round would take it past `node_cap` integrand evaluations: the panels of
    that round that fit (whole bisections, after the first) are evaluated first.
    """
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0

    edges = [a]
    if breakpoints:
        edges += [p for p in sorted(set(breakpoints)) if a < p < b]
    edges.append(b)

    heap, nodes, err_sum, value_sum = [], 0, 0.0, 0.0

    def failure(reason):
        return QuadratureFailure(f"{reason} (error estimate {err_sum:.3e})",
                                 error_estimate=err_sum, nodes=nodes)

    pending = list(zip(edges[:-1], edges[1:]))
    # non-finite values, and sums or norms past the float range, are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            fit = pending[:(node_cap - nodes) // 15]     # breakpoints may seed more than the cap
            values, errors = _panels(f, fit) if fit else ((), ())
            for (lo, hi), kron, err in zip(fit, values, errors):
                nodes += 15
                err_sum += err
                value_sum = value_sum + kron
                heapq.heappush(heap, (-err, nodes, lo, hi, kron))
            if len(fit) < len(pending):
                raise failure(f"node budget {node_cap} exhausted")
            norm = _norm(value_sum)
            if not (math.isfinite(err_sum) and math.isfinite(norm)):    # inf <= inf would stop
                raise failure(f"value norm {norm!r} or error estimate is not finite")
            # running sums decide when to stop; the result is summed afresh below
            tol = max(abs_tol, rel_tol * norm)
            if err_sum <= tol:
                break
            pairs = (node_cap - nodes) // 30             # a bisection needs both halves
            if not pairs:
                raise failure(f"node budget {node_cap} exhausted")
            pending = []
            while err_sum > tol and heap and len(pending) < 2 * pairs:
                neg_err, _, lo, hi, kron = heapq.heappop(heap)
                err_sum += neg_err
                value_sum = value_sum - kron
                mid = 0.5 * (lo + hi)
                pending += [(lo, mid), (mid, hi)]

    pieces = sorted(heap, key=itemgetter(2))
    # the running sums, one row each: zero, then each panel's value added in turn
    cumulative = np.zeros((len(pieces) + 1,) + values.shape[1:], complex)
    cumulative[1:] = [item[4] for item in pieces]
    np.add.accumulate(cumulative, axis=0, out=cumulative)
    return QuadratureResult(sign * cumulative[-1], sum(-item[0] for item in pieces), nodes,
                            tuple((item[2], item[3], item[4]) for item in pieces), cumulative)
