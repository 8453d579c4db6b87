"""Adaptive Gauss-Kronrod (G7/K15) panels for complex- and matrix-valued integrands.

Written in-repo rather than wrapping scipy.integrate.quad because the contracts
here need complex/matrix integrands, a hard node budget with structured failure,
and deterministic node accounting for bit-identical reruns.

Rounds: the integrand is called once per subdivision round, on the 15 Kronrod
nodes of every panel of the round joined panel after panel: first the seeded
panels, then the halves of every panel that round bisects. One stacked weights
product per round applies the rule to all of them; it runs the same product
per panel, so each panel's value keeps the bits of that panel evaluated alone.

Stacks: the private `_lockstep_quad` runs a stack of independent integrals in
lockstep, each with its own integrand, panels, heap, running sums, node cap
and stopping rule. One `_nodes` call per round forms the nodes of every
integral still running; each integral's integrand takes its own slice of
them and the rule runs on its own panels, so each keeps the bits of its
value, error estimate and node count alone, and a round raises the first
failure it meets. `adaptive_quad` is its stack of one, so there is one loop.
The stages that run a stack of contexts on it (`kernels._phase_passes`,
`green._prepare`, `green._green_batch`, `green._dirac_applies`) return one
result per context or raise; all but `green._prepare`, which raises what
its passes raise, carry `earliest_failure`, which gives them one failure
order, the outermost stage running a failing stack again item by item so
that its earliest failing item raises exactly what it raises alone.

Determinism: the subdivision order is a pure function of the inputs (heap ties
broken by insertion counter), and the value and the error estimate are plain
running sums over the panels sorted by left endpoint, the value's from 0j.
The panel order, not compensation, fixes the bits; the phase pass forms the
same running sums from the panels and reads them at its panel edges.
"""

from __future__ import annotations

import functools
import heapq
import math
import threading
from operator import add, itemgetter, neg
from typing import NamedTuple

import numpy as np

from .conventions import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, NODE_CAP
from .errors import QuadratureFailure, WavefieldError

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


def _norm(v) -> float:
    """Euclidean norm of a real or complex scalar or array (np.linalg.norm's
    value, without its dispatch)."""
    flat = v.ravel().view(np.float64)
    return math.sqrt(flat.dot(flat))


def _nodes(intervals):
    """(half-widths, shape (P, 1), and the 15 Kronrod nodes of each panel,
    joined panel after panel) of the (a, b) panels `intervals`."""
    # (midpoint, half-width) of each panel, in Python floats, which round as numpy's do
    spans = np.array([(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in intervals])
    halves = spans[:, 1:]
    nodes = halves * XK
    nodes += spans[:, :1]
    return halves, nodes.ravel()


def _rule(halves, stack):
    """K15/G7 evaluations of panels of half-widths `halves` (shape (P, 1)) from
    the values `stack` at their 15 Kronrod nodes each, joined panel after panel
    (stacked on axis 0, complex, contiguous): (kronrod values stacked on axis 0,
    [|kronrod - gauss|]) in order. One stacked weights product serves them all;
    it runs the same product per panel, so each panel's value has the bits of
    that panel evaluated alone."""
    # complex values as interleaved (re, im) floats: one real product for both rows
    blocks = stack.view(np.float64).reshape(len(halves), 15, -1)
    sums = halves[..., None] * (_PANEL_WEIGHTS @ blocks)
    values = sums[:, 0].view(complex).reshape((len(halves),) + stack.shape[1:])
    # each panel's norm of kronrod - gauss as its own dot product, as `_norm` takes it
    diffs = sums[:, 1]
    return values, np.sqrt(np.vecdot(diffs, diffs)).tolist()


class _Problem:
    """One integral of a lockstep stack: its integrand, tolerances, node cap,
    panels (a heap by error), running sums, the panels its next round
    evaluates and the rule's values and errors on them."""

    __slots__ = ("f", "sign", "abs_tol", "rel_tol", "node_cap", "heap", "nodes", "err_sum",
                 "value_sum", "pending", "fit", "rule")

    def __init__(self, f, a, b, abs_tol=DEFAULT_ABS_TOL, rel_tol=DEFAULT_REL_TOL,
                 node_cap=NODE_CAP, breakpoints=None):
        self.f, self.sign = f, 1.0
        if b < a:
            a, b, self.sign = b, a, -1.0
        edges = [a]
        if breakpoints:
            edges += [p for p in sorted(set(breakpoints)) if a < p < b]
        edges.append(b)
        self.abs_tol, self.rel_tol, self.node_cap = abs_tol, rel_tol, node_cap
        self.heap, self.nodes, self.err_sum, self.value_sum = [], 0, 0.0, 0.0
        self.pending = list(zip(edges[:-1], edges[1:]))

    def failure(self, reason):
        return QuadratureFailure(f"{reason} (error estimate {self.err_sum:.3e})",
                                 error_estimate=self.err_sum, nodes=self.nodes)

    def advance(self):
        """Take the round's rule on `fit` and set the next round's panels (none
        when done), or raise the failure."""
        fit, (values, errors) = self.fit, self.rule
        heap, nodes, err_sum, value_sum = self.heap, self.nodes, self.err_sum, self.value_sum
        for (lo, hi), kron, err in zip(fit, values, errors):
            nodes += 15
            err_sum += err
            value_sum = value_sum + kron
            heapq.heappush(heap, (-err, nodes, lo, hi, kron))
        self.nodes, self.err_sum, self.value_sum, pending = nodes, err_sum, value_sum, []
        if len(fit) < len(self.pending):
            raise self.failure(f"node budget {self.node_cap} exhausted")
        norm = _norm(value_sum)
        if not (math.isfinite(err_sum) and math.isfinite(norm)):   # inf <= inf would stop
            raise self.failure(f"value norm {norm!r} or error estimate is not finite")
        # running sums decide when to stop; the result is summed afresh below
        tol = max(self.abs_tol, self.rel_tol * norm)
        if err_sum > tol:
            pairs = (self.node_cap - nodes) // 30      # a bisection needs both halves
            if not pairs:
                raise self.failure(f"node budget {self.node_cap} exhausted")
            while err_sum > tol and heap and len(pending) < 2 * pairs:
                neg_err, _, lo, hi, kron = heapq.heappop(heap)
                err_sum += neg_err
                value_sum = value_sum - kron
                mid = 0.5 * (lo + hi)
                pending += [(lo, mid), (mid, hi)]
            self.err_sum, self.value_sum = err_sum, value_sum
        self.pending = pending

    def result(self) -> QuadratureResult:
        pieces = sorted(self.heap, key=itemgetter(2))
        # the value: 0j, then each panel's value added in turn
        return QuadratureResult(self.sign * functools.reduce(add, map(itemgetter(4), pieces), 0j),
                                sum(map(neg, map(itemgetter(0), pieces))), self.nodes,
                                tuple(map(itemgetter(slice(2, None)), pieces)))


def _lockstep_quad(problems) -> list:
    """`adaptive_quad` on a stack of independent problems, each an (f, a, b,
    options) tuple, options a dict of `adaptive_quad`'s keyword arguments, in
    lockstep: every problem keeps its own integrand f, panels, heap, running
    sums, node cap and stopping rule. Each round forms the nodes of every
    running problem in one `_nodes` call; each problem's f maps its own slice
    of them, the nodes `adaptive_quad` would hand it alone, to their values
    stacked on axis 0, and the rule runs on that problem's panels. So each
    problem keeps the bits of its value, error estimate and node count alone.

    Returns every problem's QuadratureResult, or raises the first failure a
    round meets (`earliest_failure` finds the earliest in stack order)."""
    live = stack = [_Problem(f, a, b, **options) for f, a, b, options in problems]
    # non-finite values, and sums or norms past the float range, are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            intervals = []
            for problem in live:
                # the pending panels that the node cap admits (breakpoints may seed more)
                problem.fit = problem.pending[:(problem.node_cap - problem.nodes) // 15]
                intervals += problem.fit
            halves, nodes = _nodes(intervals) if intervals else (None, None)
            first = 0
            for problem in live:
                # its own rows of halves and its own slice of the nodes
                last = first + len(problem.fit)
                if problem.fit:
                    problem.rule = _rule(halves[first:last], np.ascontiguousarray(
                        problem.f(nodes[15 * first:15 * last]), dtype=complex))
                else:       # no panel fits: it fails below
                    problem.rule = (), ()
                first = last
            for problem in live:
                problem.advance()
            live = [problem for problem in live if problem.pending]
    return [problem.result() for problem in stack]


class _Nesting(threading.local):
    """How many stack stages run on this thread, each inside the one before."""

    depth = 0


_nesting = _Nesting()


def earliest_failure(stage):
    """`stage`, a function of a stack (a list of items) that returns one
    result per item or raises, with the stacks' failure order: where the
    whole stack raises a package error on two or more items, and no stack
    stage encloses this one, `stage` runs again on each item alone in stack
    order, so the earliest failing item raises exactly what it raises alone.
    An enclosed stage raises its stack's failure as it is, so however deep
    the stages nest, a failing stack runs again once."""
    @functools.wraps(stage)
    def run(items):
        _nesting.depth += 1
        try:
            return stage(items)
        except WavefieldError as exc:
            if _nesting.depth > 1 or len(items) < 2:
                raise
            failure = exc
        finally:
            _nesting.depth -= 1
        for item in items:
            run([item])
        raise failure       # no item fails alone: the stack's own failure

    return run


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
    options = dict(abs_tol=abs_tol, rel_tol=rel_tol, node_cap=node_cap, breakpoints=breakpoints)
    return _lockstep_quad([(f, a, b, options)])[0]


def _stacked(quad, problems) -> list:
    """`_lockstep_quad(problems)`, except that a stack of one runs through
    `quad`, the caller's binding of `adaptive_quad`, where a tracer has
    wrapped it."""
    if len(problems) != 1 or quad is adaptive_quad:
        return _lockstep_quad(problems)
    f, a, b, options = problems[0]
    return [quad(f, a, b, **options)]
