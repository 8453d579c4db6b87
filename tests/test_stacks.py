"""Stacks of contexts: the lockstep quadrature and what runs on it.

`quadrature._lockstep_quad` runs a stack of independent integrals one round
at a time, with one integrand call per round, and `kernels._phase_passes`,
`green._prepare`, `green._green_batch` and `green._dirac_applies` send a
stack of contexts through it. Each context is evaluated on its own nodes by
the code that evaluates it alone, so it must keep the bits of what it
gives alone: its value, error estimate and node count, its `PhasePass`
fields, its matrices and its `KernelDiagnostics`. Each of these stages
returns one result per context or raises, and one helper,
`quadrature.earliest_failure`, gives them the failure order: a failing
context raises exactly what it raises alone, and of several failing
contexts the earliest in stack order wins, whatever round each fails in.
The stages nest, and only the outermost replays a failing stack. The guard
tests check that every stage carries that helper and that `verify`
evaluates criterion 7's phase passes as two stacks, counted by their
integrand calls.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavefield import green, kernels, quadrature, verification
from wavefield.errors import DivisionByZero, QuadratureFailure, RangeError
from wavefield.fields import (CircularProfile, FieldConfig, LinearProfile, PulseProfile,
                              TabulatedProfile, ZeroProfile)
from wavefield.green import EvalContext, _dirac_applies, _green_functions, dirac_apply, green_function
from wavefield.kernels import _phase_passes, phase_pass
from wavefield.minkowski import light_cone
from wavefield.quadrature import _each, _lockstep_quad, adaptive_quad, earliest_failure

_SETTINGS = dict(deadline=None, derandomize=True, database=None)

XA = np.array([0.1, -0.2, 0.3, 0.0])
XB = np.array([0.6, 0.4, -0.1, 0.5])
PL = np.array([0.0, 0.0, 0.2, 2.0])
WCFG = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))


def _ctx(**kw):
    return EvalContext(**{**dict(m=0.8, x_a=XA, x_b=XB, pL=PL, cfg=WCFG), **kw})


# -- the runner ---------------------------------------------------------------

def _integrand(fs):
    """The stacked integrand of `_lockstep_quad` made of one plain integrand per problem."""
    return _each(lambda g, x: g(x), fs)


_FS = [lambda x: np.exp(1j * 11.0 * x) / (1.0 + x * x),
       lambda x: np.stack([np.cos(3.0 * x), np.exp(-x * x)], axis=-1) + 0j,
       lambda x: np.sqrt(np.abs(x - 0.3)) + 0j,
       lambda x: np.exp(2j * x)[:, None, None] * np.eye(2)]


def test_a_stack_has_the_bits_of_each_problem_alone():
    options = [dict(abs_tol=1e-12, rel_tol=1e-12), dict(breakpoints=[0.5, 1.0]),
               dict(abs_tol=1e-9, rel_tol=1e-11), dict(node_cap=600)]
    problems = [(0.0, 3.0, options[0]), (2.0, -1.0, options[1]), (0.0, 1.0, options[2]),
                (-1.0, 4.0, options[3])]
    calls = []

    def counted(x, counts):
        calls.append(counts)
        return _integrand(_FS)(x, counts)

    results = _lockstep_quad(counted, problems)
    alone = [adaptive_quad(f, a, b, **opts) for f, (a, b, opts) in zip(_FS, problems)]
    for got, want in zip(results, alone):
        assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
        assert (got.error_estimate, got.nodes) == (want.error_estimate, want.nodes)
        assert got.cumulative.tobytes() == want.cumulative.tobytes()
        assert [(lo, hi) for lo, hi, _ in got.panels] == [(lo, hi) for lo, hi, _ in want.panels]
    # one call per round: as many as the problem with the most rounds needs
    assert len(calls) == max(sum(1 for c in calls if c[i]) for i in range(4)) > 1
    assert [sum(c[i] for c in calls) for i in range(4)] == [r.nodes for r in alone]


def _fails_late(x):
    # meets no tolerance: bisected round after round until the node cap
    return np.exp(1j * 11.0 * x) / (1.0 + x * x)


def _fails_at_once(x):
    return np.full(x.shape, np.nan + 0j)


@earliest_failure
def _quads(stack):
    """A stack stage on `_lockstep_quad`: (integrand, problem) pairs in, results out."""
    return _lockstep_quad(_integrand([f for f, _ in stack]), [p for _, p in stack])


def _alone(item):
    f, (a, b, opts) = item
    return lambda: adaptive_quad(f, a, b, **opts)


@pytest.mark.parametrize("order", ["late-first", "early-first"])
def test_the_earliest_failure_in_stack_order_wins_whatever_its_round(order):
    late = (_fails_late, (0.0, 3.0, dict(abs_tol=1e-300, rel_tol=1e-300, node_cap=3000)))
    early = (_fails_at_once, (0.0, 1.0, {}))
    fine = (_FS[0], (0.0, 1.0, {}))
    stack = [fine, late, early] if order == "late-first" else [fine, early, late]
    alone = _outcome(_alone(stack[1]))
    assert alone[0] is QuadratureFailure
    assert _outcome(lambda: _quads(stack)) == alone
    # the runner alone raises the first failure a round meets: the early one
    assert _outcome(lambda: _quads.__wrapped__(stack)) == _outcome(_alone(early))


def test_a_failing_stack_runs_again_item_by_item_up_to_the_first_failure():
    calls = []

    @earliest_failure
    def stage(items):
        calls.append(list(items))
        if any(item < 0 for item in items):
            raise QuadratureFailure(f"item {min(items)}")
        return items

    assert stage([1, 2, 3]) == [1, 2, 3] and calls == [[1, 2, 3]]
    calls.clear()
    assert _outcome(lambda: stage([1, -1, 2, -2])) == _outcome(lambda: stage([-1]))
    assert calls == [[1, -1, 2, -2], [1], [-1], [-1]]
    calls.clear()
    assert _outcome(lambda: stage([-2])) == (QuadratureFailure, "item -2", None, "None")
    assert calls == [[-2]]


# -- contexts: every failure raises what it raises alone ----------------------

def _outcome(fn):
    """(type, message, nodes, error estimate's repr) of what fn() raises."""
    with pytest.raises(Exception) as caught:
        fn()
    exc = caught.value
    return type(exc), str(exc), getattr(exc, "nodes", None), repr(getattr(exc, "error_estimate", None))


_GRID = np.linspace(-1.0, 1.0, 9)
#: Failing contexts: gap <= 0, coincident transverse endpoints, a tabulated
#: profile whose grid misses phi_b (its RangeError raised by a round's
#: profile read), and a pass that meets no tolerance and fails at the node
#: cap many rounds in. dot(k, pL) = 0 forces gap <= 0, so it fails a
#: context's phase pass only (`_KP_ZERO`).
_FAILING = {
    "gap": _ctx(pL=np.array([0.0, 0.0, 0.2, 0.7])),
    "coincident": _ctx(x_b=np.array([0.1, -0.2, 0.9, 0.5]), cfg=FieldConfig(g=0.9, B=0.5)),
    "grid-miss": _ctx(x_a=np.array([0.1, -0.2, 0.3, 0.3]), x_b=np.array([0.6, 0.4, 1.001, 0.0]),
                      cfg=FieldConfig(g=0.9, B=0.5, profile=TabulatedProfile(
                          _GRID, np.exp(-_GRID ** 2), 0.0 * _GRID))),
    "node-cap": _ctx(abs_tol=1e-300, rel_tol=1e-300, x_b=np.array([0.6, 0.4, 4.0, -2.0])),
}
_EXPECTED = {"gap": QuadratureFailure, "coincident": QuadratureFailure,
             "grid-miss": RangeError, "node-cap": QuadratureFailure}


@pytest.mark.parametrize("name", _FAILING)
def test_a_failing_context_raises_in_a_stack_what_it_raises_alone(name):
    ctx = _FAILING[name]
    alone = _outcome(lambda: green_function(ctx))
    assert alone[0] is _EXPECTED[name]
    ok = _ctx(x_b=np.array([0.7, 0.1, 0.2, 0.4]))
    assert _outcome(lambda: _green_functions([ok, ctx, ok])) == alone
    assert _outcome(lambda: _dirac_applies([ok, ctx])) == _outcome(lambda: dirac_apply(ctx))


def test_nested_stages_replay_a_failing_stack_once(monkeypatch):
    # the pass of the node-cap context fails four stages deep: only the
    # outermost stage replays, so the passes run as the stack, then the
    # ok context alone, then the failing one alone
    runs = []
    real = kernels._stacked

    def counted(quad, f, problems):
        runs.append(len(problems))
        return real(quad, f, problems)

    monkeypatch.setattr(kernels, "_stacked", counted)
    ok = _ctx(x_b=np.array([0.7, 0.1, 0.2, 0.4]))
    assert _outcome(lambda: _dirac_applies([ok, _FAILING["node-cap"]]))[0] is QuadratureFailure
    assert runs == [2, 1, 1]


@pytest.mark.parametrize("first", _FAILING)
@pytest.mark.parametrize("second", _FAILING)
def test_of_two_failing_contexts_the_earlier_wins(first, second):
    # the node-cap context fails many rounds after the others do
    stack = [_FAILING[first], _FAILING[second]]
    assert _outcome(lambda: _green_functions(stack)) \
        == _outcome(lambda: green_function(_FAILING[first]))


def _request(ctx):
    return (ctx.cfg, ctx.pL, ctx.phi_a, ctx.phi_b, ctx.volkov_sign, ctx.abs_tol, ctx.rel_tol)


#: dot(k, pL) = 0 with a wave: the pass raises DivisionByZero before any round.
_KP_ZERO = _request(_ctx(pL=np.array([0.0, 0.0, 2.0, 2.0])))


@pytest.mark.parametrize("name", ["kp-zero", "grid-miss", "node-cap"])
def test_a_failing_pass_raises_in_a_stack_what_it_raises_alone(name):
    failing = _KP_ZERO if name == "kp-zero" else _request(_FAILING[name])
    alone = _outcome(lambda: phase_pass(*failing))
    assert alone[0] is {"kp-zero": DivisionByZero, "grid-miss": RangeError,
                        "node-cap": QuadratureFailure}[name]
    ok = _request(_ctx())
    assert _outcome(lambda: _phase_passes([ok, failing, ok])) == alone
    # before a context that fails in a later round, or fails before any
    for other in (_KP_ZERO, _request(_FAILING["grid-miss"]), _request(_FAILING["node-cap"])):
        assert _outcome(lambda: _phase_passes([failing, other])) == alone


def test_limits_exits_4_on_a_gap_below_threshold_before_any_oracle(tmp_path, monkeypatch):
    from wavefield import cli
    calls = []
    for name in ("zero_profile_green", "free_propagator", "free_kernel"):
        real = getattr(verification, name)
        monkeypatch.setattr(verification, name,
                            lambda *args, _real=real: calls.append(args) or _real(*args))
    config = tmp_path / "run.json"
    config.write_text('{"field": {"g": 0.9, "B": 0.5, "profile": "zero"}, "eval": {"m": 0.8, '
                      '"x_a": [0.1, -0.2, 0.3, 0.0], "x_b": [0.6, 0.4, -0.1, 0.5], '
                      '"pL": [0.0, 0.0, 0.2, 0.7]}}')
    assert cli.main(["limits", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 4
    assert calls == []


# -- contexts: every success keeps its bits ----------------------------------

@st.composite
def _profiles(draw):
    kind = draw(st.sampled_from(["zero", "linear", "circular", "pulse", "tabulated"]))
    amplitude, frequency = draw(st.floats(0.1, 1.0)), draw(st.floats(0.3, 2.0))
    if kind == "zero":
        return ZeroProfile()
    if kind == "linear":
        return LinearProfile(amplitude, frequency)
    if kind == "circular":
        return CircularProfile(amplitude, frequency)
    if kind == "pulse":
        return PulseProfile(amplitude, frequency, draw(st.floats(0.5, 2.0)))
    grid = np.linspace(-12.0, 12.0, draw(st.integers(5, 30)))
    samples = st.lists(st.floats(-0.6, 0.6), min_size=grid.size, max_size=grid.size)
    return TabulatedProfile(grid, draw(samples), draw(samples))


@st.composite
def _stack_contexts(draw):
    """An admissible context (all five profile kinds, B > 0, < 0 or 0, theta
    in (0, pi/2], varied tolerances) and 1 to 3 far endpoints, each at least
    0.3 from x_a in the transverse plane."""
    profile = draw(_profiles())
    B = draw(st.sampled_from([0.0, 1.0, -1.0])) * draw(st.floats(0.2, 1.2))
    m = draw(st.floats(0.3, 1.0))
    p2 = draw(st.floats(-0.4, 0.4))
    p3 = draw(st.floats(1.3, 2.5)) * draw(st.sampled_from([1.0, -1.0]))
    coordinate = st.floats(-1.0, 1.0)
    x_a = np.array([draw(coordinate) for _ in range(4)])
    points = np.array([[draw(coordinate) for _ in range(4)]
                       for _ in range(draw(st.integers(1, 3)))])
    assume(np.all(np.hypot(*(points[:, :2] - x_a[:2]).T) >= 0.3))
    ctx = EvalContext(m=m, x_a=x_a, x_b=points[0], pL=np.array([0.0, 0.0, p2, p3]),
                      cfg=FieldConfig(g=draw(st.floats(0.5, 1.5)), B=B, profile=profile),
                      theta=draw(st.floats(0.05, np.pi / 2.0)),
                      abs_tol=10.0 ** draw(st.floats(-12.0, -6.0)),
                      rel_tol=10.0 ** draw(st.floats(-10.0, -5.0)),
                      volkov_sign=draw(st.sampled_from([1, -1])))
    return ctx, points


def _same_pass(got, want):
    assert (got.nodes, got.error_estimate) == (want.nodes, want.error_estimate)
    for field in ("action", "drift", "kernel_b"):
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()


@settings(max_examples=25, **_SETTINGS)
@given(st.lists(_stack_contexts(), min_size=1, max_size=4))
def test_a_stack_of_contexts_has_the_bits_of_each_context_alone(stack):
    # the passes (with each context's phases also as K's one pass per phase),
    # then G with its diagnostics
    requests = [(ctx.cfg, ctx.pL, ctx.phi_a, light_cone(points), ctx.volkov_sign, ctx.abs_tol,
                 ctx.rel_tol) for ctx, points in stack]
    requests += [(*request[:3], phi, *request[4:]) for request in requests[:2]
                 for phi in request[3].tolist()]
    for got, request in zip(_phase_passes(requests), requests):
        _same_pass(got, phase_pass(*request))
    batches = green._green_batch(stack)
    for (matrices, diag), item in zip(batches, stack):
        [(alone, alone_diag)] = green._green_batch([item])
        assert matrices.tobytes() == alone.tobytes()
        assert diag == alone_diag


def test_k_rows_of_a_pulse_are_one_pass_per_phase():
    # K's table is one stack: each row keeps its own pass's nodes and error
    ctx = _ctx(cfg=replace(WCFG, profile=PulseProfile(0.5, 1.3, sigma=1.5)), volkov_sign=-1)
    phis = [-4.0, -0.5, 0.25, 0.2500000000000001, 3.0, 7.5]
    runs = _phase_passes([(ctx.cfg, ctx.pL, ctx.phi_a, phi, -1, 1e-11, 1e-9) for phi in phis])
    for run, phi in zip(runs, phis):
        _same_pass(run, phase_pass(ctx.cfg, ctx.pL, ctx.phi_a, phi, sign=-1, abs_tol=1e-11,
                                   rel_tol=1e-9))
    assert len({run.nodes for run in runs}) > 1


# -- the guards ----------------------------------------------------------------

def test_every_stack_stage_carries_the_one_failure_order():
    # the stages keep no failure bookkeeping of their own: each is wrapped by
    # `earliest_failure`, and the (results, failure) protocol's `settled` is gone
    helper = earliest_failure(list).__code__
    for stage in (kernels._phase_passes, green._prepare, green._green_batch, green._dirac_applies):
        assert stage.__code__ is helper
        assert stage.__wrapped__.__name__ == stage.__name__
    assert not hasattr(quadrature, "settled")



def test_criterion_7_runs_its_phase_passes_as_two_lockstep_stacks(monkeypatch):
    # the 51 passes of the closed-form and zero-profile rows are one stack and
    # the 10 of the dressed braces another, each meeting its tolerances in its
    # seeded round: one integrand call each. One pass per draw made at least
    # 61 calls, one per pass and round
    calls = []
    real = kernels._stacked

    def counted(quad, f, problems):
        def integrand(x, counts):
            calls.append(len(problems))
            return f(x, counts)
        return real(quad, integrand, problems)

    monkeypatch.setattr(kernels, "_stacked", counted)
    assert all(r.passed for r in verification.check_phase_integral_oracles())
    assert calls == [51, 10]


# -- spin_factor --------------------------------------------------------------

@pytest.mark.parametrize("e0", [400j, -400j, np.array([0.5, 400j]), np.array([-400j, 1.0])],
                         ids=["plus", "minus", "array-plus", "array-minus"])
def test_spin_factor_refuses_an_e0_whose_turn_overflows(e0):
    # w = e0 g B / 2 is finite, but exp(+-i w) is not: a RangeError, not an
    # overflow warning and infinite braces
    ctx = _ctx(cfg=FieldConfig(g=0.9, B=5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"exp\(\+-i w\)"):
            green.spin_factor(e0, ctx)
