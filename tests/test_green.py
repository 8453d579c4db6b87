import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from wavefield import green, kernels, minkowski, verification
from wavefield.errors import QuadratureFailure, RangeError, StepCalibrationFailure
from wavefield.fields import (CircularProfile, FieldConfig, LinearProfile, PlaneWaveProfile,
                              PulseProfile, TabulatedProfile, ZeroProfile)
from wavefield.green import (EvalContext, dirac_apply, green_function, spin_factor,
                             total_potential_lowered)
from wavefield.kernels import PhasePass, _phase_passes, phase_pass
from wavefield.minkowski import GAMMA, IDENTITY4, P_MINUS, P_PLUS, dot
from wavefield.oracles import dressed_braces
from wavefield.quadrature import adaptive_quad

XA = np.array([0.1, -0.2, 0.3, 0.0])
XB = np.array([0.6, 0.4, -0.1, 0.5])
PL = np.array([0.0, 0.0, 0.2, 2.0])
ZCFG = FieldConfig(g=1.0, B=0.6, profile=ZeroProfile())
WCFG = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))


def _ctx(cfg=ZCFG, **kw):
    base = dict(m=0.8, x_a=XA, x_b=XB, pL=PL, cfg=cfg)
    base.update(kw)
    return EvalContext(**base)


def test_context_validation():
    with pytest.raises(RangeError):
        _ctx(theta=0.0)
    with pytest.raises(RangeError):
        _ctx(theta=np.pi / 2.0 + 1e-9)
    assert _ctx(theta=np.pi / 2.0).theta == np.pi / 2.0     # the Euclidean axis
    with pytest.raises(RangeError):
        _ctx(pL=np.array([0.1, 0.0, 0.2, 2.0]))
    with pytest.raises(RangeError):
        _ctx(volkov_sign=0)
    # non-finite inputs and non-positive tolerances are out of range too,
    # not a quadrature failure after the whole node budget
    nan_b = XB.copy()
    nan_b[1] = np.nan
    for bad in (dict(m=np.nan), dict(m=np.inf), dict(x_a=np.full(4, np.inf)), dict(x_b=nan_b),
                dict(pL=np.array([0.0, 0.0, np.nan, 2.0])), dict(theta=np.nan),
                dict(abs_tol=0.0, rel_tol=0.0), dict(abs_tol=-1.0), dict(rel_tol=np.nan)):
        with pytest.raises(RangeError):
            _ctx(**bad)


@pytest.mark.parametrize("bad", [
    dict(m="0.8"), dict(m=True), dict(volkov_sign=True), dict(volkov_sign=1.0),
    dict(x_a=XA[:2]), dict(x_b=np.append(XB, 0.0)), dict(rel_tol=np.inf), dict(cfg=None),
    dict(x_a=[0.1, True, 0.3, 0.0]), dict(m=2 ** 70),
], ids=["text-m", "boolean-m", "boolean-volkov-sign", "float-volkov-sign", "x_a-of-length-2",
        "x_b-of-length-5", "infinite-rel-tol", "no-cfg", "boolean-in-x_a", "m-beyond-64-bits"])
def test_context_rejects_inputs_that_are_not_its_numbers(bad):
    # past the constructor, green_function would fail with a broadcast or
    # reshape ValueError, or at rel_tol = inf stop after a few ray nodes
    with pytest.raises(RangeError):
        _ctx(**bad)


def test_a_mass_too_large_to_square_is_outside_the_ray_domain():
    # m**2 overflows to inf: a QuadratureFailure (exit 4), not an OverflowError
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(QuadratureFailure):
        green_function(_ctx(m=1e300))


def test_ray_domain_checks():
    with pytest.raises(QuadratureFailure):
        green_function(_ctx(pL=np.array([0.0, 0.0, 0.0, 1.0]), m=2.0))
    same_t = XA.copy()
    same_t[2:] = (1.0, 0.7)
    with pytest.raises(QuadratureFailure):
        green_function(_ctx(x_b=same_t))


def test_mass_gap_is_checked_before_the_phase_pass(monkeypatch):
    # gap = 0.04 - 0.49 - 0.64 < 0 at the README field: no pass is made
    passes = []

    def counted(requests):
        passes.extend(requests)
        return _phase_passes(requests)

    monkeypatch.setattr(green, "_phase_passes", counted)
    ctx = _ctx(cfg=WCFG, pL=np.array([0.0, 0.0, 0.2, 0.7]))
    assert ctx.mass_gap <= 0.0
    with pytest.raises(QuadratureFailure, match="gap"):
        green_function(ctx)
    # dot(pL, pL) overflows: inf - inf is a nan gap, inf - 0.04 an infinite one
    for pL, gap in (([0.0, 0.0, 1e200, 2e200], "nan"), ([0.0, 0.0, 0.2, 1e200], "inf")):
        with pytest.warns(RuntimeWarning, match="overflow|invalid"), \
                pytest.raises(QuadratureFailure, match=f"gap {gap}"):
            green_function(_ctx(cfg=WCFG, pL=np.array(pL)))
    assert passes == []


def test_zero_profile_spin_factor_is_bare_projectors():
    ctx = _ctx()
    e0 = 0.7 + 0.2j
    w = e0 * ZCFG.g * ZCFG.B / 2.0
    expected = np.exp(1j * w) * P_PLUS + np.exp(-1j * w) * P_MINUS
    assert np.array_equal(spin_factor(e0, ctx), expected)
    dressed = spin_factor(e0, _ctx(cfg=WCFG))
    assert not np.allclose(dressed, expected, atol=1e-6)


def test_spin_factor_over_an_array_of_nodes():
    ctx = _ctx(cfg=WCFG)
    nodes = np.array([0.3, 0.7 + 0.2j, 2.0j])
    stacked = spin_factor(nodes, ctx)
    assert stacked.shape == (3, 4, 4)
    for e0, factor in zip(nodes, stacked):
        np.testing.assert_allclose(factor, spin_factor(e0, ctx), rtol=1e-15, atol=1e-15)


def test_zero_k_limit_ignores_the_profile():
    # `limits` and criterion 8 set the profile to zero themselves
    assert verification.zero_profile_limit([_ctx(cfg=WCFG)]) \
        == verification.zero_profile_limit([_ctx(cfg=FieldConfig(g=WCFG.g, B=WCFG.B))])


def test_zero_profile_routes_are_identical(monkeypatch):
    # the matrix behind the zero-profile row is `green_function` on the
    # context with ZeroProfile(), bit for bit
    seen = []

    def recorded(ctx):
        seen.append((ctx, green_function(ctx)))
        return seen[-1][1]

    monkeypatch.setattr(verification, "_green_functions",
                        lambda contexts: [recorded(ctx) for ctx in contexts])
    verification.zero_profile_limit([_ctx(cfg=WCFG)])
    [(ctx, value)] = seen
    expected = green_function(_ctx(cfg=replace(WCFG, profile=ZeroProfile())))
    assert ctx.cfg.profile.is_zero
    assert np.array_equal(value.matrix, expected.matrix)


def test_longitudinal_translation_covariance():
    base = green_function(_ctx(cfg=ZCFG))
    delta = np.array([0.0, 0.0, 0.7, -0.3])
    shifted = green_function(_ctx(cfg=ZCFG, x_b=XB + delta))
    factor = np.exp(1j * dot(PL, delta))
    np.testing.assert_allclose(shifted.matrix, factor * base.matrix,
                               rtol=1e-7, atol=1e-14)


def test_contour_angle_invariance():
    ctx_a, ctx_b = _ctx(cfg=WCFG, theta=np.pi / 4.0), _ctx(cfg=WCFG, theta=np.pi / 3.0)
    a, b = green_function(ctx_a), green_function(ctx_b)
    scale = np.linalg.norm(a.matrix)
    assert np.linalg.norm(a.matrix - b.matrix) < 1e-6 * scale
    assert ctx_a.theta == pytest.approx(np.pi / 4.0)
    assert ctx_b.theta == pytest.approx(np.pi / 3.0)


def test_diagnostics_on_plain_ray():
    value = green_function(_ctx(cfg=WCFG))
    assert value.diagnostics.nodes > 0
    assert value.diagnostics.error_estimate < 1e-6


def test_sign_toggle_matters_only_with_a_profile():
    plus = green_function(_ctx(cfg=WCFG, volkov_sign=+1)).matrix
    minus = green_function(_ctx(cfg=WCFG, volkov_sign=-1)).matrix
    assert np.linalg.norm(plus - minus) > 1e-6 * np.linalg.norm(plus)
    assert np.array_equal(green_function(_ctx(volkov_sign=+1)).matrix,
                          green_function(_ctx(volkov_sign=-1)).matrix)


def _batch_of(values):
    """A `_green_batch` stand-in that returns values(points) at the far endpoints."""
    return lambda items: [(values(points), None) for _, points in items]


def test_dirac_step_calibration_guard(monkeypatch):
    def kinked(points):
        t = points[:, 0] - XB[0]
        return (t * t * np.sign(t))[:, None, None] * IDENTITY4

    monkeypatch.setattr(green, "_green_batch", _batch_of(kinked))
    with pytest.raises(StepCalibrationFailure):
        dirac_apply(_ctx())


def test_dirac_step_calibration_names_the_first_failing_direction(monkeypatch):
    # smooth along x0 and x1, kinked along x2 and x3: direction 2 fails first
    def kinked(points):
        t = points[:, 2:] - XB[2:]
        kinks = (t * t * np.sign(t)).sum(axis=1)
        return (np.exp(points[:, :2] @ [0.3, -0.2]) * (1.0 + kinks))[:, None, None] * IDENTITY4

    monkeypatch.setattr(green, "_green_batch", _batch_of(kinked))
    with pytest.raises(StepCalibrationFailure, match="^direction 2:"):
        dirac_apply(_ctx())


def test_dirac_assembly_on_smooth_evaluator(monkeypatch):
    ctx = _ctx(cfg=WCFG)
    c = np.array([0.3, -0.2, 0.1, -0.1])

    def smooth(points):
        return np.exp(points @ c)[:, None, None] * IDENTITY4

    monkeypatch.setattr(green, "_green_batch", _batch_of(smooth))
    out = dirac_apply(ctx)
    f = smooth(XB[None])[0]
    a_low = total_potential_lowered(ctx, XB)
    expected = ctx.m * f + sum(1j * GAMMA[mu] @ ((c[mu] - WCFG.g * a_low[mu]) * f)
                               for mu in range(4))
    np.testing.assert_allclose(out, expected, rtol=1e-8, atol=1e-12)


def test_diagnostics_count_the_phase_pass():
    value = green_function(_ctx(cfg=WCFG))
    diag = value.diagnostics
    assert diag.prepare_nodes > 0 and 0.0 < diag.prepare_error < 1e-11
    bare = green_function(_ctx(cfg=FieldConfig(g=1.0, B=0.0))).diagnostics
    assert bare.prepare_nodes == 0 and bare.prepare_error == 0.0


class _PotentialOnly(PlaneWaveProfile):
    """A profile that gives its two components and nothing more."""

    def components(self, phi):
        return 0.4 * np.cos(1.1 * phi), 0.4 * np.sin(1.1 * phi)


def test_a_profile_is_its_two_components():
    # the phase pass integrates K by parts: no slope of A^p is ever asked for
    cfg = FieldConfig(g=WCFG.g, B=WCFG.B, profile=_PotentialOnly())
    run, ref = phase_pass(cfg, PL, 0.3, -0.6), phase_pass(WCFG, PL, 0.3, -0.6)
    assert run.kernel_b == ref.kernel_b and run.action == ref.action
    assert np.array_equal(green_function(_ctx(cfg=cfg)).matrix, green_function(_ctx(cfg=WCFG)).matrix)


def test_tabulated_endpoint_just_past_the_grid_raises():
    # phi_a = 0 and phi_b = 1.001 on a grid over [-1, 1]: every quadrature node
    # lies inside the grid, but K's boundary term reads the profile at phi_b
    grid = np.linspace(-1.0, 1.0, 9)
    cfg = FieldConfig(g=0.9, B=0.5, profile=TabulatedProfile(grid, np.exp(-grid ** 2), 0.0 * grid))
    x_a = np.array([0.1, -0.2, 0.3, 0.3])
    green_function(_ctx(cfg=cfg, x_a=x_a, x_b=np.array([0.6, 0.4, 1.0, 0.0])))
    with pytest.raises(RangeError, match=r"\[-1\.0, 1\.0\]"):
        green_function(_ctx(cfg=cfg, x_a=x_a, x_b=np.array([0.6, 0.4, 1.001, 0.0])))


def test_ray_weight_is_the_norm_of_each_brace(monkeypatch):
    # M+- = P+- - K^(*) D+- is the printed (1 - kslash epsslash^(*) K^(*)) P+-, P+-
    # and D+- are orthogonal with one norm for both signs, so one weight is the norm
    # of each brace; M+ fills columns 0 and 2 and M- columns 1 and 3, so the ray's
    # weighted pair w (I+, I-) has the Frobenius norm of G
    for projector, brace in ((P_PLUS, green.D_PLUS), (P_MINUS, green.D_MINUS)):
        assert np.vdot(projector, brace) == 0.0
    assert np.linalg.norm(P_PLUS) == np.linalg.norm(P_MINUS)
    assert np.linalg.norm(green.D_PLUS) == np.linalg.norm(green.D_MINUS)
    rng = np.random.default_rng(20)
    kernel = np.append(rng.uniform(0.0, 10.0, 40) * np.exp(2j * np.pi * rng.uniform(size=40)), 0.0)
    run = PhasePass(np.zeros(41), np.zeros((41, 2)), kernel, 0, 0.0)
    monkeypatch.setattr(green, "_phase_passes", lambda requests: [run])
    pre = green._prepare([(_ctx(cfg=WCFG), np.tile(XB, (41, 1)))])[0]
    assert pre.weight.shape == (41,)
    assert not np.any(pre.plus[:, :, [1, 3]]) and not np.any(pre.minus[:, :, [0, 2]])
    pairs = rng.normal(size=(41, 2)) + 1j * rng.normal(size=(41, 2))
    for i_pair, k, plus, minus, weight in zip(pairs, kernel, pre.plus, pre.minus, pre.weight):
        printed_plus, printed_minus = dressed_braces(k)
        assert np.abs(plus - printed_plus).max() <= 1e-15 * (1.0 + abs(k))
        assert np.abs(minus - printed_minus).max() <= 1e-15 * (1.0 + abs(k))
        assert weight == pytest.approx(np.linalg.norm(plus), rel=1e-15)
        assert weight == pytest.approx(np.linalg.norm(minus), rel=1e-15)
        g = i_pair[0] * plus + i_pair[1] * minus
        assert np.linalg.norm(weight * i_pair) == pytest.approx(np.linalg.norm(g), rel=1e-14)


def _per_point(batch):
    """The per-point route: one ray per far endpoint, as `green_function`
    integrates it, from the unpatched `batch`."""
    def evaluate(items):
        return [(np.stack([batch([(replace(ctx, x_b=x), x)])[0][0][0] for x in points]), None)
                for ctx, points in items]
    return evaluate


@pytest.mark.parametrize("cfg, x_b", [
    (WCFG, XB),
    (FieldConfig(g=0.9, B=0.5, profile=PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5)),
     np.array([0.6, 0.4, -0.1, 5.4])),
])
def test_dirac_shared_ray_matches_the_per_point_route(monkeypatch, cfg, x_b):
    ctx = _ctx(cfg=cfg, x_b=x_b)
    shared = dirac_apply(ctx)
    monkeypatch.setattr(green, "_green_batch", _per_point(green._green_batch))
    per_point = dirac_apply(ctx)
    bound = max(ctx.abs_tol, ctx.rel_tol * np.linalg.norm(per_point))
    assert np.linalg.norm(shared - per_point) <= bound


def _count_dirac_work(monkeypatch):
    # counts the ray integrations, the phase passes (by the shape of phi_b, its
    # number of distinct phases and its nodes) and any per-point green_function calls
    calls, distinct, nodes = {}, [], []

    def ray(*args, **kwargs):
        calls["ray"] += 1
        return adaptive_quad(*args, **kwargs)

    def passes(requests):
        runs = _phase_passes(requests)
        for (_, _, _, phi_b, *_), run in zip(requests, runs):
            calls["pass"].append(np.shape(phi_b))
            distinct.append(len(set(phi_b.tolist())))
            nodes.append(run.nodes)
        return runs

    def no_gf(ctx):
        calls["gf"] += 1
        return green_function(ctx)

    monkeypatch.setattr(green, "adaptive_quad", ray)
    monkeypatch.setattr(green, "_phase_passes", passes)
    monkeypatch.setattr(green, "green_function", no_gf)

    def run(x_b):
        calls.update({"ray": 0, "pass": [], "gf": 0})
        dirac_apply(_ctx(cfg=WCFG, x_b=x_b))
        return calls

    return run, distinct, nodes


def test_dirac_integrates_one_ray_with_one_phase_pass_per_phi_b(monkeypatch):
    # every phi_b of the 25-point stencil is read from the same single pass;
    # the stencil has 7 phases (phi_b and 6 offsets)
    run, distinct, _ = _count_dirac_work(monkeypatch)
    assert run(XB) == {"ray": 1, "pass": [(25,)], "gf": 0}
    assert distinct == [7]


def test_dirac_runs_one_phase_pass_per_stencil_phase(monkeypatch):
    # jittered README points: (x2 + h) - x3 and x2 - (x3 - h) round apart at
    # some of them, yet one pass still serves all 25 points, and phases one
    # rounding apart share a breakpoint, so no pass pays for an extra panel
    run, distinct, nodes = _count_dirac_work(monkeypatch)
    rng = np.random.default_rng(8)
    for _ in range(6):
        x_b = np.round(XB + rng.uniform(-0.2, 0.2, 4) * [1.0, 1.0, 0.25, 0.25], 6)
        assert run(x_b) == {"ray": 1, "pass": [(25,)], "gf": 0}
    # 7 phases in exact arithmetic; rounding splits some of them
    assert min(distinct) == 7 and max(distinct) > 7
    assert len(set(nodes)) == 1, nodes


def _circular_point():
    cfg = FieldConfig(g=0.9, B=0.6, profile=CircularProfile(amplitude=0.3, frequency=1.0))
    return _ctx(cfg=cfg, x_a=np.array([0.1, -0.2, 0.3, 0.05]), x_b=np.array([0.7, 0.4, 0.9, 0.2]),
                pL=np.array([0.0, 0.0, 0.3, 1.6]))


def _python_calls(fn, functions):
    """How often fn() calls each of `functions`, counted by sys.setprofile."""
    counts = dict.fromkeys((f.__code__ for f in functions), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return list(counts.values())


def test_green_function_pays_no_metric_sum_and_one_pass_record():
    # the fixed costs of a gf, counted rather than timed: the context's scalars,
    # the phases and i pL.dx^L come from the slots (dirac's A_mu too), and the
    # pass builds its record once
    ctx = _circular_point()
    assert _python_calls(lambda: green_function(ctx), [minkowski.dot]) == [0]
    assert _python_calls(lambda: dirac_apply(ctx), [minkowski.dot]) == [0]
    assert _python_calls(lambda: phase_pass(ctx.cfg, ctx.pL, ctx.phi_a, ctx.phi_b),
                         [PhasePass.__init__]) == [1]


def test_ray_takes_one_exponential_per_node_and_point(monkeypatch):
    # counted rather than timed: in one dirac, each ray round takes one exp over
    # its (nodes, 25) block, the kernel's Gaussian and the longitudinal phase
    # together, and exp(constant) is taken once per point, after the ray
    rounds, shapes = [], []
    exp = np.exp

    def counted_exp(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return exp(x, *args, **kwargs)

    def ray(f, *args, **kwargs):
        def integrand(u):
            rounds.append(len(u))
            return f(u)
        return adaptive_quad(integrand, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted_exp)
    monkeypatch.setattr(green, "adaptive_quad", ray)
    dirac_apply(_circular_point())
    assert [shape for shape in shapes if len(shape) == 2 and shape[1] == 25] \
        == [(nodes, 25) for nodes in rounds]
    assert shapes.count((25,)) == 1


def test_the_action_phase_multiplies_g_after_the_ray(monkeypatch):
    # a pure phase theta added to every point's constant exponent multiplies G by
    # exp(i theta) and leaves the ray's stopping rule, and so its nodes and
    # error estimate, bit for bit as they were
    ctx = _circular_point()
    points = ctx.x_b + np.linspace(-0.2, 0.2, 5)[:, None]
    plain, plain_diag = green._green_batch([(ctx, points)])[0]
    prepare, theta = green._prepare, 0.7

    def shifted(items):
        return [replace(pre, constant=pre.constant + 1j * theta) for pre in prepare(items)]

    monkeypatch.setattr(green, "_prepare", shifted)
    turned, turned_diag = green._green_batch([(ctx, points)])[0]
    assert (turned_diag.nodes, turned_diag.error_estimate) \
        == (plain_diag.nodes, plain_diag.error_estimate)
    for g_turned, g_plain in zip(turned, plain):
        assert np.linalg.norm(g_turned - np.exp(1j * theta) * g_plain) \
            <= 1e-15 * np.linalg.norm(g_plain)


def test_ray_and_phase_pass_call_their_integrands_once_per_round(monkeypatch):
    # counted by wrapping each integrand; a circular point whose ray evaluates
    # 8 panels in 2 rounds (its 6 seeded panels, then one bisected): a return to
    # one call per panel would make 8 ray calls, and 7 pass calls for dirac's 7
    # breakpoint panels
    calls = {"ray": 0, "pass": 0}

    def counted(name):
        def quad(f, *args, **kwargs):
            def integrand(x):
                calls[name] += 1
                return f(x)
            return adaptive_quad(integrand, *args, **kwargs)
        return quad

    monkeypatch.setattr(green, "adaptive_quad", counted("ray"))
    monkeypatch.setattr(kernels, "adaptive_quad", counted("pass"))
    ctx = _circular_point()
    green_function(ctx)
    assert calls["ray"] <= 2 and calls["pass"] == 1
    calls.update({"ray": 0, "pass": 0})
    dirac_apply(ctx)
    assert calls["ray"] <= 2 and calls["pass"] == 1


def _seeded_ray_contexts():
    """48 admissible contexts, 6 per profile kind and sign of B, drawn from one
    seeded generator as `verify` draws its own (gap 1.1 to 6.0, transverse
    endpoints at least 0.3 apart)."""
    rng = random.Random(35)
    grid = np.linspace(-2.0, 2.0, 17)
    kinds = (lambda: CircularProfile(rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5)),
             lambda: LinearProfile(rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5)),
             lambda: PulseProfile(rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5),
                                  sigma=rng.uniform(0.5, 2.0)),
             lambda: TabulatedProfile(grid, [rng.uniform(-0.5, 0.5) for _ in grid],
                                      [rng.uniform(-0.5, 0.5) for _ in grid]))
    return [verification._random_context(rng, FieldConfig(
                g=rng.uniform(0.5, 1.5), B=sign * rng.uniform(0.2, 1.0), profile=make()))
            for make in kinds for sign in (1.0, -1.0) for _ in range(6)]


def test_most_seeded_rays_end_in_their_first_round(monkeypatch):
    # the ray's integrand calls, counted by wrapping it, are its rounds: cut at
    # RAY_SEEDS, 25 of these 48 rays meet the tolerances in the seeded round and
    # the rays take 111.9 nodes on average
    rounds = []

    def counted(f, *args, **kwargs):
        rounds.append(0)

        def integrand(x):
            rounds[-1] += 1
            return f(x)
        return adaptive_quad(integrand, *args, **kwargs)

    monkeypatch.setattr(green, "adaptive_quad", counted)
    nodes = [green_function(ctx).diagnostics.nodes for ctx in _seeded_ray_contexts()]
    assert len(rounds) == len(nodes) == 48
    assert rounds.count(1) >= 25
    assert sum(nodes) <= 48 * 111.875
