from dataclasses import replace

import numpy as np
import pytest

from wavefield import green
from wavefield.errors import QuadratureFailure, RangeError, StepCalibrationFailure
from wavefield.fields import CircularProfile, FieldConfig, LinearProfile, PulseProfile, ZeroProfile
from wavefield.green import (EvalContext, dirac_apply, green_function, green_function_zero_k,
                             spin_factor, total_potential_lowered)
from wavefield.kernels import phase_pass
from wavefield.minkowski import GAMMA, IDENTITY4, P_MINUS, P_PLUS, dot
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
], ids=["text-m", "boolean-m", "boolean-volkov-sign", "float-volkov-sign", "x_a-of-length-2",
        "x_b-of-length-5", "infinite-rel-tol", "no-cfg"])
def test_context_rejects_inputs_that_are_not_its_numbers(bad):
    # past the constructor, green_function would fail with a broadcast or
    # reshape ValueError, or at rel_tol = inf stop after a few ray nodes
    with pytest.raises(RangeError):
        _ctx(**bad)


def test_ray_domain_checks():
    with pytest.raises(QuadratureFailure):
        green_function(_ctx(pL=np.array([0.0, 0.0, 0.0, 1.0]), m=2.0))
    same_t = XA.copy()
    same_t[2:] = (1.0, 0.7)
    with pytest.raises(QuadratureFailure):
        green_function(_ctx(x_b=same_t))
    with pytest.raises(QuadratureFailure):
        green_function_zero_k(_ctx(x_b=same_t))


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
    assert np.array_equal(green_function_zero_k(_ctx(cfg=WCFG)).matrix,
                          green_function(_ctx(cfg=FieldConfig(g=WCFG.g, B=WCFG.B))).matrix)


def test_zero_profile_routes_are_identical():
    full = green_function(_ctx())
    direct = green_function_zero_k(_ctx())
    assert np.array_equal(full.matrix, direct.matrix)


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


@pytest.mark.parametrize("profile", [
    CircularProfile(amplitude=0.4, frequency=1.1),
    PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5),
    LinearProfile(amplitude=0.4, frequency=1.1),
], ids=["circular", "pulse", "linear"])
def test_phase_origin_drops_out_without_a_constant_field(profile):
    # at B = 0, I+ = I- and M+ + M- = 1 - (K_b - K_a) k.eps* - conj(K_b - K_a) k.eps,
    # so moving phi0 (which shifts K_a and K_b alike) leaves G unchanged;
    # conjugating the wrong end of a brace breaks this by several percent
    values = [green_function(_ctx(cfg=FieldConfig(g=0.9, B=0.0, profile=profile, phi0=phi0)))
              .matrix for phi0 in (0.0, -1.3, 2.1)]
    for value in values[1:]:
        assert np.linalg.norm(value - values[0]) <= 1e-13 * np.linalg.norm(values[0])


def test_dirac_step_calibration_guard():
    ctx = _ctx()

    def kinked(points):
        t = points[:, 0] - XB[0]
        return (t * t * np.sign(t))[:, None, None] * IDENTITY4

    with pytest.raises(StepCalibrationFailure):
        dirac_apply(ctx, evaluator=kinked)


def test_dirac_assembly_on_smooth_evaluator():
    ctx = _ctx(cfg=WCFG)
    c = np.array([0.3, -0.2, 0.1, -0.1])

    def smooth(points):
        return np.exp(points @ c)[:, None, None] * IDENTITY4

    out = dirac_apply(ctx, evaluator=smooth)
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


def _per_point(ctx):
    """The per-point route: one green_function call per far endpoint."""
    def evaluate(points):
        return np.stack([green_function(replace(ctx, x_b=x)).matrix for x in points])
    return evaluate


@pytest.mark.parametrize("cfg, x_b", [
    (WCFG, XB),
    (FieldConfig(g=0.9, B=0.5, profile=PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5)),
     np.array([0.6, 0.4, -0.1, 5.4])),
])
def test_dirac_shared_ray_matches_the_per_point_route(cfg, x_b):
    ctx = _ctx(cfg=cfg, x_b=x_b)
    shared = dirac_apply(ctx)
    per_point = dirac_apply(ctx, evaluator=_per_point(ctx))
    bound = max(ctx.abs_tol, ctx.rel_tol * np.linalg.norm(per_point))
    assert np.linalg.norm(shared - per_point) <= bound


def test_dirac_integrates_one_ray_with_one_phase_pass_per_phi_b(monkeypatch):
    calls = {"ray": 0, "pass": [], "gf": 0}

    def ray(*args, **kwargs):
        calls["ray"] += 1
        return adaptive_quad(*args, **kwargs)

    def one_pass(cfg, pL, phi_a, phi_b, phi0, **kwargs):
        calls["pass"].append(phi_b)
        return phase_pass(cfg, pL, phi_a, phi_b, phi0, **kwargs)

    def no_gf(ctx):
        calls["gf"] += 1
        return green_function(ctx)

    monkeypatch.setattr(green, "adaptive_quad", ray)
    monkeypatch.setattr(green, "phase_pass", one_pass)
    monkeypatch.setattr(green, "green_function", no_gf)
    dirac_apply(_ctx(cfg=WCFG))
    assert calls["ray"] == 1
    assert calls["gf"] == 0
    # shifts in x0 and x1 keep phi_b; x2 and x3 shifts give the same 6 offsets
    assert len(calls["pass"]) == len(set(calls["pass"])) <= 13


def test_dirac_runs_one_phase_pass_per_stencil_phase(monkeypatch):
    # jittered README points: (x2 + h) - x3 and x2 - (x3 - h) round apart at some
    # of them, yet the stencil has 7 distinct phases (phi_b and 6 offsets)
    phases = []

    def one_pass(cfg, pL, phi_a, phi_b, phi0, **kwargs):
        phases.append(phi_b)
        return phase_pass(cfg, pL, phi_a, phi_b, phi0, **kwargs)

    monkeypatch.setattr(green, "phase_pass", one_pass)
    rng = np.random.default_rng(8)
    for _ in range(6):
        phases.clear()
        x_b = np.round(XB + rng.uniform(-0.2, 0.2, 4) * [1.0, 1.0, 0.25, 0.25], 6)
        dirac_apply(_ctx(cfg=WCFG, x_b=x_b))
        assert len(phases) == 7
