import ast
import math
import random
import warnings
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefield.errors import QuadratureFailure, SingularForm
from wavefield.fields import (CircularProfile, FieldConfig, LinearProfile, PulseProfile,
                              TabulatedProfile, ZeroProfile)
from wavefield.green import EvalContext, green_function
from wavefield.minkowski import IDENTITY4, METRIC, P_MINUS, P_PLUS
from wavefield import oracles
from wavefield.oracles import (_DE_LEVELS, _euclidean_axis, _exp_sinh, _interior_spectrum, _k0,
                               _tanh_sinh, carrier_kernel, cross_phase_closed, cross_phase_nested,
                               drift_nested, free_kernel,
                               free_propagator, landau_green, richardson_extrapolate,
                               sliced_kernel, zero_profile_gradient,
                               zero_profile_green)
from wavefield.verification import _random_point, _ray_kernel

XA = (0.2, -0.1)
XB = (0.9, 0.4)


def test_sliced_free_field_composes_exactly():
    # B = 0: every refinement telescopes back to the one-step free kernel
    e0 = 0.8 * np.exp(1j * np.pi / 4)
    ref = free_kernel(e0, XA, XB)
    for n in (2, 3, 8):
        assert sliced_kernel(n, e0, 1.0, 0.0, XA, XB) == pytest.approx(ref, rel=1e-10)


def test_sliced_kernel_converges_to_magnetic_kernel():
    e0 = 0.7 * np.exp(1j * np.pi / 4)
    target = _ray_kernel(e0, 0.6, XA, XB)
    ns = [8, 16, 32]
    vals = [sliced_kernel(n, e0, 1.0, 0.6, XA, XB) for n in ns]
    errs = [abs(v - target) for v in vals]
    assert errs[2] < errs[1] < errs[0]
    limit, order = richardson_extrapolate(ns, vals)
    assert 0.7 < order < 1.3          # midpoint coupling of the magnetic term
    assert abs(limit - target) < 1e-3


def _dense_sliced_kernel(n, e0, g, B, xa, xb):
    """The lattice Gaussian over all 2(N-1) interior coordinates at once: a dense
    eigen-decomposition for the determinant, with the principal square-root
    branch per eigenvalue, and a dense solve (reference for `sliced_kernel`)."""
    delta = 1.0 / n
    kappa = 1.0 / (e0 * delta)
    mu = g * B / 2.0
    dim = 2 * (n - 1)
    link = np.array([[1j * kappa, -1j * mu], [1j * mu, 1j * kappa]])
    A = np.zeros((dim, dim), dtype=complex)
    for j in range(n - 1):
        A[2 * j:2 * j + 2, 2 * j:2 * j + 2] = 2j * kappa * np.eye(2)
        if j + 1 < n - 1:
            A[2 * j:2 * j + 2, 2 * j + 2:2 * j + 4] = -link
            A[2 * j + 2:2 * j + 4, 2 * j:2 * j + 2] = -link.T
    xa = np.asarray(xa, dtype=complex)
    xb = np.asarray(xb, dtype=complex)
    b = np.zeros(dim, dtype=complex)
    b[0:2] = 1j * kappa * xa + 1j * mu * np.array([xa[1], -xa[0]])
    b[dim - 2:dim] += 1j * kappa * xb + 1j * mu * np.array([-xb[1], xb[0]])
    c = -0.5j * kappa * (xa @ xa + xb @ xb)
    lam = np.linalg.eigvals(A)
    if np.min(np.abs(lam)) < 1e-12 * np.max(np.abs(lam)):
        raise SingularForm(f"discrete Gaussian singular at e0={e0!r}, N={n}")
    root = np.prod(np.power(lam, -0.5))
    sol = np.linalg.solve(A, b)
    prefactor = (1j / (2.0 * np.pi * e0 * delta)) ** n * (2.0 * np.pi) ** (n - 1)
    return complex(prefactor * root * np.exp(0.5 * (b @ sol) + c))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_paired_lattice_gaussian_matches_the_dense_route(n):
    # real and rotated e0 (up to the Euclidean axis), B of both signs and zero
    rng = np.random.default_rng(n)
    for B in (0.7, -0.5, 0.0):
        for angle in (0.0, np.pi / 6, np.pi / 3, np.pi / 2):
            e0 = rng.uniform(0.3, 1.2) * np.exp(1j * angle)
            lattice = (n, e0, rng.uniform(0.5, 1.5), B, rng.uniform(-1.0, 1.0, 2),
                       rng.uniform(-1.0, 1.0, 2))
            ref = _dense_sliced_kernel(*lattice)
            assert abs(sliced_kernel(*lattice) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_closed_form_lattice_spectrum_matches_the_eigensolver(n):
    # real and complex e0, B of both signs: the determinant and the guard's ratio
    rng = np.random.default_rng(100 + n)
    for B in (0.7, -0.5):
        for angle in (0.0, np.pi / 5, np.pi / 2):
            e0 = rng.uniform(0.3, 1.2) * np.exp(1j * angle)
            kappa, mu = n / e0, rng.uniform(0.5, 1.5) * B / 2.0
            off = np.full(n - 2, 1j * kappa)
            t = np.diag(np.full(n - 1, 2j * kappa)) - np.diag(off + mu, 1) - np.diag(off - mu, -1)
            dense, closed = np.linalg.eigvals(t), _interior_spectrum(n, kappa, mu)
            assert closed.shape == (n - 1,)
            assert abs(np.prod(closed) - np.prod(dense)) <= 1e-12 * abs(np.prod(dense))
            ratio = np.min(np.abs(dense)) / np.max(np.abs(dense))
            assert abs(np.min(np.abs(closed)) / np.max(np.abs(closed)) - ratio) <= 1e-12 * ratio


@pytest.mark.parametrize("n", [8, 16])
def test_singular_form_guard_raises_at_the_lattice_caustic(n):
    # the discrete form is singular at e0 = N tan(pi/N) / (g B/2); e0 g B -> 2 pi as N -> inf
    g, B = 1.0, 0.6
    caustic = n * np.tan(np.pi / n) / (g * B / 2.0)
    for kernel in (sliced_kernel, _dense_sliced_kernel):
        with pytest.raises(SingularForm):
            kernel(n, caustic, g, B, XA, XB)
        for moved in (0.99 * caustic, 1.01 * caustic):
            value = kernel(n, moved, g, B, XA, XB)
            assert np.isfinite(abs(value))


def test_richardson_recovers_exact_first_order_limit():
    target, c = 1.7 - 0.4j, 0.9 + 0.2j
    ns = [8, 16, 32]
    vals = [target + c / n for n in ns]
    limit, order = richardson_extrapolate(ns, vals)
    assert order == pytest.approx(1.0, abs=1e-12)
    assert limit == pytest.approx(target, abs=1e-13)


def test_lattice_needs_two_slices():
    with pytest.raises(ValueError):
        sliced_kernel(1, 0.5, 1.0, 0.0, XA, XB)


def _circular_fraction(phi, g, kp, phi0, beta, a, nu, sign):
    """K of a circular profile as the resonant fraction that was its oracle,
    (g / 2 kp) e^{i beta phi} (a nu / sqrt2) (e^{i d phi} - e^{i d phi0}) / d,
    d = sign beta + nu."""
    d = sign * beta + nu
    return (g / (2.0 * kp) * np.exp(1j * beta * phi) * (a * nu / math.sqrt(2.0))
            * (np.exp(1j * d * phi) - np.exp(1j * d * phi0)) / d)


def _slope_fraction(phi, g, kp, phi0, beta, c, sign):
    """K of a profile of constant slope dot(eps, A') = c as the fraction that
    was its oracle."""
    turn = 1j * sign * beta
    return (g / (2.0 * kp) * np.exp(1j * beta * phi)
            * c * (np.exp(turn * phi) - np.exp(turn * phi0)) / turn)


def _fraction_draws(seed: int, count: int) -> list:
    """Seeded contexts away from resonance, circular and constant slope in
    turn: (carrier (c, w), (g, kp, phi0, phi, beta, sign), the fraction's K),
    with kp, B and sign of both signs and every third circular one at B = 0."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        g, kp = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.5) * rng.choice((-1, 1))
        B = 0.0 if i % 6 == 0 else rng.uniform(0.3, 1.0) * rng.choice((-1, 1))
        beta, sign = g * B / kp, rng.choice((-1, 1))
        phi0, phi = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        scalars = (g, kp, phi0, phi, beta, sign)
        if i % 2:
            c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) / math.sqrt(2.0)
            draws.append(((c, 0.0), scalars, _slope_fraction(phi, g, kp, phi0, beta, c, sign)))
        else:
            a, nu = rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
            while abs(sign * beta + nu) < 0.05:
                nu = rng.uniform(0.5, 2.0)
            draws.append(((1j * a * nu / math.sqrt(2.0), nu), scalars,
                          _circular_fraction(phi, g, kp, phi0, beta, a, nu, sign)))
    return draws


def test_carrier_kernel_matches_the_resonant_fractions():
    # away from resonance, the sum of exponential integrals is the circular
    # and constant-slope fractions it replaced; a stack has each entry's bits
    draws = _fraction_draws(47, 200)
    alone = [carrier_kernel([c], [w], *scalars) for (c, w), scalars, _ in draws]
    assert max(abs(k - value) for k, (*_, value) in zip(alone, draws)) <= 1e-13
    carriers, scalars, _ = zip(*draws)
    stack = carrier_kernel(*(np.array(column)[:, None] for column in zip(*carriers)),
                           *(np.array(column) for column in zip(*scalars)))
    assert [complex(k) for k in stack] == alone


def test_carrier_kernel_at_resonance_is_its_linear_growth_limit():
    # sign beta + w = 0 exactly: the carrier's integrand is constant, so K
    # grows linearly in phi - phi0 (at beta = 0 for the slope carrier)
    g, kp, phi0, phi = 1.0, -1.8, 0.2, 0.5
    limit = g / (2.0 * kp) * (phi - phi0)
    circular = 1j * 0.5 * 1.3 / math.sqrt(2.0)
    value = carrier_kernel([circular], [1.3], g, kp, phi0, phi, 1.3, -1)
    assert value == pytest.approx(np.exp(1.3j * phi) * circular * limit, rel=1e-15)
    slope = carrier_kernel([0.3 + 0j], [0.0], g, kp, phi0, phi, 0.0, 1)
    assert slope == pytest.approx(0.3 * limit, rel=1e-15)
    # off resonance by 1e-9 the same carrier differs by O(1e-9)
    near = carrier_kernel([circular], [1.3 + 1e-9], g, kp, phi0, phi, 1.3, -1)
    assert 0.0 < abs(near - value) <= 1e-9


def test_free_propagator_domain_checks():
    with pytest.raises(ValueError):
        free_propagator([0, 0, 0, 0], [1, 0, 0, 0], [0.0, 0.0, 0.0, 1.0], m=2.0)
    with pytest.raises(ValueError):
        free_propagator([0.3, 0.2, 0, 0], [0.3, 0.2, 1, 1], [0.0, 0.0, 0.2, 2.0], m=0.8)


def test_free_propagator_values():
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    near = free_propagator([0, 0, 0, 0], [0.5, 0, 0, 0], pL, m=0.8)
    far = free_propagator([0, 0, 0, 0], [2.5, 0, 0, 0], pL, m=0.8)
    assert near.imag == 0.0 and near.real > 0.0       # K0 is real for real argument
    assert 0 < abs(far) < abs(near)
    shifted = free_propagator([0, 0, 0, 0], [0.5, 0, 0.4, -0.1], pL, m=0.8)
    assert abs(shifted) == pytest.approx(abs(near), rel=1e-12)


def _free_deviation(x_b, pL, m, b):
    ref = free_propagator([0, 0, 0, 0], x_b, pL, m)
    value = zero_profile_green([0, 0, 0, 0], x_b, pL, m, b)
    return float(np.max(np.abs(value - ref * IDENTITY4))) / abs(ref)


def test_zero_profile_oracle_reduces_to_free_propagator():
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    for x_b in ([0.5, 0.0, 0.4, -0.1], [1.1, -0.7, 0.0, 0.3]):
        assert _free_deviation(x_b, pL, 0.8, 0.0) < 1e-12
        weak = _free_deviation(x_b, pL, 0.8, 1e-4)
        assert weak < 1e-3
        # the spin splitting exp(-+b tau/2) is first order in b
        assert _free_deviation(x_b, pL, 0.8, 1e-6) < weak / 50.0


def test_zero_profile_oracle_raises_no_runtime_warning():
    m = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for gap in (1.5, 4.0, 20.0):
            pL = np.array([0.0, 0.0, 0.0, np.sqrt(gap + m * m)])
            for separation in (0.3, 1.0, 5.0):
                for b in (1e-4, 0.5, 5.0, 50.0, -3.0):
                    value = zero_profile_green([0, 0, 0, 0], [separation, 0.0, 0.2, 0.1],
                                               pL, m, b)
                    assert np.all(np.isfinite(value))


def test_zero_profile_oracle_domain_checks():
    for oracle in (zero_profile_green, landau_green):
        with pytest.raises(ValueError):
            oracle([0, 0, 0, 0], [1, 0, 0, 0], [0.0, 0.0, 0.0, 1.0], m=2.0, b=0.5)
        with pytest.raises(ValueError):
            oracle([0.3, 0.2, 0, 0], [0.3, 0.2, 1, 1], [0.0, 0.0, 0.2, 2.0], m=0.8, b=0.5)


def test_landau_form_matches_the_euclidean_axis_integral():
    # the U-function closed form against the exp-sinh rule on the same integral
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    for b in (0.6, -0.4, 0.0, 5.0):
        for x_b in ([0.5, 0.0, 0.4, -0.1], [1.1, -0.7, 0.0, 0.3]):
            ref = zero_profile_green([0.1, -0.2, 0.3, 0.0], x_b, pL, 0.8, b)
            value = landau_green([0.1, -0.2, 0.3, 0.0], x_b, pL, 0.8, b)
            assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_zero_profile_gradient_matches_finite_differences():
    # against 4th-order central differences of the production zero-profile G
    x_a, x_b = np.array([0.1, -0.2, 0.3, 0.0]), np.array([0.6, 0.4, -0.1, 0.5])
    pL, m, h = np.array([0.0, 0.0, 0.2, 2.0]), 0.8, 1e-3
    for b in (0.0, 0.7, -0.4):
        value, grads = zero_profile_gradient(x_a, x_b, pL, m, b)
        assert np.array_equal(value, zero_profile_green(x_a, x_b, pL, m, b))

        def production(shift):
            return green_function(EvalContext(m=m, x_a=x_a, x_b=x_b + shift, pL=pL,
                                              cfg=FieldConfig(g=1.0, B=b,
                                                              profile=ZeroProfile()))).matrix

        for mu, unit in enumerate(np.eye(4)):
            fd = (-production(2 * h * unit) + 8 * production(h * unit)
                  - 8 * production(-h * unit) + production(-2 * h * unit)) / (12 * h)
            assert np.linalg.norm(grads[mu] - fd) <= 1e-8 * np.linalg.norm(fd)


def _rule_stages(call):
    """(call(), the number of stages each double-exponential rule call in it ran)."""
    rule, stages = oracles._double_exponential, []

    def counted(fn, *args):
        calls = []
        try:
            return rule(lambda x: calls.append(None) or fn(x), *args)
        finally:
            stages.append(len(calls))

    oracles._double_exponential = counted
    try:
        return call(), stages
    finally:
        oracles._double_exponential = rule


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_a_stack_of_contexts_gives_each_context_its_own_value(size, seed):
    # contexts drawn as verification draws them, b > 0, b < 0 and b = 0 mixed;
    # every oracle that a check calls per draw takes them as one stack
    rng = random.Random(seed)
    points = [_random_point(rng) for _ in range(size)]
    b = np.array([rng.choice([1.0, -1.0, 0.0]) * rng.uniform(0.2, 1.5) for _ in range(size)])
    contexts = [(p["x_a"], p["x_b"], p["pL"], p["m"], bk) for p, bk in zip(points, b)]
    stacked = [np.array(column) for column in zip(*contexts)]

    (green, (value, grads)), (stack_green, stack_gradient) = _rule_stages(
        lambda: (zero_profile_green(*stacked), zero_profile_gradient(*stacked)))
    integrals = [_euclidean_axis(*stacked)[0](spread) for spread in (False, True)]
    for k, context in enumerate(contexts):
        (alone, (alone_value, alone_grads)), (green_stages, gradient_stages) = _rule_stages(
            lambda: (zero_profile_green(*context), zero_profile_gradient(*context)))
        # the same levels give the same bits; more levels agree within the
        # rule's own tolerance, max(0, 1e-13 |I|), on each integral
        if green_stages == stack_green:
            assert np.array_equal(green[k], alone)
        if gradient_stages == stack_gradient:
            assert np.array_equal(value[k], alone_value)
            assert all(np.array_equal(grad[k], a) for grad, a in zip(grads, alone_grads))
        for spread, stack in enumerate(integrals):
            single = _euclidean_axis(*context)[0](bool(spread))
            entry = stack[:, k] if spread else stack[k]
            assert np.all(np.abs(entry - single) <= 1e-13 * np.abs(single))

    # the lattice at one N: the same arithmetic for a stack as for one lattice
    e0 = np.array([rng.uniform(0.3, 1.2) * np.exp(1j * rng.choice([0.0, np.pi / 6, np.pi / 2]))
                   for _ in range(size)])
    g = np.array([rng.uniform(0.5, 1.5) for _ in range(size)])
    lattices = (e0, g, b, stacked[0][:, :2], stacked[1][:, :2])
    for n in (2, 8, 64):
        kernels = sliced_kernel(n, *lattices)
        assert kernels.shape == (size,)
        for k, lattice in enumerate(zip(*lattices)):
            assert kernels[k] == sliced_kernel(n, *lattice)

    # a stack of one is the one-context call
    first = [column[:1] for column in stacked]
    assert np.array_equal(zero_profile_green(*first)[0], zero_profile_green(*contexts[0]))
    one_value, one_grads = zero_profile_gradient(*first)
    assert np.array_equal(one_value[0], zero_profile_gradient(*contexts[0])[0])
    assert all(np.array_equal(grad[0], alone) for grad, alone in
               zip(one_grads, zero_profile_gradient(*contexts[0])[1]))
    assert sliced_kernel(8, *(v[:1] for v in lattices))[0] \
        == sliced_kernel(8, *(v[0] for v in lattices))


def test_nested_drift_on_a_span_of_a_few_hundred_ulps():
    # an outer node of the nested cross phase 1e-13 from phi_a: the tanh-sinh
    # nodes fall on a few hundred floats, and the rule must still converge
    # (no QuadratureFailure) to the forcing times the width
    profile = PulseProfile(amplitude=0.4, frequency=1.3, sigma=1.5)
    lo, hi = -2.9999999999999996, -2.9999999999998996
    g, B, kp = 1.0, 1.0, 2.0
    drift = drift_nested(profile.components, g, B, kp, lo, hi)
    # the forcing barely turns over the span: (g / kp) A at the midpoint times the width
    mid = np.array(profile.components(0.5 * (lo + hi)), dtype=float)
    np.testing.assert_allclose(drift, g / kp * (hi - lo) * mid, rtol=1e-9)


def _stage_levels():
    """Per stage of the double-exponential tables, (step, t) of each trapezoid
    level it holds, written out: stage 0 holds levels 0 and 1, the multiples
    of 1/2 in [-3.5, 3.5] and then the odd multiples of 1/4; stage k >= 1 holds
    level k + 1, the odd multiples of 2^-(k+2)."""
    yield [(0.5, 0.5 * np.arange(-7, 8)), (0.25, 0.25 * np.arange(-13, 14, 2))]
    for level in range(2, _DE_LEVELS):
        step = 0.5 ** (level + 1)
        yield [(step, step * np.arange(1 - 7 * 2 ** level, 7 * 2 ** level, 2))]


def _stage_weights(levels, jacobian):
    """The weights a stage should hold, from x'(t) of each of its levels:
    x'(t) times the step; at stage 0 one column per level, level 0's zero on
    level 1's nodes (on the last axis, after the nodes)."""
    if len(levels) == 1:
        (step, t), = levels
        return step * jacobian(t)
    (coarse, t0), (fine, t1) = levels
    level_0 = np.concatenate([coarse * jacobian(t0), np.zeros(np.shape(jacobian(t1)))], axis=-1)
    return np.stack([level_0, fine * jacobian(np.concatenate([t0, t1]))], axis=-1)


@pytest.mark.parametrize("lo, hi", [(-2.0, 3.0), (1.0, 1.0 + 1e-9), (0.7, -4.2),
                                    (np.array([-1.0, 0.3, 2.0]), np.array([0.5, 0.30000001, -4.0])),
                                    (0.25, np.array([1.5, -0.5, 0.25000000000000006]))],
                         ids=["scalar", "narrow", "reversed", "broadcast", "scalar-to-array"])
def test_tanh_sinh_tables_match_the_closed_form_map(lo, hi):
    # x(t) = mid + half tanh(u), x'(t) = half (pi/2) cosh t / cosh^2 u, u = (pi/2) sinh t
    scale, nodes, table = _tanh_sinh(lo, hi)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    half, ends = 0.5 * (hi - lo), np.maximum(np.abs(lo), np.abs(hi))
    assert len(table) == _DE_LEVELS - 1

    def jacobian(t):
        return half * (0.5 * np.pi) * np.cosh(t) / np.cosh(0.5 * np.pi * np.sinh(t)) ** 2

    for stage, levels in enumerate(_stage_levels()):
        t = np.concatenate([t for _, t in levels])
        # the closed form loses the digits near an end that the tables keep
        x = 0.5 * (lo + hi) + half * np.tanh(0.5 * np.pi * np.sinh(t))
        assert nodes(stage).shape == x.shape
        assert np.all(np.abs(nodes(stage) - x) <= 4 * np.spacing(ends))
        expected = _stage_weights(levels, jacobian)
        weights = np.expand_dims(scale, tuple(range(-table[stage][-1].ndim, 0))) * table[stage][-1]
        assert weights.shape == expected.shape
        assert np.all(np.abs(weights - expected) <= 8 * np.spacing(np.abs(expected)))


@pytest.mark.parametrize("scale", [1.0, 0.37, 12.5, 3e-4])
def test_exp_sinh_tables_match_the_closed_form_map(scale):
    # x(t) = scale exp((pi/2) sinh t), x'(t) = x (pi/2) cosh t
    rule_scale, nodes, table = _exp_sinh(scale)
    assert len(table) == _DE_LEVELS - 1

    def x(t):
        return scale * np.exp(0.5 * np.pi * np.sinh(t))

    for stage, levels in enumerate(_stage_levels()):
        t = np.concatenate([t for _, t in levels])
        assert np.all(np.abs(nodes(stage) - x(t)) <= 2 * np.spacing(x(t)))
        expected = _stage_weights(levels, lambda t: x(t) * (0.5 * np.pi) * np.cosh(t))
        weights = rule_scale * table[stage][-1]
        assert np.all(np.abs(weights - expected) <= 8 * np.spacing(np.abs(expected)))


def test_zero_profile_gradient_value_is_the_zero_profile_green():
    # the gradient integrates G's weights and the spread ones in one rule call,
    # which may take a level more than G's alone: its G agrees to rounding
    rng = np.random.default_rng(23)
    m = 0.8
    for draw in range(80):
        gap = rng.uniform(0.05, 6.0)
        pL = np.array([0.0, 0.0, rng.uniform(-0.4, 0.4), 0.0])
        pL[3] = np.sqrt(gap + m * m + pL[2] ** 2)
        b = 0.0 if draw % 5 == 0 else rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 5.0)
        x_a, x_b = rng.uniform(-1.5, 1.5, 4), rng.uniform(-1.5, 1.5, 4)
        value, _ = zero_profile_gradient(x_a, x_b, pL, m, b)
        ref = zero_profile_green(x_a, x_b, pL, m, b)
        assert np.max(np.abs(value - ref)) <= 1e-15 * np.max(np.abs(ref)), (gap, b)


def test_k0_matches_scipy():
    from scipy.special import k0

    for z in np.geomspace(1e-3, 60.0, 400):
        assert abs(_k0(z) - k0(z)) <= 1e-14 * k0(z), z


def _quadpack_zero_profile(x_a, x_b, pL, m, b):
    """`zero_profile_gradient` with every tau integral by QUADPACK: the weight
    h/(2 pi tau) exp(-h (1+q) rho^2/(4 tau) - tau gap/2), h = |b| tau/(1 - q),
    q = exp(-|b| tau), times q for the projector sign of b, and for the
    transverse slots once more times h (1+q)/(2 tau)."""
    from scipy.integrate import quad

    dx = x_b - x_a
    gap, rho2 = float(np.sum(METRIC * pL * pL)) - m * m, dx[0] ** 2 + dx[1] ** 2

    def weight(tau, damped, spread):
        x = abs(b) * tau
        q = np.exp(-x)
        h = x / -np.expm1(-x) if x > 0.0 else 1.0
        w = h / (2 * np.pi * tau) * np.exp(-h * (1 + q) * rho2 / (4 * tau) - tau * gap / 2)
        return w * (h * (1 + q) / (2 * tau) if spread else 1.0) * (q if damped else 1.0)

    plain, spread = (np.array([quad(weight, 0.0, np.inf, args=(damped, s), epsabs=0.0,
                                    epsrel=1e-13, limit=200)[0]
                               for damped in (b > 0.0, b < 0.0)]) for s in (False, True))
    phase = np.exp(1j * (np.sum(METRIC[2:] * pL[2:] * dx[2:])
                         + 0.5 * b * (x_b[0] * x_a[1] - x_b[1] * x_a[0])))

    def braces(i_plus, i_minus):
        return 0.5 * phase * (i_plus * P_PLUS + i_minus * P_MINUS)

    gauge = 0.5j * b * np.array([x_a[1], -x_a[0]])
    value = braces(*plain)
    return value, [braces(*(gauge[mu] * plain - dx[mu] * spread)) for mu in (0, 1)]


def test_zero_profile_oracles_match_quadpack():
    # the exp-sinh rule against QUADPACK on the same weights: gap 0.05-6, b = 0
    # or |b| 0.05-2 of both signs
    rng = np.random.default_rng(17)
    m = 0.8
    for draw in range(60):
        gap = rng.uniform(0.05, 6.0)
        pL = np.array([0.0, 0.0, 0.3, np.sqrt(gap + m * m + 0.09)])
        b = 0.0 if draw % 4 == 0 else rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)
        x_a, x_b = rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4)
        ref, ref_grads = _quadpack_zero_profile(x_a, x_b, pL, m, b)
        value, grads = zero_profile_gradient(x_a, x_b, pL, m, b)
        assert np.array_equal(value, zero_profile_green(x_a, x_b, pL, m, b))
        for mine, quadpack in zip([value] + grads[:2], [ref] + ref_grads):
            scale = np.max(np.abs(quadpack))
            assert np.max(np.abs(mine - quadpack)) <= 1e-13 * scale, (gap, b)


_KNOTS = np.linspace(-1.0, 3.0, 9)
_TABLE = np.stack([np.exp(-_KNOTS ** 2 / 4.0), 0.3 * np.sin(_KNOTS)], axis=-1)


def _quadpack_nested(components, g, B, kp, phi_a, phi_b, xb, knots):
    """(drift, cross phase) as the literal nested double integral by QUADPACK."""
    from scipy.integrate import quad

    rate = g / kp

    def integral(fn, lo, hi):
        inside = [k for k in knots if min(lo, hi) < k < max(lo, hi)]
        return quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200, points=inside or None)[0]

    def drift(phi):
        def forced(p, row):
            angle = rate * B * (phi - p)
            a1, a2 = (float(v) for v in components(p))
            return rate * (math.cos(angle) * a1 - math.sin(angle) * a2 if row == 0
                           else math.sin(angle) * a1 + math.cos(angle) * a2)

        return [integral(lambda p: forced(p, row), phi_a, phi) for row in (0, 1)]

    def density(phi):
        a1, a2 = (float(v) for v in components(phi))
        y1, y2 = drift(phi)
        return rate * (a1 * (a1 - B * y2) + a2 * (a2 + B * y1))

    y1, y2 = drift(phi_b)
    boundary = (xb[0] - y1) * B * y2 - (xb[1] - y2) * B * y1
    return (y1, y2), -0.5j * g * (integral(density, phi_a, phi_b) + boundary)


@pytest.mark.parametrize("profile, knots, spans", [
    (CircularProfile(amplitude=0.5, frequency=1.4), (), [(-0.9, 2.9), (2.8, -3.1)]),
    (PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5), (), [(-4.0, 4.5), (3.0, -2.2)]),
    (LinearProfile(amplitude=0.6, frequency=0.8), (), [(0.2, 5.3), (1.0, -1.5)]),
    (TabulatedProfile(_KNOTS, *_TABLE.T), _KNOTS,
     [(-0.7, 2.9), (2.6, 0.3)]),
], ids=["circular", "pulse", "linear", "tabulated"])
def test_nested_oracles_match_nested_quadpack(profile, knots, spans):
    # the reference reads a tabulated profile through scipy's spline, which
    # agrees with the in-repo one to rounding; QUADPACK calls it at one float
    # at a time, about 150,000 times here, so each call is Horner's rule on
    # scipy's coefficients in Python floats rather than a call of the spline
    from scipy.interpolate import CubicSpline

    edges = _KNOTS.tolist()
    pieces = CubicSpline(_KNOTS, _TABLE, bc_type="natural").c.transpose(1, 2, 0).tolist()

    def spline(phi):
        i = min(max(bisect_right(edges, phi) - 1, 0), len(pieces) - 1)
        dx = phi - edges[i]
        return [((c3 * dx + c2) * dx + c1) * dx + c0 for c3, c2, c1, c0 in pieces[i]]

    components = spline if len(knots) else profile.components
    g, kp, xb = 0.9, 1.8, (0.6, 0.4)
    for phi_a, phi_b in spans:
        for B in (0.5, -0.7, 0.0):
            wave = (profile.components, g, B, kp, phi_a, phi_b)
            drift, cross = _quadpack_nested(components, *wave[1:], xb, knots)
            exponent, drift_b = cross_phase_nested(*wave, xb, knots)
            assert np.max(np.abs(np.array(drift_b) - drift)) <= 1e-12
            assert abs(exponent - cross) <= 1e-12


def _carrier_contexts(seed: int, count: int) -> list:
    """Seeded circular and linear contexts for `cross_phase_closed`: (profile,
    its terms (c, w), (g, B, kp, phi_a, phi_b), xb), with B = 0 and B in
    +-[0.3, 1], kp of both signs, two in five of those at B != 0 with a term
    within 1e-9 to 1e-1 of resonance, w_k = beta, and every seventh
    phi_b = phi_a."""
    rng = random.Random(seed)
    contexts = []
    for i in range(count):
        g, kp = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.5) * (1 if i % 2 else -1)
        B = (0.0, rng.uniform(0.3, 1.0), -rng.uniform(0.3, 1.0))[i % 3]
        beta = g * B / kp
        a, nu = rng.uniform(0.2, 0.8), rng.uniform(0.6, 1.8)
        if B and i % 5 < 2:
            nu = beta + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-9, -1)
        phi_a = rng.uniform(-2.0, 2.0)
        phi_b = phi_a if i % 7 == 0 else rng.uniform(-3.0, 3.0)
        xb = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if i % 4 < 2:
            profile, terms = CircularProfile(a, nu), ([a], [nu])
        else:
            profile, terms = LinearProfile(a, nu), ([a / 2, a / 2], [nu, -nu])
        contexts.append((profile, terms, (g, B, kp, phi_a, phi_b), xb))
    return contexts


def test_closed_form_classical_path_matches_the_nested_oracle():
    # the elementary exponential integrals against the literal double
    # integral, down to |w_k - beta| = 1e-9 where E and F keep their digits
    # only through expm1 and the series of _exp_divided
    contexts = _carrier_contexts(41, 210)
    nearest = min(abs(w - p[1] * p[0] / p[2]) for _, (_, ws), p, _ in contexts for w in ws
                  if p[1] != 0.0)
    assert nearest < 1e-8
    for profile, terms, wave, xb in contexts:
        exponent, drift = cross_phase_closed(*terms, *wave, xb)
        ref, ref_drift = cross_phase_nested(profile.components, *wave, xb)
        assert abs(exponent - ref) <= 1e-13
        assert max(abs(y - r) for y, r in zip(drift, ref_drift)) <= 1e-13
        if wave[3] == wave[4]:
            assert exponent == 0.0 and drift == (0.0, 0.0)


def test_closed_form_stack_has_the_bits_of_its_contexts_alone():
    contexts = _carrier_contexts(43, 24)
    for count in (1, 2):        # circular, then linear: one term count per stack
        group = [c for c in contexts if len(c[1][0]) == count]
        alone = [cross_phase_closed(*terms, *wave, xb) for _, terms, wave, xb in group]
        exponents, (y1, y2) = cross_phase_closed(
            *(np.array(column) for column in zip(*(terms for _, terms, _, _ in group))),
            *(np.array(column) for column in zip(*(wave for _, _, wave, _ in group))),
            np.array([xb for *_, xb in group]))
        assert [(complex(e), (float(a), float(b))) for e, a, b in zip(exponents, y1, y2)] == alone


def test_nested_rule_raises_when_its_levels_never_agree():
    # a forcing far too fast for the finest tanh-sinh step on the span
    def components(phi):
        return np.sin(1e5 * phi), np.zeros(np.shape(phi))

    with pytest.raises(QuadratureFailure):
        drift_nested(components, 1.0, 0.5, 2.0, 0.0, 1.0)


def test_oracles_do_not_import_production_modules():
    # only the error types and the basis constants may come from the package
    source = Path(__file__).resolve().parents[1] / "src" / "wavefield" / "oracles.py"
    relative, absolute = set(), []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            relative.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            absolute.append(node.module)
        elif isinstance(node, ast.Import):
            absolute += [alias.name for alias in node.names]
    assert relative == {"errors", "minkowski"}
    assert not [name for name in absolute if name.split(".")[0] == "wavefield"]
