"""Property-based checks over random admissible inputs.

The one pass along the wave phase (cross phase, K and K* from one panel set)
is compared with the independent oracles and, over many far phases at once,
with one pass per phase; the Green function with bumps added to the profile
outside [phi_a, phi_b] with the one without them; the metric products the
evaluation path reads from the slots with `minkowski.dot`, bit for bit; the panel-at-once
quadrature with a per-point transcription of the classic adaptive K15/G7
loop; and the Green function at any contour angle with the one on the
Euclidean axis. The ray's proper-time nodes, at any angle, gap and field,
never reach e0 = 0 or a caustic of the kernel. A
transverse translation of both endpoints changes the ray's kernel and the
zero-profile Green function by the gauge phase alone, and so does a rotation
of x_b's transverse part about x_a's.
Examples are derandomized so that every run draws the same cases.
"""

import heapq
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavefield.fields import CircularProfile, FieldConfig, LinearProfile, PulseProfile, ZeroProfile
from wavefield.green import RAY_SEEDS, EvalContext, green_function
from wavefield.kernels import phase_pass
from wavefield.minkowski import WAVE_K, dot, light_cone, longitudinal_dot
from wavefield.oracles import cross_phase_nested
from wavefield.quadrature import WG, WK, XK, _G_IDX, adaptive_quad
from wavefield.verification import _bumped_outside, _ray_kernel

from test_kernels import _closed_kernel, _cross_phase

_SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def _contexts(draw, kind):
    g = draw(st.floats(0.5, 1.5))
    b = draw(st.floats(0.2, 1.0))
    amplitude = draw(st.floats(0.1, 1.0))
    frequency = draw(st.floats(0.5, 2.0))
    if kind == "pulse":
        profile = PulseProfile(amplitude, frequency, draw(st.floats(0.8, 2.0)))
    elif kind == "linear":
        profile = LinearProfile(amplitude, frequency)
    else:
        profile = CircularProfile(amplitude, frequency)
    p3 = draw(st.floats(1.5, 2.5)) * draw(st.sampled_from([1.0, -1.0]))
    pL = np.array([0.0, 0.0, draw(st.floats(-0.4, 0.4)), p3])
    x_a = np.array([draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8)),
                    draw(st.floats(-3.0, 3.0)), 0.0])
    x_b = np.array([draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.8, 0.8)),
                    x_a[2] + draw(st.floats(-5.0, 5.0)), 0.0])
    phi0 = draw(st.floats(-3.0, 3.0))
    sign = draw(st.sampled_from([1, -1]))
    return FieldConfig(g=g, B=b, profile=profile), pL, x_a, x_b, phi0, sign


@st.composite
def _eval_contexts(draw, kinds=("circular", "pulse")):
    """Admissible evaluation contexts: waves of the given kinds, B of both
    signs, gap >= 1.09 and transverse separation >= 0.3."""
    cfg, pL, x_a, x_b, _, sign = draw(_contexts(draw(st.sampled_from(kinds))))
    assume(np.hypot(*(x_b[:2] - x_a[:2])) >= 0.3)
    cfg = replace(cfg, B=cfg.B * draw(st.sampled_from([1.0, -1.0])))
    return EvalContext(m=draw(st.floats(0.5, 1.0)), x_a=x_a, x_b=x_b, pL=pL, cfg=cfg,
                       volkov_sign=sign)


def _nested(cfg, pL, x_a, x_b):
    return cross_phase_nested(cfg.profile.components, cfg.g, cfg.B, dot(WAVE_K, pL).real,
                              dot(WAVE_K, x_a).real, dot(WAVE_K, x_b).real, x_b[:2])[0]


#: A linear wave with its carrier at -nu exactly at resonance: beta = g B / kp
#: = 0.25 = nu, where the closed form of K grows linearly.
_RESONANT_LINEAR = (FieldConfig(g=1.0, B=0.5, profile=LinearProfile(0.6, 0.25)),
                    np.array([0.0, 0.0, 0.0, -2.0]), np.array([0.3, -0.2, 0.4, 0.0]),
                    np.array([-0.5, 0.6, 2.9, 0.0]), -1.2, 1)


@settings(max_examples=20, **_SETTINGS)
@given(st.sampled_from(["circular", "linear"]).flatmap(_contexts))
@example(_RESONANT_LINEAR)
def test_one_pass_matches_oracles_for_circular_and_linear_waves(context):
    # drawn without avoiding resonance, sign beta + w_k = 0, which the closed
    # form of K meets as linear growth
    cfg, pL, x_a, x_b, phi0, sign = context
    assert abs(_cross_phase(cfg, pL, x_a, x_b) - _nested(cfg, pL, x_a, x_b)) <= 1e-12

    phi_a, phi_b = dot(WAVE_K, x_a).real, dot(WAVE_K, x_b).real
    for phi in (phi_a, phi_b):
        k = phase_pass(cfg, pL, phi0, phi, sign=sign).kernel_b
        assert abs(k - _closed_kernel(phi, pL, cfg, phi0, sign)) <= 1e-11


@settings(max_examples=10, **_SETTINGS)
@given(_contexts("pulse"))
def test_one_pass_matches_the_nested_oracle_for_pulses(context):
    cfg, pL, x_a, x_b, _, _ = context
    assert abs(_cross_phase(cfg, pL, x_a, x_b) - _nested(cfg, pL, x_a, x_b)) <= 1e-12


@st.composite
def _endpoint_phases(draw):
    """A context and phases phi_b on both sides of phi_a, two of them one ulp
    apart."""
    cfg, pL, x_a, _, _, sign = draw(_contexts(draw(st.sampled_from(["circular", "pulse"]))))
    phi_a = dot(WAVE_K, x_a).real
    phis = [phi_a + draw(st.floats(-5.0, -0.1)), phi_a + draw(st.floats(0.1, 5.0))]
    phis += [np.nextafter(phis[draw(st.sampled_from([0, 1]))], np.inf)]
    phis += draw(st.lists(st.floats(-5.0, 5.0).map(lambda v: phi_a + v), max_size=3))
    return cfg, pL, phi_a, np.array(phis), sign


@settings(max_examples=20, **_SETTINGS)
@given(_endpoint_phases())
def test_one_pass_over_many_endpoints_matches_one_pass_per_endpoint(case):
    cfg, pL, phi_a, phis, sign = case
    tols = dict(abs_tol=1e-10, rel_tol=1e-8)
    multi = phase_pass(cfg, pL, phi_a, phis, sign=sign, **tols)
    assert multi.action.shape == multi.kernel_b.shape == phis.shape
    assert multi.drift.shape == phis.shape + (2,)
    for i, phi_b in enumerate(phis):
        one = phase_pass(cfg, pL, phi_a, float(phi_b), sign=sign, **tols)
        for field in ("action", "drift", "kernel_b"):
            got, want = getattr(multi, field)[i], getattr(one, field)
            assert np.linalg.norm(got - want) <= max(1e-12, 1e-10 * np.linalg.norm(want))


@st.composite
def _bumped_contexts(draw):
    """An admissible context with a circular, pulse or linear wave and B of
    either sign, and the same context with bumps added to its profile outside
    [phi_a, phi_b]."""
    ctx = draw(_eval_contexts(("circular", "pulse", "linear")))
    return ctx, _bumped_outside(ctx, draw(st.floats(0.1, 3.0)), draw(st.floats(0.2, 2.0)))


@settings(max_examples=15, **_SETTINGS)
@given(_bumped_contexts())
def test_green_function_does_not_see_the_profile_outside_the_phase_interval(case):
    # the phase pass never samples the profile outside the hull of phi_a and phi_b
    ctx, bumped = case
    value, moved = green_function(ctx), green_function(bumped)
    assert moved.matrix.tobytes() == value.matrix.tobytes()
    assert moved.diagnostics == value.diagnostics


#: Finite slots of any sign and size short of overflow, with both zeros drawn often.
_SLOTS = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0])


def _bits(value):
    return np.asarray(value, dtype=float).view(np.int64).tolist()


@settings(max_examples=100, **_SETTINGS)
@given(st.lists(_SLOTS, min_size=4, max_size=4), st.lists(_SLOTS, min_size=4, max_size=4),
       st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]), _SLOTS, _SLOTS,
       st.floats(-1e50, 1e50), st.lists(st.lists(_SLOTS, min_size=4, max_size=4),
                                        min_size=1, max_size=8))
def test_slot_products_have_the_bits_of_the_metric_sum(x_a, x_b, p0, p1, p2, p3, m, points):
    # the context's phases and mass gap, the far phases and i pL.dx^L of
    # green._prepare and kernels.phase_pass's k.pL, each against the
    # minkowski.dot expression it replaces; zeros keep their sign
    pL, points = np.array([p0, p1, p2, p3]), np.array(points)
    ctx = EvalContext(m=m, x_a=x_a, x_b=x_b, pL=pL, cfg=FieldConfig(g=1.0, B=0.5))
    assert _bits(ctx.phi_a) == _bits(dot(WAVE_K, ctx.x_a).real)
    assert _bits(ctx.phi_b) == _bits(dot(WAVE_K, ctx.x_b).real)
    assert _bits(ctx.mass_gap) == _bits(dot(pL, pL).real - ctx.m ** 2)
    assert _bits(light_cone(points)) == _bits(dot(WAVE_K, points).real)
    assert _bits(longitudinal_dot(pL, points - ctx.x_a)) == _bits(dot(pL, points - ctx.x_a))
    assert _bits(light_cone(pL)) == _bits(dot(WAVE_K, pL).real)


def _per_point_quad(f, a, b, abs_tol, rel_tol):
    """The K15/G7 loop with one integrand call per node, re-sorting and
    re-summing every panel at each step (the form the running totals replace)."""
    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        stack = np.array([f(mid + half * x) for x in XK], dtype=complex)
        kron = half * np.sum(WK * stack)
        return kron, abs(kron - half * np.sum(WG * stack[_G_IDX]))

    heap, counter, nodes = [], 0, 0
    for lo, hi in ((a, b),):
        kron, err = panel(lo, hi)
        heap.append((-err, counter, lo, hi, kron))
        counter, nodes = counter + 1, nodes + 15
    while True:
        total_err = -sum(item[0] for item in heap)
        total = 0.0j
        comp = 0.0j
        for item in sorted(heap, key=lambda item: item[2]):
            y = item[4] - comp
            t = total + y
            comp = (t - total) - y
            total = t
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, total_err, nodes
        _, _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            kron, err = panel(*seg)
            heapq.heappush(heap, (-err, counter, seg[0], seg[1], kron))
            counter, nodes = counter + 1, nodes + 15


_TERMS = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-20.0, 20.0),
                            st.floats(-3.0, 3.0), st.floats(0.05, 2.0)), min_size=1, max_size=3)


@settings(max_examples=30, **_SETTINGS)
@given(_TERMS, st.floats(-3.0, 3.0), st.floats(0.1, 6.0), st.sampled_from([1e-12, 1e-10]))
def test_panel_at_once_quadrature_matches_per_point_evaluation(terms, a, length, tol):
    def integrand(x):
        return sum((re + 1j * im) * np.exp(1j * w * x) / (width + (x - centre) ** 2)
                   for re, im, w, centre, width in terms)

    value, error, nodes = _per_point_quad(integrand, a, a + length, tol, 100.0 * tol)
    res = adaptive_quad(integrand, a, a + length, abs_tol=tol, rel_tol=100.0 * tol)
    assert res.nodes == nodes
    assert abs(res.value - value) <= 1e-15 * max(1.0, abs(value))
    # |kronrod - gauss| cancels ~10 digits, so last-bit differences between
    # scalar and array evaluation of the integrand show at ~1e-7 there
    assert res.error_estimate == pytest.approx(error, rel=1e-6)


@settings(max_examples=300, **_SETTINGS)
@given(st.just(0.0) | st.floats(-5.0, 5.0), st.floats(1e-3, 1e3), st.floats(1e-6, np.pi / 2.0),
       st.integers(0, len(RAY_SEEDS)), st.integers(0, 200), st.integers(0, 2 ** 200 - 1))
def test_ray_nodes_meet_no_kernel_singularity(b, gap, theta, seed, depth, bits):
    # the caustic check that `folded_kernel` does not make, on the ray's own nodes:
    # the Kronrod nodes of a panel adaptive_quad can make on (0, 1), one of
    # `_green_batch`'s seeded panels bisected `depth` times, mapped to e0 as it maps them
    scale = 2.0 / (gap * np.sin(theta))
    edges = [0.0, *(s / (s + scale) for s in RAY_SEEDS), 1.0]
    lo, hi = edges[seed], edges[seed + 1]
    for level in range(depth):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bits >> level & 1 else (lo, mid)
    u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * XK
    # a node rounded onto u = 1 is s = infinity, where the quadrature refuses the
    # non-finite value; the integrand is negligible there, and no ray bisects so deep
    assume(u[-1] < 1.0)
    e0 = scale * u / (1.0 - u) * np.exp(1j * theta)
    assert np.all(e0 != 0)
    # |sin(e0 b / 2)| = |1 - q| / (2 |q|^{1/2}) >= tolerance where |e0 b / 2| >= 1
    tolerance = 1e-10
    z = 1j * abs(b) * e0
    caustic = (np.abs(np.expm1(z)) < 2.0 * tolerance * np.sqrt(np.abs(np.exp(z)))) \
        & (np.abs(z) >= 2.0)
    assert not caustic.any()


@settings(max_examples=15, **_SETTINGS)
@given(_eval_contexts(), st.floats(0.3, np.pi / 2.0))
def test_green_function_does_not_depend_on_the_contour_angle(ctx, theta):
    euclidean = green_function(ctx).matrix
    rotated = green_function(replace(ctx, theta=theta)).matrix
    # each side meets max(abs_tol, rel_tol |G|)
    bound = 2.0 * max(ctx.abs_tol, ctx.rel_tol * np.linalg.norm(euclidean))
    assert np.linalg.norm(rotated - euclidean) <= bound


@settings(max_examples=10, **_SETTINGS)
@given(_eval_contexts())
def test_green_function_is_bit_identical_across_evaluations(ctx):
    first, second = green_function(ctx), green_function(ctx)
    assert first.matrix.tobytes() == second.matrix.tobytes()
    assert first.diagnostics == second.diagnostics


@st.composite
def _translations(draw):
    """A zero-profile context with b = g B of either sign or 0, and a
    transverse shift c."""
    ctx = draw(_eval_contexts())
    cfg = FieldConfig(g=ctx.cfg.g, B=ctx.cfg.B * draw(st.sampled_from([1.0, 0.0])),
                      profile=ZeroProfile())
    shift = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), 0.0, 0.0])
    return replace(ctx, cfg=cfg), shift


def _gauge_phase(ctx, shift):
    """exp(i (b/2)(c2 D1 - c1 D2)), D = x_b - x_a: what translating both
    endpoints by c does to the cross term xb1 xa2 - xb2 xa1."""
    d = ctx.x_b - ctx.x_a
    return np.exp(0.5j * ctx.cfg.g * ctx.cfg.B * (shift[1] * d[0] - shift[0] * d[1]))


@settings(max_examples=20, **_SETTINGS)
@given(_translations(), st.floats(0.1, 3.0), st.floats(0.3, np.pi / 2.0))
def test_ray_kernel_picks_up_the_gauge_phase_under_translation(case, s, theta):
    ctx, shift = case
    e0 = s * np.exp(1j * theta)
    moved = replace(ctx, x_a=ctx.x_a + shift, x_b=ctx.x_b + shift)
    kernel, kernel_moved = (_ray_kernel(e0, c.cfg.g * c.cfg.B, c.x_a, c.x_b) for c in (ctx, moved))
    assert abs(kernel_moved - kernel * _gauge_phase(ctx, shift)) <= 1e-13 * abs(kernel)


@settings(max_examples=10, **_SETTINGS)
@given(_translations())
def test_zero_profile_green_function_picks_up_the_gauge_phase_under_translation(case):
    ctx, shift = case
    value = green_function(ctx)
    moved = green_function(replace(ctx, x_a=ctx.x_a + shift, x_b=ctx.x_b + shift))
    assert moved.diagnostics.nodes == value.diagnostics.nodes
    deviation = np.linalg.norm(moved.matrix - value.matrix * _gauge_phase(ctx, shift))
    assert deviation <= 1e-13 * np.linalg.norm(value.matrix)


@st.composite
def _rotations(draw):
    """A zero-profile context with B of either sign, and an angle."""
    ctx = draw(_eval_contexts())
    cfg = FieldConfig(g=ctx.cfg.g, B=ctx.cfg.B, profile=ZeroProfile())
    return replace(ctx, cfg=cfg), draw(st.floats(0.0, 2.0 * np.pi))


def _chi(x_a, x_b):
    return x_b[0] * x_a[1] - x_b[1] * x_a[0]


@settings(max_examples=30, **_SETTINGS)
@given(_rotations())
def test_zero_profile_green_function_picks_up_the_gauge_phase_under_rotation(case):
    # rho^2 is unchanged, so only the gauge phase exp(i (g B/2) chi) moves
    ctx, angle = case
    c, s = np.cos(angle), np.sin(angle)
    d = ctx.x_b[:2] - ctx.x_a[:2]
    x_b = ctx.x_b.copy()
    x_b[:2] = ctx.x_a[:2] + np.array([c * d[0] - s * d[1], s * d[0] + c * d[1]])
    phase = np.exp(0.5j * ctx.cfg.g * ctx.cfg.B * (_chi(ctx.x_a, x_b) - _chi(ctx.x_a, ctx.x_b)))
    value = green_function(ctx).matrix
    moved = green_function(replace(ctx, x_b=x_b)).matrix
    assert np.linalg.norm(moved - value * phase) <= 1e-13 * np.linalg.norm(value)
