import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from wavefield.errors import QuadratureFailure, ResonantDenominator, SingularForm
from wavefield.fields import (CircularProfile, FieldConfig, LinearProfile, PulseProfile,
                              TabulatedProfile, ZeroProfile)
from wavefield.green import EvalContext, green_function
from wavefield.kernels import schwinger_kernel
from wavefield.minkowski import IDENTITY4, METRIC, P_MINUS, P_PLUS
from wavefield.oracles import (SliceLattice, _interior_spectrum, _k0, cross_phase_nested,
                               drift_nested, free_kernel, free_propagator, landau_green,
                               richardson_extrapolate, sliced_kernel, volkov_kernel_closed_form,
                               zero_profile_gradient, zero_profile_green)

XA = (0.2, -0.1)
XB = (0.9, 0.4)


def test_sliced_free_field_composes_exactly():
    # B = 0: every refinement telescopes back to the one-step free kernel
    e0 = 0.8 * np.exp(1j * np.pi / 4)
    ref = free_kernel(e0, XA, XB)
    for n in (2, 3, 8):
        lat = SliceLattice(n_slices=n, e0=e0, g=1.0, B=0.0, xa=XA, xb=XB)
        assert sliced_kernel(lat) == pytest.approx(ref, rel=1e-10)


def test_sliced_kernel_converges_to_magnetic_kernel():
    e0 = 0.7 * np.exp(1j * np.pi / 4)
    cfg = FieldConfig(g=1.0, B=0.6, profile=ZeroProfile())
    target = schwinger_kernel(e0, XA, XB, cfg)
    ns = [8, 16, 32]
    vals = [sliced_kernel(SliceLattice(n_slices=n, e0=e0, g=1.0, B=0.6, xa=XA, xb=XB))
            for n in ns]
    errs = [abs(v - target) for v in vals]
    assert errs[2] < errs[1] < errs[0]
    limit, order = richardson_extrapolate(ns, vals)
    assert 0.7 < order < 1.3          # midpoint coupling of the magnetic term
    assert abs(limit - target) < 1e-3


def _dense_sliced_kernel(lat):
    """The lattice Gaussian over all 2(N-1) interior coordinates at once: a dense
    eigen-decomposition for the determinant, with the principal square-root
    branch per eigenvalue, and a dense solve (reference for `sliced_kernel`)."""
    n = lat.n_slices
    delta = 1.0 / n
    kappa = 1.0 / (lat.e0 * delta)
    mu = lat.g * lat.B / 2.0
    dim = 2 * (n - 1)
    link = np.array([[1j * kappa, -1j * mu], [1j * mu, 1j * kappa]])
    A = np.zeros((dim, dim), dtype=complex)
    for j in range(n - 1):
        A[2 * j:2 * j + 2, 2 * j:2 * j + 2] = 2j * kappa * np.eye(2)
        if j + 1 < n - 1:
            A[2 * j:2 * j + 2, 2 * j + 2:2 * j + 4] = -link
            A[2 * j + 2:2 * j + 4, 2 * j:2 * j + 2] = -link.T
    xa = np.asarray(lat.xa, dtype=complex)
    xb = np.asarray(lat.xb, dtype=complex)
    b = np.zeros(dim, dtype=complex)
    b[0:2] = 1j * kappa * xa + 1j * mu * np.array([xa[1], -xa[0]])
    b[dim - 2:dim] += 1j * kappa * xb + 1j * mu * np.array([-xb[1], xb[0]])
    c = -0.5j * kappa * (xa @ xa + xb @ xb)
    lam = np.linalg.eigvals(A)
    if np.min(np.abs(lam)) < 1e-12 * np.max(np.abs(lam)):
        raise SingularForm(f"discrete Gaussian singular at e0={lat.e0!r}, N={n}")
    root = np.prod(np.power(lam, -0.5))
    sol = np.linalg.solve(A, b)
    prefactor = (1j / (2.0 * np.pi * lat.e0 * delta)) ** n * (2.0 * np.pi) ** (n - 1)
    return complex(prefactor * root * np.exp(0.5 * (b @ sol) + c))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_paired_lattice_gaussian_matches_the_dense_route(n):
    # real and rotated e0 (up to the Euclidean axis), B of both signs and zero
    rng = np.random.default_rng(n)
    for B in (0.7, -0.5, 0.0):
        for angle in (0.0, np.pi / 6, np.pi / 3, np.pi / 2):
            e0 = rng.uniform(0.3, 1.2) * np.exp(1j * angle)
            lat = SliceLattice(n_slices=n, e0=e0, g=rng.uniform(0.5, 1.5), B=B,
                               xa=rng.uniform(-1.0, 1.0, 2), xb=rng.uniform(-1.0, 1.0, 2))
            ref = _dense_sliced_kernel(lat)
            assert abs(sliced_kernel(lat) - ref) <= 1e-10 * abs(ref)


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
            kernel(SliceLattice(n_slices=n, e0=caustic, g=g, B=B, xa=XA, xb=XB))
        for moved in (0.99 * caustic, 1.01 * caustic):
            value = kernel(SliceLattice(n_slices=n, e0=moved, g=g, B=B, xa=XA, xb=XB))
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
        SliceLattice(n_slices=1, e0=0.5, g=1.0, B=0.0, xa=XA, xb=XB)


def test_closed_form_resonances_raise():
    base = dict(g=1.0, kp=-1.8, phi0=0.0)
    with pytest.raises(ResonantDenominator):
        volkov_kernel_closed_form("constant_slope", dict(base, beta=0.0, c=0.3 + 0j), 0.5)
    with pytest.raises(ResonantDenominator):
        volkov_kernel_closed_form(
            "circular_profile", dict(base, beta=1.3, a=0.5, nu=1.3, sign=-1), 0.5)
    # off resonance the same parameters evaluate fine
    value = volkov_kernel_closed_form(
        "circular_profile", dict(base, beta=1.3, a=0.5, nu=1.3), 0.5)
    assert np.isfinite(abs(value))
    with pytest.raises(ValueError):
        volkov_kernel_closed_form("sawtooth", base, 0.5)


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
            return rate * (np.cos(angle) * a1 - np.sin(angle) * a2 if row == 0
                           else np.sin(angle) * a1 + np.cos(angle) * a2)

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
    # agrees with the in-repo one to rounding and is faster per scalar call
    from scipy.interpolate import CubicSpline

    components = CubicSpline(_KNOTS, _TABLE, bc_type="natural") if len(knots) \
        else profile.components
    g, kp, xb = 0.9, 1.8, (0.6, 0.4)
    for phi_a, phi_b in spans:
        for B in (0.5, -0.7, 0.0):
            wave = (profile.components, g, B, kp, phi_a, phi_b)
            drift, cross = _quadpack_nested(components, *wave[1:], xb, knots)
            assert np.max(np.abs(np.array(drift_nested(*wave, knots)) - drift)) <= 1e-12
            assert abs(cross_phase_nested(*wave, xb, knots) - cross) <= 1e-12


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
