import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from wavefield.errors import ResonantDenominator, ResonantQ, SingularForm
from wavefield.fields import CircularProfile, FieldConfig, PulseProfile, ZeroProfile
from wavefield.kernels import schwinger_kernel, TransverseEndpoints
from wavefield.minkowski import IDENTITY4, WAVE_K, dot, transverse_spectral
from wavefield.oracles import (SliceLattice, classical_spin_path, free_kernel, free_propagator,
                               landau_green, richardson_extrapolate, sliced_kernel,
                               spin_projection_constant, volkov_kernel_closed_form,
                               zero_profile_green)

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
    target = schwinger_kernel(e0, TransverseEndpoints(*XA, *XB), cfg)
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
    # the U-function closed form against QUADPACK on the same integral
    pL = np.array([0.0, 0.0, 0.2, 2.0])
    for b in (0.6, -0.4, 0.0, 5.0):
        for x_b in ([0.5, 0.0, 0.4, -0.1], [1.1, -0.7, 0.0, 0.3]):
            ref = zero_profile_green([0.1, -0.2, 0.3, 0.0], x_b, pL, 0.8, b)
            value = landau_green([0.1, -0.2, 0.3, 0.0], x_b, pL, 0.8, b)
            assert np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def _spin_path_setup(profile):
    cfg = FieldConfig(g=1.0, B=0.8, profile=profile)
    e0, phi_a = 0.9, 0.1
    slope = -e0 * dot(WAVE_K, np.array([0.0, 0.0, 0.2, 2.1]))
    return cfg, e0, phi_a, slope


def test_spin_path_boundary_identities():
    cfg, e0, phi_a, slope = _spin_path_setup(CircularProfile(amplitude=0.3, frequency=1.2))
    gamma, eta = classical_spin_path([0.0, 1.0], e0, cfg.g, cfg.B, phi_a, slope,
                                     cfg.profile.slope_components)
    transverse_id = transverse_spectral(1.0, 1.0, 0.0)
    assert np.max(np.abs(gamma[0] + gamma[1] - transverse_id)) < 1e-10
    assert np.max(np.abs(eta[0] + eta[1])) < 1e-10


def test_spin_path_resonance_guard():
    # e0 g B = pi puts 1 + e^{Q} on its kernel
    with pytest.raises(ResonantQ):
        classical_spin_path([0.5], np.pi, 1.0, 1.0, 0.0, -np.pi * 2.0,
                            ZeroProfile().slope_components)


@pytest.mark.parametrize("profile", [CircularProfile(amplitude=0.3, frequency=1.2),
                                     PulseProfile(amplitude=0.5, frequency=1.3, sigma=0.7)],
                         ids=["circular", "pulse"])
def test_spin_path_matches_quadpack(profile):
    # the Gauss-Legendre rule against QUADPACK, component by component, with
    # exp(Q tau) taken by scipy's expm of the field tensor
    cfg, e0, phi_a, slope = _spin_path_setup(profile)
    q = e0 * cfg.g * cfg.tensor.mixed.astype(complex)
    transverse = np.diag([1.0, 1.0, 0.0, 0.0])

    def pulled_back(tau):
        def component(s, i):
            return (expm(-q * s) @ profile.derivative(phi_a + slope * s))[i]
        return np.array([quad(component, 0.0, tau, args=(i,), complex_func=True,
                              epsabs=1e-14, epsrel=1e-13, limit=200)[0] for i in range(4)])

    taus = np.array([0.0, 0.3, 0.77, 1.0])
    gamma, eta = classical_spin_path(taus, e0, cfg.g, cfg.B, phi_a, slope,
                                     profile.slope_components)
    half_inv = transverse @ np.linalg.inv(IDENTITY4 + expm(q))
    j_full = pulled_back(1.0)
    for tau, gamma_tau, eta_tau in zip(taus, gamma, eta):
        turn = expm(q * tau)
        ref = e0 * cfg.g * turn @ (expm(q) @ half_inv @ j_full - pulled_back(tau))
        assert np.max(np.abs(gamma_tau - turn @ half_inv)) < 1e-13
        assert np.max(np.abs(eta_tau - ref)) < 1e-13


def test_spin_projection_constant_exact():
    assert spin_projection_constant(np.array([0.0, 0.0, 1.0, 0.0])) == 0.5
    assert spin_projection_constant(np.array([0.0, 0.0, 0.0, 1.0])) == -0.5
    # transverse boundary data carries no longitudinal projection
    assert spin_projection_constant(np.array([1.0, 1.0, 0.0, 0.0])) == 0.0
