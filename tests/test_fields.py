import numpy as np
import pytest

from wavefield.errors import InvalidProfile, RangeError
from wavefield.fields import (CircularProfile, ConstantFieldTensor, FieldConfig,
                              LinearProfile, PulseProfile, TabulatedProfile, ZeroProfile,
                              make_profile, total_field_tensor)
from wavefield.minkowski import EPS, EPS_CONJ, METRIC, WAVE_K, dot


def test_constant_tensor_eigenstructure():
    t = ConstantFieldTensor(B=0.8)
    assert np.allclose(t.apply(EPS), 0.8j * EPS, atol=1e-14)
    assert np.allclose(t.apply(EPS_CONJ), -0.8j * EPS_CONJ, atol=1e-14)
    # mixed form is the real transverse rotation generator
    assert t.mixed.dtype == np.float64
    assert np.allclose(t.mixed[:2, :2], [[0.0, 0.8], [-0.8, 0.0]])
    assert np.max(np.abs(t.mixed[2:, :])) == 0.0
    lowered = t.lowered
    assert np.max(np.abs(lowered + lowered.T)) < 1e-14


def test_total_field_tensor_antisymmetry_and_split():
    cfg = FieldConfig(g=1.0, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.2))
    f = total_field_tensor(cfg, phi=0.7)
    assert np.max(np.abs(f + f.T)) < 1e-14
    wave_part = f - cfg.tensor.lowered
    k_low = METRIC * WAVE_K
    slope_low = METRIC * cfg.profile.derivative(0.7)
    assert np.allclose(wave_part, np.outer(k_low, slope_low) - np.outer(slope_low, k_low),
                       atol=1e-14)


def test_profiles_are_transverse():
    profiles = [
        LinearProfile(amplitude=0.5, frequency=1.3),
        CircularProfile(amplitude=0.5, frequency=1.3),
        PulseProfile(amplitude=0.5, frequency=1.3, sigma=2.0),
    ]
    for p in profiles:
        for phi in (-1.4, 0.0, 2.2):
            a = p.potential(phi)
            assert a[2] == 0.0 and a[3] == 0.0
            assert abs(dot(WAVE_K, a)) == 0.0


def test_circular_profile_lightcone_slope():
    # dot(eps, A') = (i a nu / sqrt 2) e^{i nu phi} is the working identity
    a, nu = 0.7, 1.9
    p = CircularProfile(amplitude=a, frequency=nu)
    for phi in (-0.8, 0.3, 1.7):
        want = 1j * a * nu / np.sqrt(2.0) * np.exp(1j * nu * phi)
        assert dot(EPS, p.derivative(phi)) == pytest.approx(want, abs=1e-14)


def test_pulse_envelope_decay():
    p = PulseProfile(amplitude=1.0, frequency=2.0, sigma=0.5)
    assert np.linalg.norm(p.potential(0.0)) > 0.5
    assert np.linalg.norm(p.potential(5.0)) < 1e-8


def test_pulse_needs_positive_width():
    with pytest.raises(InvalidProfile):
        PulseProfile(amplitude=1.0, frequency=2.0, sigma=0.0)


def test_tabulated_profile_matches_samples_and_slope():
    grid = np.linspace(-2.0, 2.0, 41)
    a1 = np.sin(1.5 * grid)
    a2 = 0.3 * grid**2
    p = TabulatedProfile(phi_grid=grid, a1=a1, a2=a2)
    v = p.potential(0.37)
    assert v[0] == pytest.approx(np.sin(1.5 * 0.37), abs=2e-4)
    assert v[1] == pytest.approx(0.3 * 0.37**2, abs=2e-4)
    d = p.derivative(0.37)
    assert d[0] == pytest.approx(1.5 * np.cos(1.5 * 0.37), abs=2e-3)


def test_tabulated_profile_validation():
    with pytest.raises(InvalidProfile):
        TabulatedProfile(phi_grid=[0.0, 1.0, 2.0], a1=[0, 0, 0], a2=[0, 0, 0])
    with pytest.raises(InvalidProfile):
        TabulatedProfile(phi_grid=[0.0, 1.0, 0.5, 2.0], a1=np.zeros(4), a2=np.zeros(4))
    with pytest.raises(InvalidProfile):
        TabulatedProfile(phi_grid=[0.0, 1.0, 2.0, 3.0], a1=np.zeros(3), a2=np.zeros(4))


def test_make_profile_factory():
    assert make_profile("zero").is_zero
    p = make_profile("circular", amplitude=0.2, frequency=1.0)
    assert isinstance(p, CircularProfile)
    with pytest.raises(InvalidProfile):
        make_profile("sawtooth")
    with pytest.raises(InvalidProfile):
        make_profile("circular", amplitude=0.2)
    with pytest.raises(InvalidProfile):
        make_profile("zero", amplitude=0.2)


def test_zero_profile_flag_feeds_short_circuits():
    assert ZeroProfile().is_zero
    assert not CircularProfile(amplitude=0.1, frequency=1.0).is_zero
    assert LinearProfile(amplitude=0.0, frequency=1.0).is_zero


def test_profiles_evaluate_arrays_of_phases():
    grid = np.linspace(-2.0, 2.0, 41)
    phis = np.array([-1.3, 0.0, 0.37, 1.9])
    for p in (ZeroProfile(), LinearProfile(amplitude=0.5, frequency=1.2),
              CircularProfile(amplitude=0.4, frequency=1.1),
              PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5),
              TabulatedProfile(phi_grid=grid, a1=np.sin(grid), a2=np.cos(grid))):
        stacked, slopes = p.potential(phis), p.derivative(phis)
        assert stacked.shape == slopes.shape == (4, 4)
        for phi, value, slope in zip(phis, stacked, slopes):
            np.testing.assert_array_equal(value, p.potential(phi))
            np.testing.assert_array_equal(slope, p.derivative(phi))


def test_tabulated_profile_refuses_to_extrapolate():
    grid = np.linspace(-2.0, 2.0, 17)
    p = TabulatedProfile(phi_grid=grid, a1=np.exp(-grid**2), a2=np.zeros(grid.size))
    p.potential(2.0)
    p.derivative(np.array([-2.0, 0.0, 2.0]))
    with pytest.raises(RangeError):
        p.potential(10.0)                   # the spline would give a1 = -142.8 here
    with pytest.raises(RangeError):
        p.derivative(np.array([0.0, -2.5]))


def test_tabulated_stacked_spline_matches_per_component_splines():
    from scipy.interpolate import CubicSpline

    grid = np.linspace(-2.0, 2.0, 17) + 0.03 * np.sin(np.arange(17))
    a1, a2 = np.exp(-grid**2) * np.cos(2.0 * grid), 0.4 * np.sin(1.3 * grid) + 0.1 * grid
    p = TabulatedProfile(phi_grid=grid, a1=a1, a2=a2)
    phi = np.concatenate([grid, np.linspace(grid[0], grid[-1], 301)])
    for mine, refs in ((p.components, [CubicSpline(grid, a, bc_type="natural") for a in (a1, a2)]),
                       (p.slope_components,
                        [CubicSpline(grid, a, bc_type="natural").derivative() for a in (a1, a2)])):
        for value, ref in zip(mine(phi), refs):
            assert np.max(np.abs(value - ref(phi))) <= 1e-15
        for value, ref in zip(mine(0.37), refs):
            assert np.shape(value) == () and abs(value - ref(0.37)) <= 1e-15
        for outside in (grid[0] - 1e-9, np.array([0.0, grid[-1] + 0.5])):
            with pytest.raises(RangeError):
                mine(outside)


def test_field_config_rejects_non_finite_values():
    for bad in (dict(g=np.nan), dict(g=np.inf), dict(B=np.nan), dict(B=-np.inf),
                dict(phi0=np.nan), dict(phi0=np.inf)):
        with pytest.raises(RangeError):
            FieldConfig(**{"g": 0.9, "B": 0.5, **bad})
    assert FieldConfig(g=0.9, B=0.5, phi0=None).phi0 is None
