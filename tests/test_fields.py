import hashlib
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefield.errors import InvalidProfile, RangeError
from wavefield.fields import (CircularProfile, FieldConfig, LinearProfile, PulseProfile,
                              TabulatedProfile, ZeroProfile, make_profile)
from wavefield.green import EvalContext, total_potential_lowered
from wavefield.minkowski import EPS, EPS_CONJ, METRIC, UNIT_FIELD, UNIT_FIELD_MIXED, WAVE_K, dot


def test_constant_tensor_eigenstructure():
    # the field at B = 0.8 is 0.8 times the generator
    mixed, lowered = 0.8 * UNIT_FIELD_MIXED, 0.8 * UNIT_FIELD
    assert np.allclose(mixed @ EPS, 0.8j * EPS, atol=1e-14)
    assert np.allclose(mixed @ EPS_CONJ, -0.8j * EPS_CONJ, atol=1e-14)
    # mixed form is the real transverse rotation generator
    assert mixed.dtype == np.float64
    assert np.allclose(mixed[:2, :2], [[0.0, 0.8], [-0.8, 0.0]])
    assert np.max(np.abs(mixed[2:, :])) == 0.0
    assert np.max(np.abs(lowered + lowered.T)) < 1e-14


def test_profiles_are_transverse():
    # the lowered potential of `dirac`'s gauge term: the profile's components
    # fill the transverse slots and nothing else
    profiles = [
        LinearProfile(amplitude=0.5, frequency=1.3),
        CircularProfile(amplitude=0.5, frequency=1.3),
        PulseProfile(amplitude=0.5, frequency=1.3, sigma=2.0),
    ]
    for p in profiles:
        for phi in (-1.4, 0.0, 2.2):
            x = np.array([0.3, -0.2, phi, 0.0])            # dot(k, x) = x2 - x3
            for b in (0.7, 0.0):
                ctx = EvalContext(m=0.8, x_a=np.zeros(4), x_b=x, pL=np.array([0.0, 0.0, 0.2, 2.0]),
                                  cfg=FieldConfig(g=1.0, B=b, profile=p))
                a = total_potential_lowered(ctx, x)
                assert a[2] == 0.0 and a[3] == 0.0
                assert abs(dot(WAVE_K, METRIC * a)) == 0.0
            # at B = 0, the profile's components themselves
            assert (a[0], a[1]) == p.components(phi)


def test_circular_profile_lightcone_slope():
    # dot(eps, A) = (a / sqrt 2) e^{i nu phi} is the working identity: K is
    # integrated by parts, so the potential enters, not its slope
    a, nu = 0.7, 1.9
    p = CircularProfile(amplitude=a, frequency=nu)
    for phi in (-0.8, 0.3, 1.7):
        want = a / np.sqrt(2.0) * np.exp(1j * nu * phi)
        a1, a2 = p.components(phi)
        assert (a1 + 1j * a2) / np.sqrt(2.0) == pytest.approx(want, abs=1e-14)


def test_pulse_envelope_decay():
    p = PulseProfile(amplitude=1.0, frequency=2.0, sigma=0.5)
    assert np.hypot(*p.components(0.0)) > 0.5
    assert np.hypot(*p.components(5.0)) < 1e-8


def test_pulse_needs_positive_width():
    with pytest.raises(InvalidProfile):
        PulseProfile(amplitude=1.0, frequency=2.0, sigma=0.0)


def test_tabulated_profile_matches_samples_and_slope():
    grid = np.linspace(-2.0, 2.0, 41)
    a1 = np.sin(1.5 * grid)
    a2 = 0.3 * grid**2
    p = TabulatedProfile(phi_grid=grid, a1=a1, a2=a2)
    v = p.components(0.37)
    assert v[0] == pytest.approx(np.sin(1.5 * 0.37), abs=2e-4)
    assert v[1] == pytest.approx(0.3 * 0.37**2, abs=2e-4)


def test_tabulated_profile_validation():
    with pytest.raises(InvalidProfile):
        TabulatedProfile(phi_grid=[0.0, 1.0, 2.0], a1=[0, 0, 0], a2=[0, 0, 0])
    with pytest.raises(InvalidProfile):
        TabulatedProfile(phi_grid=[0.0, 1.0, 0.5, 2.0], a1=np.zeros(4), a2=np.zeros(4))
    with pytest.raises(InvalidProfile):
        TabulatedProfile(phi_grid=[0.0, 1.0, 2.0, 3.0], a1=np.zeros(3), a2=np.zeros(4))


def _pinned_splines():
    """Seeded tabulated profiles on 4 to 40 uneven knots, and one whose a1
    samples alternate +0.0 and -0.0: (name, profile, grid)."""
    rng = np.random.default_rng(4040)
    for n in (4, 5, 6, 7, 9, 12, 16, 23, 31, 40):
        grid = np.cumsum(rng.uniform(0.05, 1.0, n)) - rng.uniform(0.0, 8.0)
        yield n, TabulatedProfile(grid, *rng.uniform(-1.0, 1.0, (2, n))), grid
    grid = np.linspace(-1.0, 1.5, 6)
    yield "signed-zeros", TabulatedProfile(grid, np.array([0.0, -0.0] * 3), -0.25 * grid), grid


def _spline_digest(profile, grid, rng):
    """sha256 of the reprs of `components` at an array of phases (both grid
    ends, the inner knots and 20 random phases), at its first four as floats
    and as numpy scalars, and of the coefficient tables c0 ... c3."""
    phases = np.concatenate([[grid[0], grid[-1]], grid[1:-1], rng.uniform(grid[0], grid[-1], 20)])
    reprs = []
    for phi in [phases, *phases[:4].tolist(), *phases[:4]]:
        for value in profile.components(phi):
            reprs += [repr(np.shape(value))] + [repr(v) for v in np.ravel(value).tolist()]
    reprs += [repr(v) for table in profile._tables for v in np.ravel(table).tolist()]
    return hashlib.sha256(" ".join(reprs).encode()).hexdigest()[:16]


#: `_spline_digest` of each `_pinned_splines` profile: the spline's values and
#: coefficients are pinned bit for bit, signed zeros included, so a faster way
#: to build or read the spline must keep its arithmetic.
_SPLINE_DIGESTS = {
    4: "f73b82cc1449ed41", 5: "2a8d5345051cb379", 6: "2af43f248297ab8c",
    7: "2dfe2f6c755fb0b9", 9: "9cddac38fa717748", 12: "595c6b784e05b291",
    16: "b6cb57fcc87cb244", 23: "58b18d9b792de036", 31: "77a80307c82b068d",
    40: "928b251237e68c11", "signed-zeros": "1642426423dca366",
}


def test_tabulated_spline_keeps_its_pinned_bits():
    rng = np.random.default_rng(4041)
    assert {name: _spline_digest(profile, grid, rng)
            for name, profile, grid in _pinned_splines()} == _SPLINE_DIGESTS


def test_tabulated_spline_refuses_nan_and_out_of_grid_phases():
    _, profile, grid = next(_pinned_splines())
    for phi in (np.nan, grid[0] - 1e-12, grid[-1] + 1e-12, np.array([grid[0], np.nan]),
                np.array([0.5 * (grid[0] + grid[1]), grid[-1] + 1.0])):
        with pytest.raises(RangeError):
            profile.components(phi)


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


def test_profiles_declare_their_turn_rate_and_knots():
    # the phase pass seeds its panels from these: a carrier turns at its
    # frequency, a pulse's envelope at 1/sigma, a spline's cubic pieces not at
    # all; only the spline has knots, and a profile that declares nothing gets
    # no seeds
    grid = np.linspace(-2.0, 2.0, 9)
    spline = TabulatedProfile(phi_grid=grid, a1=np.sin(grid), a2=np.cos(grid))
    for profile, rate in ((LinearProfile(amplitude=0.5, frequency=-1.2), 1.2),
                          (CircularProfile(amplitude=0.4, frequency=1.1), 1.1),
                          (PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5), 1.1),
                          (PulseProfile(amplitude=0.4, frequency=0.5, sigma=0.8), 1.25),
                          (spline, 0.0), (ZeroProfile(), None)):
        assert profile.turn_rates(-2.0, 2.0) == [(-2.0, 2.0, rate)], profile.kind
    assert spline.knots.tolist() == grid.tolist()
    assert all(len(p.knots) == 0 for p in (ZeroProfile(), CircularProfile(0.4, 1.1)))


def test_a_pulse_turns_at_its_envelope_rate_only_near_its_centre():
    # where 1/sigma beats the carrier, the envelope sets the rate within 8 sigma
    # of the centre, and the carrier alone outside; elsewhere one rate holds
    narrow, wide = PulseProfile(0.4, 1.1, sigma=0.05), PulseProfile(0.4, 1.1, sigma=1.5)
    assert narrow.turn_rates(-5.0, 5.0) == [(-5.0, -0.4, 1.1), (-0.4, 0.4, 20.0), (0.4, 5.0, 1.1)]
    assert narrow.turn_rates(-0.4, 0.4) == [(-0.4, 0.4, 20.0)]
    assert narrow.turn_rates(-0.1, 5.0) == [(-0.1, 0.4, 20.0), (0.4, 5.0, 1.1)]
    assert narrow.turn_rates(-5.0, -0.4) == [(-5.0, -0.4, 1.1)]
    assert narrow.turn_rates(0.4, 5.0) == [(0.4, 5.0, 1.1)]
    assert wide.turn_rates(-5.0, 5.0) == [(-5.0, 5.0, 1.1)]
    assert wide.turn_rates(3.0, 5.0) == [(3.0, 5.0, 1.1)]
    assert CircularProfile(0.4, 1.1).turn_rates(-5.0, 5.0) == [(-5.0, 5.0, 1.1)]
    assert ZeroProfile().turn_rates(-5.0, 5.0) == [(-5.0, 5.0, None)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(-3.0, 3.0), st.floats(1e-3, 2.0), st.floats(-20.0, 20.0), st.floats(1e-6, 40.0))
def test_turn_rates_tile_any_interval_in_order(frequency, sigma, lo, width):
    # whatever the kind and the interval, the pieces start at lo, end at hi and
    # meet end to end, each a non-empty interval with a rate of its own
    hi, grid = lo + width, np.linspace(-2.0, 2.0, 9)
    for profile in (ZeroProfile(), LinearProfile(0.4, frequency), CircularProfile(0.4, frequency),
                    PulseProfile(0.4, frequency, sigma),
                    TabulatedProfile(grid, np.sin(grid), np.cos(grid))):
        pieces = profile.turn_rates(lo, hi)
        assert pieces[0][0] == lo and pieces[-1][1] == hi, profile.kind
        assert all(a < b for a, b, _ in pieces), profile.kind
        assert all(left[1] == right[0] for left, right in zip(pieces, pieces[1:])), profile.kind
        assert all(rate is None or rate >= 0.0 for *_, rate in pieces), profile.kind


def test_profiles_evaluate_arrays_of_phases():
    grid = np.linspace(-2.0, 2.0, 41)
    phis = np.array([-1.3, 0.0, 0.37, 1.9])
    for p in (ZeroProfile(), LinearProfile(amplitude=0.5, frequency=1.2),
              CircularProfile(amplitude=0.4, frequency=1.1),
              PulseProfile(amplitude=0.4, frequency=1.1, sigma=1.5),
              TabulatedProfile(phi_grid=grid, a1=np.sin(grid), a2=np.cos(grid))):
        stacked = p.components(phis)
        assert [np.shape(c) for c in stacked] == [phis.shape] * 2, p.kind
        for i, phi in enumerate(phis):
            np.testing.assert_array_equal(np.array(stacked)[:, i], np.array(p.components(phi)))


def test_tabulated_profile_refuses_to_extrapolate():
    grid = np.linspace(-2.0, 2.0, 17)
    p = TabulatedProfile(phi_grid=grid, a1=np.exp(-grid**2), a2=np.zeros(grid.size))
    p.components(2.0)
    with pytest.raises(RangeError):
        p.components(10.0)                  # the spline would give a1 = -142.8 here
    # a NaN phase is outside too: the spline would give NaN components
    for phases in (np.array([0.1, np.nan]), np.nan):
        with pytest.raises(RangeError):
            p.components(phases)


def test_tabulated_stacked_spline_matches_per_component_splines():
    from scipy.interpolate import CubicSpline

    grid = np.linspace(-2.0, 2.0, 17) + 0.03 * np.sin(np.arange(17))
    a1, a2 = np.exp(-grid**2) * np.cos(2.0 * grid), 0.4 * np.sin(1.3 * grid) + 0.1 * grid
    p = TabulatedProfile(phi_grid=grid, a1=a1, a2=a2)
    phi = np.concatenate([grid, np.linspace(grid[0], grid[-1], 301)])
    refs = [CubicSpline(grid, a, bc_type="natural") for a in (a1, a2)]
    for value, ref in zip(p.components(phi), refs):
        assert np.max(np.abs(value - ref(phi))) <= 1e-15
    for value, ref in zip(p.components(0.37), refs):
        assert np.shape(value) == () and abs(value - ref(0.37)) <= 1e-15
    for outside in (grid[0] - 1e-9, np.array([0.0, grid[-1] + 0.5])):
        with pytest.raises(RangeError):
            p.components(outside)


@st.composite
def _tabulated_samples(draw):
    """A strictly increasing grid of 4-40 points, neighbouring gaps within a
    factor 10 of each other, and two components of random sign and size, all
    built from one drawn seed: Hypothesis draws each float far slower than the
    spline check runs."""
    n, rng = draw(st.integers(4, 40)), random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    unit = rng.uniform(0.01, 10.0)
    gaps = unit * np.array([rng.uniform(0.1, 1.0) for _ in range(n - 1)])
    grid = rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(gaps)])
    size = rng.uniform(1e-3, 1e3)
    values = size * np.array([rng.uniform(-1.0, 1.0) for _ in range(2 * n)]).reshape(2, n)
    return grid, values, rng.uniform(1e-9, 10.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tabulated_samples())
def test_tabulated_spline_matches_scipy_on_random_grids(sample):
    # the in-repo natural spline against scipy's: both round differently, by up
    # to about 1e-14 max|a| on rough data (each is that far from the exact spline)
    from scipy.interpolate import CubicSpline

    grid, values, beyond = sample
    p = TabulatedProfile(phi_grid=grid, a1=values[0], a2=values[1])
    ref = CubicSpline(grid, values.T, bc_type="natural")
    phi = np.concatenate([grid, np.linspace(grid[0], grid[-1], 97)])
    assert np.max(np.abs(np.array(p.components(phi)).T - ref(phi))) <= 2e-14 * np.max(np.abs(values))
    for outside in (grid[0] - beyond, grid[-1] + beyond):
        with pytest.raises(RangeError):
            p.components(outside)


def test_field_config_rejects_non_finite_values():
    for bad in (dict(g=np.nan), dict(g=np.inf), dict(B=np.nan), dict(B=-np.inf)):
        with pytest.raises(RangeError):
            FieldConfig(**{"g": 0.9, "B": 0.5, **bad})


@pytest.mark.parametrize("bad", [dict(g="0.9"), dict(B=None), dict(B=True)],
                         ids=["text-g", "none-B", "boolean-B"])
def test_field_config_rejects_values_that_are_not_real_numbers(bad):
    # a RangeError, as from the CLI, rather than a numpy TypeError or a silent 1.0
    with pytest.raises(RangeError):
        FieldConfig(**{"g": 0.9, "B": 0.5, **bad})


@pytest.mark.parametrize("profile", ["circular", None, 3.0], ids=["kind-name", "none", "number"])
def test_field_config_rejects_a_profile_that_is_not_a_profile(profile):
    # a RangeError when the config is built, not an AttributeError inside green_function
    with pytest.raises(RangeError):
        FieldConfig(g=0.9, B=0.5, profile=profile)


def test_built_objects_keep_no_alias_of_the_callers_arrays():
    # finite float64 arrays take `_real`'s fast path, which still copies them:
    # writing to the caller's arrays afterwards changes no built object
    x_a, x_b, pL = np.array([0.1, -0.2, 0.3, 0.0]), np.array([0.6, 0.4, -0.1, 0.5]), \
        np.array([0.0, 0.0, 0.2, 2.0])
    ctx = EvalContext(m=0.8, x_a=x_a, x_b=x_b, pL=pL, cfg=FieldConfig(g=0.9, B=0.5))
    kept = [v.copy() for v in (x_a, x_b, pL)]
    moved = ctx.x_b + 1.0
    other = replace(ctx, x_b=moved)
    for array in (x_a, x_b, pL, moved):
        array[:] = 7.0
    assert [v.tolist() for v in (ctx.x_a, ctx.x_b, ctx.pL)] == [v.tolist() for v in kept]
    assert other.x_b.tolist() == (kept[1] + 1.0).tolist() and other.x_a.tolist() == kept[0].tolist()
    assert other.x_a is not ctx.x_a
    grid = np.linspace(-2.0, 2.0, 9)
    a1, a2 = np.sin(grid), np.cos(grid)
    profile = TabulatedProfile(phi_grid=grid, a1=a1, a2=a2)
    before = np.array(profile.components(np.linspace(-1.9, 1.9, 7)))
    for array in (grid, a1, a2):
        array[:] = 0.0
    assert profile.phi_grid.tolist() == np.linspace(-2.0, 2.0, 9).tolist()
    assert np.array_equal(np.array(profile.components(np.linspace(-1.9, 1.9, 7))), before)


@pytest.mark.parametrize("entries", [[np.nan, 0.0, 0.2, 2.0], [0.0, 0.1, np.inf, 2.0],
                                     [-np.inf, np.inf, 0.2, 2.0], [1e308, 1e308, 0.2, 2.0],
                                     [-1e308, -1e308, 0.2, 2.0]],
                         ids=["nan", "inf", "infs-of-both-signs", "sum-overflows",
                              "sum-overflows-below"])
def test_a_float64_vector_is_refused_exactly_when_an_entry_is_not_finite(entries):
    # `_real`'s fast path reads a vector's sum: a NaN or infinite entry takes
    # the full check, which refuses it naming the array; finite entries whose
    # sum overflows take it too, which accepts them
    value = np.array(entries)
    ctx = dict(m=0.8, x_b=[0.6, 0.4, -0.1, 0.5], pL=[0.0, 0.0, 0.2, 2.0],
               cfg=FieldConfig(g=0.9, B=0.5))
    if np.isfinite(value).all():
        assert EvalContext(x_a=value, **ctx).x_a.tolist() == entries
        grid = np.linspace(0.0, 5.5e307, 12)     # its sum overflows too
        assert TabulatedProfile(grid, np.zeros(12), np.zeros(12)).phi_grid.tolist() == grid.tolist()
    else:
        with pytest.raises(RangeError, match=r"^x_a must be a list of 4 finite real numbers, got "
                                             + re.escape(repr(value)) + "$"):
            EvalContext(x_a=value, **ctx)
