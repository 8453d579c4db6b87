import warnings
from pathlib import Path

import numpy as np
import pytest

from wavefield.errors import ResonantDenominator
from wavefield.fields import FieldConfig, ZeroProfile
from wavefield.kernels import schwinger_kernel, TransverseEndpoints
from wavefield.minkowski import IDENTITY4
from wavefield.oracles import (SliceLattice, free_kernel, free_propagator,
                               richardson_extrapolate, sliced_kernel,
                               volkov_kernel_closed_form, zero_profile_green)

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
    with pytest.raises(ValueError):
        zero_profile_green([0, 0, 0, 0], [1, 0, 0, 0], [0.0, 0.0, 0.0, 1.0], m=2.0, b=0.5)
    with pytest.raises(ValueError):
        zero_profile_green([0.3, 0.2, 0, 0], [0.3, 0.2, 1, 1], [0.0, 0.0, 0.2, 2.0], m=0.8, b=0.5)


def test_oracles_do_not_import_production_modules():
    source = Path(__file__).resolve().parents[1] / "src" / "wavefield" / "oracles.py"
    text = source.read_text()
    for name in ("kernels", "green", "paths", "quadrature"):
        assert f"from .{name}" not in text
        assert f"from wavefield.{name}" not in text
        assert f"import {name}" not in text
