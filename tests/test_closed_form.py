"""`green_function` at default settings against the closed-form U-function
oracle, `oracles.landau_green`, within max(abs_tol, rel_tol |G|).

For a wave the oracle takes the drift, the cross phase and the kernels K, K*
from `oracles` (the nested double-exponential drift and action, and the circular
profile's antiderivative), never from `phase_pass`, and builds the braces
M+- here from the printed formula.
"""

import numpy as np
import pytest

from wavefield.fields import CircularProfile, FieldConfig
from wavefield.green import EvalContext, green_function
from wavefield.minkowski import (IDENTITY4, P_MINUS, P_PLUS, SLASH_EPS, SLASH_EPS_CONJ, SLASH_K,
                                 WAVE_K, dot)
from wavefield.oracles import (cross_phase_nested, drift_nested, landau_green,
                               volkov_kernel_closed_form)

XA = np.array([0.1, -0.2, 0.3, 0.0])
XB = np.array([0.6, 0.4, -0.1, 0.5])
PL = np.array([0.0, 0.0, 0.2, 2.0])
README_FIELD = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))


def _closed_form(ctx: EvalContext) -> np.ndarray:
    cfg, b = ctx.cfg, ctx.cfg.g * ctx.cfg.B
    if cfg.profile.is_zero:
        return landau_green(ctx.x_a, ctx.x_b, ctx.pL, ctx.m, b)
    kp = dot(WAVE_K, ctx.pL).real
    phi_a, phi_b = ctx.phi_a, ctx.phi_b
    wave = (cfg.profile.components, cfg.g, cfg.B, kp, phi_a, phi_b)
    params = dict(g=cfg.g, kp=kp, phi0=phi_a, beta=b / kp, a=cfg.profile.amplitude,
                  nu=cfg.profile.frequency, sign=ctx.volkov_sign)
    k_a, k_b = (volkov_kernel_closed_form("circular_profile", params, phi)
                for phi in (phi_a, phi_b))
    # real data: K* is the complex conjugate of K
    plus = (IDENTITY4 - SLASH_K @ SLASH_EPS_CONJ * k_b) @ P_PLUS \
        @ (IDENTITY4 + SLASH_K @ SLASH_EPS * np.conj(k_a))
    minus = (IDENTITY4 - SLASH_K @ SLASH_EPS * np.conj(k_b)) @ P_MINUS \
        @ (IDENTITY4 + SLASH_K @ SLASH_EPS_CONJ * k_a)
    return landau_green(ctx.x_a, ctx.x_b, ctx.pL, ctx.m, b, drift=drift_nested(*wave),
                        cross=cross_phase_nested(*wave, ctx.x_b[:2]), plus=plus, minus=minus)


@pytest.mark.parametrize("cfg, pL", [
    (FieldConfig(g=1.0, B=0.6), PL),
    (FieldConfig(g=1.0, B=-0.4), PL),
    (FieldConfig(g=1.0, B=0.0), PL),
    (README_FIELD, PL),
    # gap 0.032: the decay length 2 / gap is 62, where a ray cut off at a
    # fixed proper time missed the tail
    (README_FIELD, np.array([0.0, 0.0, 0.0, 0.82])),
], ids=["zero-B-positive", "zero-B-negative", "zero-B-zero", "circular", "small-gap"])
def test_green_function_matches_the_closed_form(cfg, pL):
    ctx = EvalContext(m=0.8, x_a=XA, x_b=XB, pL=pL, cfg=cfg)
    reference = _closed_form(ctx)
    value = green_function(ctx).matrix
    bound = max(ctx.abs_tol, ctx.rel_tol * np.linalg.norm(reference))
    assert np.linalg.norm(value - reference) <= bound
