"""`green_function` at default settings against the closed-form U-function
oracle, `oracles.landau_green`, within max(abs_tol, rel_tol |G|).

For a wave the oracle takes the drift, the cross phase and the braces M+-
from `oracles` (the nested double-exponential drift and action, and the printed
braces at the closed-form K of the circular profile's carrier), never from
`phase_pass`.
"""

import numpy as np
import pytest

from wavefield.fields import CircularProfile, FieldConfig
from wavefield.green import EvalContext, green_function
from wavefield.minkowski import WAVE_K, dot
from wavefield.oracles import carrier_kernel, cross_phase_nested, dressed_braces, landau_green
from wavefield.verification import _slope_terms

XA = np.array([0.1, -0.2, 0.3, 0.0])
XB = np.array([0.6, 0.4, -0.1, 0.5])
PL = np.array([0.0, 0.0, 0.2, 2.0])
README_FIELD = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))


def _closed_form(ctx: EvalContext) -> np.ndarray:
    cfg, b = ctx.cfg, ctx.cfg.g * ctx.cfg.B
    if cfg.profile.is_zero:
        return landau_green(ctx.x_a, ctx.x_b, ctx.pL, ctx.m, b)
    kp = dot(WAVE_K, ctx.pL).real
    cross, drift = cross_phase_nested(cfg.profile.components, cfg.g, cfg.B, kp, ctx.phi_a,
                                      ctx.phi_b, ctx.x_b[:2])
    plus, minus = dressed_braces(carrier_kernel(
        *_slope_terms(cfg.profile), cfg.g, kp, ctx.phi_a, ctx.phi_b, b / kp, ctx.volkov_sign))
    return landau_green(ctx.x_a, ctx.x_b, ctx.pL, ctx.m, b, drift=drift, cross=cross,
                        plus=plus, minus=minus)


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
