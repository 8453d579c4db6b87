"""Pinned Green-function values.

The matrices, node counts and error estimates below were recorded with the
route that integrates the proper time to infinity on the Euclidean axis
(the default contour angle pi/2), seeded at `green.RAY_SEEDS`. The matrices
lie within 2.0e-14 (readme-circular) and 1.3e-15 (dressed-circular) relative
of the closed-form U-function oracle (`test_closed_form._closed_form`:
`oracles.landau_green` with the drift, cross phase and kernels from
`oracles`), far inside rel_tol 1e-8, so the 1e-13 bound checks that the
value does not drift, the node count must repeat exactly, and the error
estimate to rounding. The error estimate is a difference of the Kronrod and
Gauss rules that agree to ~1e-10 of each panel's value, so rounding of
1e-16 in that value shows there at ~1e-7 relative.

`dirac_apply` is pinned at the README context too. Its differences of 25
nearby G lose about two digits to cancellation, so a change of G by one
rounding moves it by about 1.2e-14 relative; the 1e-13 bound sits above that
floor, so only a larger move of the route fails it.
"""

import numpy as np
import pytest

from wavefield.fields import CircularProfile, FieldConfig
from wavefield.green import EvalContext, dirac_apply, green_function

XA = np.array([0.1, -0.2, 0.3, 0.0])
XB = np.array([0.6, 0.4, -0.1, 0.5])
PL = np.array([0.0, 0.0, 0.2, 2.0])

PINNED = {
    # the README example
    "readme-circular": dict(
        amplitude=0.4, nodes=90, error_estimate=5.636777852433406e-10,
        matrix=[
        [complex(0.02110050654637029, 0.03568268189716461), complex(0.004278225215218, -0.0026615695619842472), complex(0.0, 0.0), complex(0.004278225215218, -0.0026615695619842472)],
        [complex(0.003492060828353142, -0.001960315178936692), complex(0.02654813479202337, 0.04489506669733359), complex(-0.003492060828353142, 0.001960315178936692), complex(0.0, 0.0)],
        [complex(0.0, 0.0), complex(0.004278225215218, -0.0026615695619842472), complex(0.02110050654637029, 0.03568268189716461), complex(0.004278225215218, -0.0026615695619842472)],
        [complex(-0.003492060828353142, 0.001960315178936692), complex(0.0, 0.0), complex(0.003492060828353142, -0.001960315178936692), complex(0.02654813479202337, 0.04489506669733359)],
        ]),
    # |K(phi_b)| = 0.68: M+- are far from the bare projectors, so the stopping
    # rule sees the norm of G only through the brace-norm weighting
    "dressed-circular": dict(
        amplitude=4.0, nodes=120, error_estimate=1.8295039724668637e-10,
        matrix=[
        [complex(-0.0019729467789247734, -0.00772328948963501), complex(-0.011041054939439134, 0.003086694027729306), complex(0.0, -0.0), complex(-0.011041054939439134, 0.003086694027729306)],
        [complex(-0.007501962915382234, 0.0017375964167060322), complex(-0.002937273124179135, -0.011498237504674767), complex(0.007501962915382234, -0.0017375964167060322), complex(0.0, -0.0)],
        [complex(0.0, -0.0), complex(-0.011041054939439134, 0.003086694027729306), complex(-0.0019729467789247734, -0.00772328948963501), complex(-0.011041054939439134, 0.003086694027729306)],
        [complex(0.007501962915382234, -0.0017375964167060322), complex(0.0, -0.0), complex(-0.007501962915382234, 0.0017375964167060322), complex(-0.002937273124179135, -0.011498237504674767)],
        ]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_green_function_matches_pinned_values(name):
    pin = PINNED[name]
    cfg = FieldConfig(g=0.9, B=0.5,
                      profile=CircularProfile(amplitude=pin["amplitude"], frequency=1.1))
    value = green_function(EvalContext(m=0.8, x_a=XA, x_b=XB, pL=PL, cfg=cfg))
    expected = np.array(pin["matrix"])
    assert np.linalg.norm(value.matrix - expected) <= 1e-13 * np.linalg.norm(expected)
    assert value.diagnostics.nodes == pin["nodes"]
    assert value.diagnostics.error_estimate == pytest.approx(pin["error_estimate"], rel=1e-6)


# S = (i D-slash + m) G at the README context, as `dirac_apply` gives it
PINNED_DIRAC = [
    [complex(0.00820692357436252, 0.04298371320156374), complex(-0.0013682446257939108, -0.009830061008769358), complex(0.07290230787654728, -0.05241847879628288), complex(0.1122416208041883, 0.012479544994243554)],
    [complex(-0.0007349184531062168, -0.007853961604279534), complex(0.023761546994588056, 0.04526496317273849), complex(-0.035010835673223745, 0.10741191152462289), complex(-0.07828807949205376, 0.05713555165601326)],
    [complex(-0.07290230787654728, 0.05241847879628288), complex(-0.10539646045983962, -0.016738056293418287), complex(0.025553886899830035, 0.014108577833899773), complex(0.008213404970142592, 0.0055715497095946385)],
    [complex(0.029423538347858706, -0.10427540723832417), complex(0.07828807949205376, -0.05713555165601326), complex(0.006322215778471255, 0.004717457317980818), complex(0.018715468672648592, 0.02656714354299399)],
]


def test_dirac_apply_matches_pinned_value():
    cfg = FieldConfig(g=0.9, B=0.5, profile=CircularProfile(amplitude=0.4, frequency=1.1))
    value = dirac_apply(EvalContext(m=0.8, x_a=XA, x_b=XB, pL=PL, cfg=cfg))
    expected = np.array(PINNED_DIRAC)
    assert np.linalg.norm(value - expected) <= 1e-13 * np.linalg.norm(expected)
