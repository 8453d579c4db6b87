"""Pinned Green-function values.

The matrices, node counts and error estimates below were recorded with the
earlier assembly, which built the two dressed 4x4 braces at every ray node.
The rank-2 form (two scalar integrals times fixed matrices, integrated in the
R-weighted basis whose norm is the Frobenius norm of G) must reproduce them:
the matrix to rounding, the node count exactly (the adaptive stopping rule
sees the same norm), and the error estimate to rounding. The error estimate
is a difference of the Kronrod and Gauss rules that agree to ~1e-10 of each
panel's value, so rounding of 1e-16 in that value shows there at ~1e-7
relative.
"""

import numpy as np
import pytest

from wavefield.fields import CircularProfile, FieldConfig
from wavefield.green import EvalContext, green_function

XA = np.array([0.1, -0.2, 0.3, 0.0])
XB = np.array([0.6, 0.4, -0.1, 0.5])
PL = np.array([0.0, 0.0, 0.2, 2.0])

PINNED = {
    # the README example
    "readme-circular": dict(
        amplitude=0.4, phi0=None, nodes=390, error_estimate=1.402958518105507e-10,
        matrix=[
        [complex(0.021100506546373157, 0.03568268189715862), complex(0.004278225215217301, -0.0026615695619844415), complex(0.0, 0.0), complex(0.004278225215217301, -0.0026615695619844415)],
        [complex(0.003492060828352569, -0.0019603151789369814), complex(0.026548134792025543, 0.04489506669732642), complex(-0.003492060828352569, 0.0019603151789369814), complex(0.0, 0.0)],
        [complex(0.0, 0.0), complex(0.004278225215217301, -0.0026615695619844415), complex(0.021100506546373157, 0.03568268189715862), complex(0.004278225215217301, -0.0026615695619844415)],
        [complex(-0.003492060828352569, 0.0019603151789369814), complex(0.0, 0.0), complex(0.003492060828352569, -0.0019603151789369814), complex(0.026548134792025543, 0.04489506669732642)],
        ]),
    # |K(phi_a)| = 0.61: M+- are neither unit-norm nor orthogonal, so the
    # stopping rule only matches through the R weighting
    "dressed-circular": dict(
        amplitude=4.0, phi0=-0.5, nodes=360, error_estimate=2.4312698578353544e-10,
        matrix=[
        [complex(-0.001972946778924771, -0.007723289489635017), complex(-0.00815453256340519, 0.0005312352818220319), complex(-1.3592066307309006e-20, -1.5543683429928486e-20), complex(-0.00815453256340519, 0.0005312352818220319)],
        [complex(-0.010133066071259089, 0.004555339664859334), complex(-0.002937273124179132, -0.011498237504674777), complex(0.010133066071259089, -0.004555339664859334), complex(-3.0037266024296643e-21, 1.354012348961477e-20)],
        [complex(1.3592066307309006e-20, 1.5543683429928486e-20), complex(-0.00815453256340519, 0.0005312352818220319), complex(-0.001972946778924771, -0.007723289489635017), complex(-0.00815453256340519, 0.0005312352818220319)],
        [complex(0.010133066071259089, -0.004555339664859334), complex(3.0037266024296643e-21, -1.354012348961477e-20), complex(-0.010133066071259089, 0.004555339664859334), complex(-0.002937273124179132, -0.011498237504674777)],
        ]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_green_function_matches_pinned_values(name):
    pin = PINNED[name]
    cfg = FieldConfig(g=0.9, B=0.5, phi0=pin["phi0"],
                      profile=CircularProfile(amplitude=pin["amplitude"], frequency=1.1))
    value = green_function(EvalContext(m=0.8, x_a=XA, x_b=XB, pL=PL, cfg=cfg))
    expected = np.array(pin["matrix"])
    assert np.linalg.norm(value.matrix - expected) <= 1e-13 * np.linalg.norm(expected)
    assert value.diagnostics.nodes == pin["nodes"]
    assert value.diagnostics.error_estimate == pytest.approx(pin["error_estimate"], rel=1e-6)
