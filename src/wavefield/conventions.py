"""Frozen numerical conventions, embedded verbatim in every output file.

The `verify` command cross-checks this dict against the constants actually
compiled into the numerical modules, so the emitted ledger cannot drift
silently from the code.
"""

import math

CSV_SCHEMA_VERSION = 2

#: Diagonal of the fixed metric, in slot order (two transverse, two longitudinal).
METRIC_DIAG = (1.0, 1.0, -1.0, 1.0)

#: Default rotation angle of the proper-time ray e0 = s*exp(+i*theta): the Euclidean axis.
DEFAULT_CONTOUR_ANGLE = math.pi / 2

#: Default adaptive-quadrature tolerances and node budget.
DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-8
NODE_CAP = 100_000

#: Default sign convention of the phase-integral kernel (+1 = both
#: exponentials carry +i*g*B*phi/(k.pL); -1 flips the integrand one).
DEFAULT_VOLKOV_SIGN = +1


def convention_ledger(contour_angle=DEFAULT_CONTOUR_ANGLE, volkov_sign=DEFAULT_VOLKOV_SIGN):
    """Dict embedded in output sidecars and the verification report."""
    return {
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "metric_diag": list(METRIC_DIAG),
        "contour_rotation": "e0 = s*exp(+i*theta), s in [0, inf), theta in (0, pi/2]",
        "contour_angle": contour_angle,
        "phi0_policy": "dot(k, x_a)",
        "normalization": "-i/2 per proper-time node; (2pi)^-2 reserved for the position-space transform",
        "volkov_sign": volkov_sign,
        "convergence_domain": "dot(pL, pL) > m^2, the ray integrated to infinity",
    }
