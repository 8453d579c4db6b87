"""Frozen numerical conventions, embedded verbatim in every output sidecar.

The `verify` command cross-checks the ledger against the constants actually
compiled into the numerical modules, so the emitted ledger cannot drift
silently from the code. A run's own contour angle and sign sit in the
sidecar's config, not here.
"""

import math

CSV_SCHEMA_VERSION = 3

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


def convention_ledger():
    """Dict of the fixed conventions, embedded in every output sidecar."""
    return {
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "metric_diag": list(METRIC_DIAG),
        "contour_rotation": "e0 = s*exp(+i*theta), s in [0, inf), theta in (0, pi/2]",
        "phi0_policy": "dot(k, x_a)",
        "normalization": "-i/2 per proper-time node; (2pi)^-2 reserved for the position-space transform",
        "convergence_domain": "dot(pL, pL) > m^2, the ray integrated to infinity",
    }
