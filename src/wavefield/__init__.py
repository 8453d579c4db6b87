"""Exact Dirac Green function in a plane-wave plus constant-magnetic background.

Mixed representation: fixed longitudinal momentum, transverse position. The
value is a single proper-time integral of closed-form factors along the
Euclidean axis, taken to infinity; every factor has an independent
brute-force check in `wavefield.oracles` / `wavefield.verification`.

The package root holds what the README's Library section documents; every
other name is imported from its module.
"""

from .errors import QuadratureFailure, RangeError, WavefieldError
from .fields import (CircularProfile, FieldConfig, LinearProfile, PulseProfile,
                     TabulatedProfile, ZeroProfile)
from .green import EvalContext, dirac_apply, green_function, spin_factor
from .kernels import schwinger_kernel
from .quadrature import adaptive_quad

__version__ = "0.1.0"

__all__ = [
    "CircularProfile", "EvalContext", "FieldConfig", "LinearProfile", "PulseProfile",
    "QuadratureFailure", "RangeError", "TabulatedProfile", "WavefieldError", "ZeroProfile",
    "adaptive_quad", "dirac_apply", "green_function", "schwinger_kernel", "spin_factor",
    "__version__",
]
