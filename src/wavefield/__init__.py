"""Exact Dirac Green function in a plane-wave plus constant-magnetic background.

Mixed representation: fixed longitudinal momentum, transverse position. The
value is a single proper-time integral of closed-form factors along the
Euclidean axis, taken to infinity; every factor has an independent
brute-force check in `wavefield.oracles` / `wavefield.verification`.
"""

from .conventions import convention_ledger
from .errors import (DivisionByZero, InvalidProfile, KernelSingularity,
                     PoleError, QuadratureFailure, RangeError, ResonantDenominator,
                     ResonantQ, SchemaError, SingularForm, StepCalibrationFailure,
                     WavefieldError)
from .fields import (CircularProfile, FieldConfig, LinearProfile,
                     PlaneWaveProfile, PulseProfile, TabulatedProfile, ZeroProfile,
                     make_profile, total_field_tensor)
from .green import (EvalContext, PropagatorValue, dirac_apply, green_function,
                    green_function_zero_k, spin_factor)
from .kernels import schwinger_kernel, spin_determinant
from .minkowski import (EPS, EPS_CONJ, GAMMA, METRIC, P_MINUS, P_PLUS, WAVE_K, dot, slash,
                        tanh_projector_identity)
from .quadrature import QuadratureResult, adaptive_quad

__version__ = "0.1.0"

__all__ = [
    "CircularProfile", "DivisionByZero", "EPS", "EPS_CONJ", "EvalContext", "FieldConfig",
    "GAMMA", "InvalidProfile", "KernelSingularity", "LinearProfile", "METRIC", "P_MINUS",
    "P_PLUS", "PlaneWaveProfile", "PoleError", "PropagatorValue", "PulseProfile",
    "QuadratureFailure", "QuadratureResult", "RangeError", "ResonantDenominator",
    "ResonantQ", "SchemaError", "SingularForm", "StepCalibrationFailure",
    "TabulatedProfile", "WAVE_K", "WavefieldError", "ZeroProfile", "adaptive_quad",
    "convention_ledger", "dirac_apply", "dot", "green_function", "green_function_zero_k",
    "make_profile", "schwinger_kernel", "slash", "spin_determinant", "spin_factor",
    "tanh_projector_identity", "total_field_tensor", "__version__",
]
