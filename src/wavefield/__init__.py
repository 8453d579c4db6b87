"""Exact Dirac Green function in a plane-wave plus constant-magnetic background.

Mixed representation: fixed longitudinal momentum, transverse position. The
value is a single proper-time integral of closed-form factors along a ray
rotated into the upper half plane; every factor has an independent
brute-force check in `wavefield.oracles` / `wavefield.verification`.
"""

from .conventions import convention_ledger
from .errors import (ContourCaustic, DivisionByZero, InvalidProfile, KernelSingularity,
                     PoleError, QuadratureFailure, RangeError, ResonantDenominator,
                     ResonantQ, SchemaError, SingularForm, StepCalibrationFailure,
                     VerificationFailure, WavefieldError)
from .fields import (CircularProfile, ConstantFieldTensor, FieldConfig, LinearProfile,
                     PlaneWaveProfile, PulseProfile, TabulatedProfile, ZeroProfile,
                     make_profile, total_field_tensor)
from .green import (EvalContext, PropagatorValue, dirac_apply, green_function,
                    green_function_zero_k, position_space_green, spin_factor,
                    zero_k_value_and_gradient)
from .kernels import (TransverseEndpoints, cross_phase, longitudinal_phase,
                      schwinger_kernel, spin_determinant, volkov_kernel,
                      volkov_kernel_conj)
from .minkowski import (EPS, EPS_CONJ, GAMMA, METRIC, P_MINUS, P_PLUS, WAVE_K, dot,
                        projector_minus, projector_plus, slash, tanh_projector_identity)
from .paths import classical_spin_path, drift_path, phase_path, spin_projection_constant
from .quadrature import QuadratureResult, adaptive_quad

__version__ = "0.1.0"

__all__ = [
    "CircularProfile", "ConstantFieldTensor", "ContourCaustic", "DivisionByZero",
    "EPS", "EPS_CONJ", "EvalContext", "FieldConfig", "GAMMA", "InvalidProfile",
    "KernelSingularity", "LinearProfile", "METRIC", "P_MINUS", "P_PLUS",
    "PlaneWaveProfile", "PoleError", "PropagatorValue", "PulseProfile",
    "QuadratureFailure", "QuadratureResult", "RangeError", "ResonantDenominator",
    "ResonantQ", "SchemaError", "SingularForm", "StepCalibrationFailure",
    "TabulatedProfile", "TransverseEndpoints", "VerificationFailure", "WAVE_K",
    "WavefieldError", "ZeroProfile", "adaptive_quad", "classical_spin_path",
    "convention_ledger", "cross_phase", "dirac_apply", "dot", "drift_path",
    "green_function", "green_function_zero_k", "longitudinal_phase", "make_profile",
    "phase_path", "position_space_green", "projector_minus", "projector_plus",
    "schwinger_kernel", "slash", "spin_determinant",
    "spin_factor", "spin_projection_constant", "tanh_projector_identity",
    "total_field_tensor", "volkov_kernel", "volkov_kernel_conj",
    "zero_k_value_and_gradient", "__version__",
]
