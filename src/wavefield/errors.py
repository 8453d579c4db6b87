"""Exception types raised by the numerical layers.

Exit-code mapping used by the CLI: configuration problems -> 2,
numeric singularities -> 3 (caustic, vanishing light-cone or resonant
denominator, singular time-sliced form), quadrature/calibration failures -> 4,
failed verification checks -> 5 (from the command's status, not an exception).
"""


class WavefieldError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(WavefieldError):
    """Config does not match the documented schema, a value fails `fields._real`, or the
    text cannot be decoded. Carries the value's JSON path, `$` for the whole document."""

    def __init__(self, path, message=""):
        self.path = path
        super().__init__(f"{path}: {message}" if message else path)


class RangeError(WavefieldError):
    """Config value is syntactically fine but out of the accepted range."""


class InvalidProfile(WavefieldError):
    """Plane-wave profile kind or parameters are unusable."""


class DivisionByZero(WavefieldError):
    """A light-cone denominator dot(k, pL) vanished where it must not."""


class KernelSingularity(WavefieldError):
    """Proper-time kernel evaluated on (or too close to) a caustic."""


class ResonantDenominator(WavefieldError):
    """Closed-form phase-integral denominator vanished (resonant profile)."""


class QuadratureFailure(WavefieldError):
    """Adaptive quadrature exhausted its node budget or hit a non-finite value."""

    def __init__(self, message, error_estimate=None, nodes=None):
        self.error_estimate = error_estimate
        self.nodes = nodes
        super().__init__(message)


class StepCalibrationFailure(WavefieldError):
    """Finite-difference step calibration could not agree across step sizes."""


class SingularForm(WavefieldError):
    """Time-sliced Gaussian form is singular (caustic hit at finite N)."""
