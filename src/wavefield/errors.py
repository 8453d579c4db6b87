"""Exception types raised by the numerical layers.

Each class declares the exit code `cli.main` returns for it as `exit_code`:
configuration problems -> 2, numeric singularities -> 3 (vanishing light-cone
denominator, singular time-sliced form), quadrature or calibration failures -> 4;
the base class's 5 is also a failed check table's. Every subclass is raised
somewhere in the package.
"""


class WavefieldError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 5


class SchemaError(WavefieldError):
    """Config does not match the documented schema, a value fails `fields._real`, or the
    text cannot be decoded. Carries the value's JSON path, `$` for the whole document."""
    exit_code = 2

    def __init__(self, path, message=""):
        self.path = path
        super().__init__(f"{path}: {message}" if message else path)


class RangeError(WavefieldError):
    """Config value is syntactically fine but out of the accepted range."""
    exit_code = 2


class InvalidProfile(WavefieldError):
    """Plane-wave profile kind or parameters are unusable."""
    exit_code = 2


class DivisionByZero(WavefieldError):
    """A light-cone denominator dot(k, pL) vanished where it must not."""
    exit_code = 3


class QuadratureFailure(WavefieldError):
    """Adaptive quadrature exhausted its node budget or hit a non-finite value."""
    exit_code = 4

    def __init__(self, message, error_estimate=None, nodes=None):
        self.error_estimate = error_estimate
        self.nodes = nodes
        super().__init__(message)


class StepCalibrationFailure(WavefieldError):
    """Finite-difference step calibration could not agree across step sizes."""
    exit_code = 4


class SingularForm(WavefieldError):
    """Time-sliced Gaussian form is singular (caustic hit at finite N)."""
    exit_code = 3
