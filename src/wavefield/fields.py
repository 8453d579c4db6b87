"""Background field data: the constant field strength B and plane-wave profiles.

The constant part is the number B: its tensor f_mn = iB (eps_m eps*_n - eps_n eps*_m)
is B times the fixed generator `minkowski.UNIT_FIELD`. The plane-wave
part is a transverse potential A^p(phi) = a1 e1 + a2 e2 along the light-cone
phase, in the real polarization pair e1, e2 (slots 0 and 1): a profile gives
its two components, each shaped like phi, at a phase or an array of them
(the phase pass integrates K by parts, so no slope is needed). Each built-in
kind also declares where it is not smooth (`knots`) and how fast it turns
along phi, piece by piece on any interval (`turn_rates(lo, hi)`), so the
phase pass can seed its panels; a profile that declares neither is
integrated from its hull breakpoints alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProfile, RangeError


class PlaneWaveProfile:
    """Transverse potential A^p(phi); subclasses fill in the two components."""

    kind = "abstract"

    #: Phases where the components are not smooth; the phase pass cuts there.
    knots: tuple | np.ndarray = ()

    def components(self, phi):
        raise NotImplementedError

    def turn_rates(self, lo: float, hi: float) -> list:
        """Pieces (a, b, rate) that tile [lo, hi] in order, each with the
        fastest rate, in radians per unit phi, at which the components turn or
        vary on it between knots; here one piece at None, the rate unknown (the
        phase pass adds no seeds)."""
        return [(lo, hi, None)]

    @property
    def is_zero(self) -> bool:
        return False

    def params(self) -> dict:
        return {}


class ZeroProfile(PlaneWaveProfile):
    kind = "zero"

    def components(self, phi):
        return np.zeros(np.shape(phi)), np.zeros(np.shape(phi))

    @property
    def is_zero(self):
        return True


def _real(name: str, value, shape=(), error=InvalidProfile):
    """`value` as a float, or as a float array of `shape` (None: any length on
    that axis); `error` unless it holds finite real numbers only (no strings,
    booleans, None, NaN or infinity)."""
    # fast path for what the package passes on itself (every context build and
    # replace): a finite float, or a finite float64 array of the shape, copied
    if not shape:
        if type(value) is float and math.isfinite(value):
            return value
    elif type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == len(shape) \
            and (None in shape or value.shape == shape) and np.isfinite(value).all():
        return value.copy()
    try:
        array = np.asarray(value)
    except ValueError:          # ragged nesting
        array = np.asarray(None)
    if shape and type(value) in (list, tuple) and any(type(v) in (bool, np.bool_) for v in value):
        array = np.asarray(None)    # numpy reads a boolean among numbers as 0 or 1
    if array.dtype.kind not in "iuf" or array.ndim != len(shape) \
            or (None not in shape and array.shape != shape) or not np.isfinite(array).all():
        what = "a finite real number" if not shape else \
            f"a list of {'' if shape[0] is None else f'{shape[0]} '}finite real numbers"
        raise error(f"{name} must be {what}, got {value!r}")
    return array.astype(float) if shape else float(array)


class _Carrier(PlaneWaveProfile):
    """Profiles with an amplitude a and a carrier frequency nu."""

    def __init__(self, amplitude: float, frequency: float):
        self.amplitude = _real("profile amplitude", amplitude)
        self.frequency = _real("profile frequency", frequency)

    def turn_rates(self, lo, hi):
        return [(lo, hi, abs(self.frequency))]

    @property
    def is_zero(self):
        return self.amplitude == 0.0

    def params(self):
        return {"amplitude": self.amplitude, "frequency": self.frequency}


class LinearProfile(_Carrier):
    """A^p = a cos(nu phi) e1 (linear polarization)."""

    kind = "linear"

    def components(self, phi):
        return self.amplitude * np.cos(self.frequency * phi), np.zeros(np.shape(phi))


class CircularProfile(_Carrier):
    """A^p = a (cos(nu phi) e1 + sin(nu phi) e2)."""

    kind = "circular"

    def components(self, phi):
        c = self.frequency * phi
        return self.amplitude * np.cos(c), self.amplitude * np.sin(c)


class PulseProfile(_Carrier):
    """Circular carrier under a Gaussian envelope exp(-phi^2 / (2 sigma^2))."""

    kind = "pulse"

    #: Past this many sigma from the centre the envelope, below exp(-32) = 1.3e-14,
    #: is under any tolerance and only the carrier turns.
    REACH = 8.0

    def __init__(self, amplitude: float, frequency: float, sigma: float):
        sigma = _real("profile sigma", sigma)
        if sigma <= 0:
            raise InvalidProfile(f"pulse sigma must be positive, got {sigma!r}")
        super().__init__(amplitude, frequency)
        self.sigma = sigma

    def turn_rates(self, lo, hi):
        carrier, envelope, reach = abs(self.frequency), 1.0 / self.sigma, self.REACH * self.sigma
        if envelope <= carrier:     # the envelope's own scale is the slower everywhere
            return [(lo, hi, carrier)]
        ends = [lo, *(c for c in (-reach, reach) if lo < c < hi), hi]
        return [(a, b, carrier if b <= -reach or a >= reach else envelope)
                for a, b in zip(ends, ends[1:])]

    def _envelope(self, phi):
        # numpy's power, the same pow as float's, gives inf where float's raises OverflowError
        return np.exp(-phi * phi / (2.0 * np.float64(self.sigma) ** 2))

    def components(self, phi):
        c = self.frequency * phi
        env = self.amplitude * self._envelope(phi)
        return env * np.cos(c), env * np.sin(c)

    def params(self):
        return {**super().params(), "sigma": self.sigma}


class TabulatedProfile(PlaneWaveProfile):
    """Natural cubic spline through sampled components: one spline over the
    stacked (a1, a2), defined on the grid only (a phase outside it raises
    RangeError). Built here: scipy.interpolate would cost about 50 MB and
    0.5 s at import for a tridiagonal solve."""

    kind = "tabulated"

    def __init__(self, phi_grid, a1, a2):
        grid, a1, a2 = (_real(f"profile {name}", v, shape=(None,))
                        for name, v in (("phi", phi_grid), ("a1", a1), ("a2", a2)))
        if grid.size < 4:
            raise InvalidProfile("tabulated profile needs at least 4 grid points")
        knots = grid.tolist()
        h = [right - left for left, right in zip(knots, knots[1:])]
        if not all(step > 0 for step in h):
            raise InvalidProfile("tabulated phi grid must be strictly increasing")
        if a1.shape != grid.shape or a2.shape != grid.shape:
            raise InvalidProfile("tabulated component arrays must match the phi grid")
        self.phi_grid = self.knots = grid
        # on interval i the spline is c0 + d (c1 + d (c2 + d c3)), d = phi - phi_i;
        # axes: coefficient, interval, component
        self._cubic = np.stack([_natural_cubic(h, a1.tolist()), _natural_cubic(h, a2.tolist())],
                               axis=-1)

    def turn_rates(self, lo, hi):
        return [(lo, hi, 0.0)]      # between knots each component is a cubic, which does not turn

    def components(self, phi):
        if np.min(phi) < self.phi_grid[0] or np.max(phi) > self.phi_grid[-1]:
            raise RangeError(f"tabulated profile evaluated outside its grid "
                             f"[{float(self.phi_grid[0])!r}, {float(self.phi_grid[-1])!r}]")
        i = np.searchsorted(self.phi_grid[1:-1], phi, side="right")     # the interval of phi
        d = (phi - self.phi_grid[i])[..., None]
        c0, c1, c2, c3 = self._cubic[:, i]
        values = c0 + d * (c1 + d * (c2 + d * c3))
        return values[..., 0], values[..., 1]

    def params(self):
        return {"points": int(self.phi_grid.size),
                "phi_min": float(self.phi_grid[0]), "phi_max": float(self.phi_grid[-1])}


def _natural_cubic(h: list, values: list) -> list:
    """Coefficients [c0, c1, c2, c3] on each interval of the natural cubic
    spline through `values` at knots h apart. Its second derivatives M, zero
    at both ends, solve the interior rows
    h_{i-1} M_{i-1} + 2 (h_{i-1} + h_i) M_i + h_i M_{i+1} = 6 (s_i - s_{i-1}),
    s_i the secant slopes, by one forward sweep and back substitution
    (diagonally dominant, so no pivoting). A grid holds a handful of points,
    so this runs on Python floats, which round as numpy's do."""
    secant = [(right - left) / step for left, right, step in zip(values, values[1:], h)]
    rhs = [6.0 * (right - left) for left, right in zip(secant, secant[1:])]
    diagonal = [2.0 * (left + right) for left, right in zip(h, h[1:])]
    for k in range(1, len(diagonal)):
        ratio = h[k] / diagonal[k - 1]
        diagonal[k] -= ratio * h[k]
        rhs[k] -= ratio * rhs[k - 1]
    m = [0.0] * len(values)
    m[-2] = rhs[-1] / diagonal[-1]
    for k in range(len(diagonal) - 2, -1, -1):
        m[k + 1] = (rhs[k] - h[k + 1] * m[k + 2]) / diagonal[k]
    return [values[:-1],
            [s - step * (2.0 * left + right) / 6.0
             for s, step, left, right in zip(secant, h, m, m[1:])],
            [left / 2.0 for left in m[:-1]],
            [(right - left) / (6.0 * step) for step, left, right in zip(h, m, m[1:])]]


_PROFILE_KINDS = {
    "zero": (ZeroProfile, ()),
    "linear": (LinearProfile, ("amplitude", "frequency")),
    "circular": (CircularProfile, ("amplitude", "frequency")),
    "pulse": (PulseProfile, ("amplitude", "frequency", "sigma")),
    "tabulated": (TabulatedProfile, ("phi", "a1", "a2")),
}


def make_profile(kind: str, **params) -> PlaneWaveProfile:
    """Profile factory; raises InvalidProfile on unknown kinds or bad params."""
    try:
        cls, names = _PROFILE_KINDS[kind]
    except KeyError:
        raise InvalidProfile(f"unknown profile kind {kind!r}; expected one of {sorted(_PROFILE_KINDS)}") from None
    missing = [n for n in names if n not in params]
    if missing:
        raise InvalidProfile(f"profile {kind!r} missing parameter(s) {missing}")
    extra = [n for n in params if n not in names]
    if extra:
        raise InvalidProfile(f"profile {kind!r} got unexpected parameter(s) {extra}")
    return cls(*(params[name] for name in names))


@dataclass(frozen=True)
class FieldConfig:
    """Coupling g, constant-field strength B and plane-wave profile."""

    g: float
    B: float
    profile: PlaneWaveProfile = field(default_factory=ZeroProfile)

    def __post_init__(self):
        for name in ("g", "B"):
            object.__setattr__(self, name, _real(name, getattr(self, name), error=RangeError))
        if not isinstance(self.profile, PlaneWaveProfile):
            raise RangeError(f"profile must be a PlaneWaveProfile, got {self.profile!r}")

