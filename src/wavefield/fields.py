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
integrated from its hull breakpoints alone. The built-in kinds declare:

    kind              turn_rates(lo, hi)                              knots
    linear, circular  one piece at abs(frequency)                     none
    pulse             where 1/sigma beats abs(frequency): cut at      none
                      -REACH sigma and REACH sigma, 1/sigma between
                      them and abs(frequency) outside, so a narrow
                      pulse is seeded at 1/sigma near its centre
                      alone; else one piece at abs(frequency)
    tabulated         one piece at 0 (each piece of the spline is a   the phi grid
                      cubic)

Each kind names itself (`kind`) and its config parameters in constructor
order (`config_keys`) on its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProfile, RangeError


class PlaneWaveProfile:
    """Transverse potential A^p(phi); subclasses fill in the two components."""

    kind = "abstract"

    #: Config parameters in constructor order: `make_profile` takes these, `params()` reads them.
    config_keys: tuple = ()

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
        return {key: getattr(self, key) for key in self.config_keys}


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
    # replace): a finite float, or a float64 vector of the shape, copied, whose
    # sum is finite (a NaN or infinite entry makes it NaN or infinite; finite
    # entries that overflow it take the full check below)
    if not shape:
        if type(value) is float and math.isfinite(value):
            return value
    elif type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == 1 == len(shape) \
            and (None in shape or value.shape == shape) and math.isfinite(sum(value.tolist())):
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

    config_keys = ("amplitude", "frequency")

    def __init__(self, amplitude: float, frequency: float):
        self.amplitude = _real("profile amplitude", amplitude)
        self.frequency = _real("profile frequency", frequency)

    def turn_rates(self, lo, hi):
        return [(lo, hi, abs(self.frequency))]

    @property
    def is_zero(self):
        return self.amplitude == 0.0


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
    config_keys = ("amplitude", "frequency", "sigma")

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


class TabulatedProfile(PlaneWaveProfile):
    """Natural cubic spline through sampled components: one spline over the
    stacked (a1, a2), defined on the grid only (a phase outside it raises
    RangeError). Built here: scipy.interpolate would cost about 50 MB and
    0.5 s at import for a tridiagonal solve."""

    kind = "tabulated"
    config_keys = ("phi", "a1", "a2")

    def __init__(self, phi_grid, a1, a2):
        grid, a1, a2 = (_real(f"profile {name}", v, shape=(None,))
                        for name, v in (("phi", phi_grid), ("a1", a1), ("a2", a2)))
        if grid.size < 4:
            raise InvalidProfile("tabulated profile needs at least 4 grid points")
        h = grid[1:] - grid[:-1]
        # the grid is finite, so no step is NaN and its least one decides
        if not min(h.tolist()) > 0.0:
            raise InvalidProfile("tabulated phi grid must be strictly increasing")
        if a1.shape != grid.shape or a2.shape != grid.shape:
            raise InvalidProfile("tabulated component arrays must match the phi grid")
        self.phi_grid = self.knots = grid
        # on interval i the spline is c0 + d (c1 + d (c2 + d c3)), d = phi - phi_i,
        # each coefficient a contiguous (interval, component) table
        samples = np.empty((grid.size, 2))
        samples[:, 0], samples[:, 1] = a1, a2
        self._tables = _natural_cubic(h, samples)

    def turn_rates(self, lo, hi):
        return [(lo, hi, 0.0)]      # between knots each component is a cubic, which does not turn

    def components(self, phi):
        lo, hi = self.phi_grid[0], self.phi_grid[-1]
        # false for a NaN phase too; numpy's bools have .all() for a scalar phi
        if not ((phi >= lo) & (phi <= hi)).all():
            raise RangeError(f"tabulated profile evaluated outside its grid "
                             f"[{float(lo)!r}, {float(hi)!r}]")
        i = np.searchsorted(self.phi_grid[1:-1], phi, side="right")     # the interval of phi
        d = (phi - self.phi_grid[i])[..., None]
        c0, c1, c2, c3 = (table.take(i, axis=0) for table in self._tables)
        values = c0 + d * (c1 + d * (c2 + d * c3))
        return values[..., 0], values[..., 1]

    def params(self):       # a summary: the samples are not kept
        return {"points": int(self.phi_grid.size),
                "phi_min": float(self.phi_grid[0]), "phi_max": float(self.phi_grid[-1])}


def _natural_cubic(h: np.ndarray, values: np.ndarray) -> tuple:
    """Coefficient tables (c0, c1, c2, c3), each (interval, component), of the
    natural cubic spline through the rows of `values` at knots h apart. Its
    second derivatives M, zero at both ends, solve the interior rows
    h_{i-1} M_{i-1} + 2 (h_{i-1} + h_i) M_i + h_i M_{i+1} = 6 (s_i - s_{i-1}),
    s_i the secant slopes, by one forward sweep and back substitution
    (diagonally dominant, so no pivoting). The sweep's ratios and pivots
    depend on h only; it runs once for both components, on Python floats,
    which round as numpy's do (a grid holds a handful of points)."""
    secant = (values[1:] - values[:-1]) / h[:, None]
    rhs = 6.0 * (secant[1:] - secant[:-1])
    steps = h.tolist()
    diagonal = (2.0 * (h[:-1] + h[1:])).tolist()
    first, second = rhs.T.tolist()
    for k in range(1, len(diagonal)):
        ratio = steps[k] / diagonal[k - 1]
        diagonal[k] -= ratio * steps[k]
        first[k] -= ratio * first[k - 1]
        second[k] -= ratio * second[k - 1]
    m1, m2 = [0.0] * len(values), [0.0] * len(values)
    m1[-2], m2[-2] = first[-1] / diagonal[-1], second[-1] / diagonal[-1]
    for k in range(len(diagonal) - 2, -1, -1):
        m1[k + 1] = (first[k] - steps[k + 1] * m1[k + 2]) / diagonal[k]
        m2[k + 1] = (second[k] - steps[k + 1] * m2[k + 2]) / diagonal[k]
    m = np.empty(values.shape)
    m[:, 0], m[:, 1] = m1, m2
    h = h[:, None]
    return (values[:-1], secant - h * (2.0 * m[:-1] + m[1:]) / 6.0, m[:-1] / 2.0,
            (m[1:] - m[:-1]) / (6.0 * h))


_PROFILE_KINDS = {cls.kind: cls for cls in
                  (ZeroProfile, LinearProfile, CircularProfile, PulseProfile, TabulatedProfile)}


def make_profile(kind: str, **params) -> PlaneWaveProfile:
    """Profile factory; raises InvalidProfile on unknown kinds or bad params."""
    try:
        cls = _PROFILE_KINDS[kind]
    except KeyError:
        raise InvalidProfile(f"unknown profile kind {kind!r}; expected one of {sorted(_PROFILE_KINDS)}") from None
    missing = [n for n in cls.config_keys if n not in params]
    if missing:
        raise InvalidProfile(f"profile {kind!r} missing parameter(s) {missing}")
    extra = [n for n in params if n not in cls.config_keys]
    if extra:
        raise InvalidProfile(f"profile {kind!r} got unexpected parameter(s) {extra}")
    return cls(*(params[name] for name in cls.config_keys))


@dataclass(frozen=True)
class FieldConfig:
    """Coupling g, constant-field strength B and plane-wave profile."""

    g: float
    B: float
    profile: PlaneWaveProfile = field(default_factory=ZeroProfile)

    def __post_init__(self):
        stored = vars(self)     # frozen to callers: the checked values go in directly
        for name in ("g", "B"):
            stored[name] = _real(name, stored[name], error=RangeError)
        if not isinstance(self.profile, PlaneWaveProfile):
            raise RangeError(f"profile must be a PlaneWaveProfile, got {self.profile!r}")

