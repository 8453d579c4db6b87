"""Background field data: constant magnetic tensor and plane-wave profiles.

The constant part is f_mn = iB (eps_m eps*_n - eps_n eps*_m), stored
index-lowered; as a map it rotates the transverse plane (f.eps = iB eps,
f.eps* = -iB eps*, longitudinal vectors are annihilated). The plane-wave
part is a transverse potential A^p(phi) sampled along the light-cone phase,
expressed in the real polarization pair e1, e2, at a phase or an array of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidProfile, RangeError
from .minkowski import E1, E2, EPS, EPS_CONJ, METRIC, WAVE_K


class ConstantFieldTensor:
    """f_mn = iB (eps_m eps*_n - eps_n eps*_m), plus its mixed-index action."""

    def __init__(self, B: float):
        self.B = float(B)
        eps_low = METRIC * EPS
        epss_low = METRIC * EPS_CONJ
        self.lowered = 1j * self.B * (np.outer(eps_low, epss_low) - np.outer(epss_low, eps_low))
        # (f x)^m = g^{ma} f_an x^n; real rotation generator on the transverse plane
        self.mixed = (METRIC[:, None] * self.lowered).real.astype(float)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.mixed @ np.asarray(x, dtype=complex)


class PlaneWaveProfile:
    """Transverse potential A^p(phi); subclasses fill in the two components."""

    kind = "abstract"

    def components(self, phi):
        raise NotImplementedError

    def slope_components(self, phi):
        raise NotImplementedError

    def potential(self, phi) -> np.ndarray:
        a1, a2 = self.components(phi)
        return np.multiply.outer(a1, E1) + np.multiply.outer(a2, E2)

    def derivative(self, phi) -> np.ndarray:
        d1, d2 = self.slope_components(phi)
        return np.multiply.outer(d1, E1) + np.multiply.outer(d2, E2)

    @property
    def is_zero(self) -> bool:
        return False

    def params(self) -> dict:
        return {}


class ZeroProfile(PlaneWaveProfile):
    kind = "zero"

    def components(self, phi):
        return np.zeros(np.shape(phi)), np.zeros(np.shape(phi))

    def slope_components(self, phi):
        return self.components(phi)

    @property
    def is_zero(self):
        return True


class _Carrier(PlaneWaveProfile):
    """Profiles with an amplitude a and a carrier frequency nu."""

    def __init__(self, amplitude: float, frequency: float):
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)

    @property
    def is_zero(self):
        return self.amplitude == 0.0

    def params(self):
        return {"amplitude": self.amplitude, "frequency": self.frequency}


class LinearProfile(_Carrier):
    """A^p = a cos(nu phi) e1 (linear polarization)."""

    kind = "linear"

    def components(self, phi):
        return self.amplitude * np.cos(self.frequency * phi), 0.0

    def slope_components(self, phi):
        return -self.amplitude * self.frequency * np.sin(self.frequency * phi), 0.0


class CircularProfile(_Carrier):
    """A^p = a (cos(nu phi) e1 + sin(nu phi) e2)."""

    kind = "circular"

    def components(self, phi):
        c = self.frequency * phi
        return self.amplitude * np.cos(c), self.amplitude * np.sin(c)

    def slope_components(self, phi):
        c = self.frequency * phi
        return -self.amplitude * self.frequency * np.sin(c), self.amplitude * self.frequency * np.cos(c)


class PulseProfile(_Carrier):
    """Circular carrier under a Gaussian envelope exp(-phi^2 / (2 sigma^2))."""

    kind = "pulse"

    def __init__(self, amplitude: float, frequency: float, sigma: float):
        if sigma <= 0:
            raise InvalidProfile(f"pulse sigma must be positive, got {sigma!r}")
        super().__init__(amplitude, frequency)
        self.sigma = float(sigma)

    def _envelope(self, phi):
        return np.exp(-phi * phi / (2.0 * self.sigma ** 2))

    def components(self, phi):
        c = self.frequency * phi
        env = self.amplitude * self._envelope(phi)
        return env * np.cos(c), env * np.sin(c)

    def slope_components(self, phi):
        c = self.frequency * phi
        env = self.amplitude * self._envelope(phi)
        damp = -phi / self.sigma ** 2
        return env * (damp * np.cos(c) - self.frequency * np.sin(c)), \
               env * (damp * np.sin(c) + self.frequency * np.cos(c))

    def params(self):
        return {**super().params(), "sigma": self.sigma}


class TabulatedProfile(PlaneWaveProfile):
    """Natural cubic spline through sampled components: one spline over the
    stacked (a1, a2) and its derivative, defined on the grid only (a phase
    outside it raises RangeError)."""

    kind = "tabulated"

    def __init__(self, phi_grid, a1, a2):
        grid = np.asarray(phi_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 4:
            raise InvalidProfile("tabulated profile needs at least 4 grid points")
        if not np.all(np.diff(grid) > 0):
            raise InvalidProfile("tabulated phi grid must be strictly increasing")
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        if a1.shape != grid.shape or a2.shape != grid.shape:
            raise InvalidProfile("tabulated component arrays must match the phi grid")
        self.phi_grid = grid
        # imported here: scipy.interpolate costs about 50 MB and 0.5 s at import,
        # which only tabulated profiles need
        from scipy.interpolate import CubicSpline
        self._spline = CubicSpline(grid, np.stack([a1, a2], axis=-1), bc_type="natural")
        self._slope = self._spline.derivative()

    def _on_grid(self, spline, phi):
        if np.any(phi < self.phi_grid[0]) or np.any(phi > self.phi_grid[-1]):
            raise RangeError(f"tabulated profile evaluated outside its grid "
                             f"[{self.phi_grid[0]!r}, {self.phi_grid[-1]!r}]")
        values = spline(phi)
        return values[..., 0], values[..., 1]

    def components(self, phi):
        return self._on_grid(self._spline, phi)

    def slope_components(self, phi):
        return self._on_grid(self._slope, phi)

    def params(self):
        return {"points": int(self.phi_grid.size),
                "phi_min": float(self.phi_grid[0]), "phi_max": float(self.phi_grid[-1])}


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
    if kind == "tabulated":
        return TabulatedProfile(params["phi"], params["a1"], params["a2"])
    return cls(**params)


@dataclass(frozen=True)
class FieldConfig:
    """Coupling g, constant-field strength B, plane-wave profile, phase origin."""

    g: float
    B: float
    profile: PlaneWaveProfile = field(default_factory=ZeroProfile)
    phi0: float | None = None

    def __post_init__(self):
        for name in ("g", "B") if self.phi0 is None else ("g", "B", "phi0"):
            if not np.isfinite(getattr(self, name)):
                raise RangeError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def tensor(self) -> ConstantFieldTensor:
        return ConstantFieldTensor(self.B)


def total_field_tensor(cfg: FieldConfig, phi: float) -> np.ndarray:
    """Lowered F_mn(phi) = f_mn + k_m A'_n(phi) - k_n A'_m(phi)."""
    k_low = METRIC * WAVE_K
    slope_low = METRIC * cfg.profile.derivative(phi)
    return cfg.tensor.lowered + np.outer(k_low, slope_low) - np.outer(slope_low, k_low)
