"""Light-cone basis, bilinear metric products, the Clifford algebra and the
transverse-helicity projectors P+- that the braces M+- dress.

Conventions (frozen, see `conventions.py`):

    g = diag(+1, +1, -1, +1)        slots 0,1 transverse / 2,3 longitudinal
    eps  = (1, i, 0, 0)/sqrt2       transverse circular unit vector
    eps* = (1, -i, 0, 0)/sqrt2
    k    = (0, 0, -1, -1)           null wave vector, k.k = 0

All products are bilinear (no complex conjugation): dot(u, v) = sum g_mm u^m v^m.
Four-vectors are plain complex ndarrays of shape (4,) holding contravariant
components; 4x4 complex ndarrays stand in for spinor-space matrices.
"""

from __future__ import annotations

import numpy as np

METRIC = np.array([1.0, 1.0, -1.0, 1.0])

SQRT2 = np.sqrt(2.0)

EPS = np.array([1.0, 1.0j, 0.0, 0.0]) / SQRT2
EPS_CONJ = np.array([1.0, -1.0j, 0.0, 0.0]) / SQRT2
WAVE_K = np.array([0.0, 0.0, -1.0, -1.0], dtype=complex)

#: The constant magnetic field is B times this generator: the lowered tensor
#: f_mn = i (eps_m eps*_n - eps_n eps*_m) at B = 1, and its real mixed-index
#: map (f x)^m = g^{ma} f_an x^n, which rotates the transverse plane (f.eps = i eps,
#: f.eps* = -i eps*) and annihilates longitudinal vectors.
UNIT_FIELD = 1j * (np.outer(METRIC * EPS, METRIC * EPS_CONJ)
                   - np.outer(METRIC * EPS_CONJ, METRIC * EPS))
UNIT_FIELD_MIXED = (METRIC[:, None] * UNIT_FIELD).real


def dot(u: np.ndarray, v: np.ndarray):
    """Bilinear metric product sum_m g_mm u_m v_m (never sesquilinear), over the
    last axis: a complex number for two vectors, an array for stacks of them."""
    value = np.sum(METRIC * np.asarray(u) * np.asarray(v), axis=-1)
    return complex(value) if np.ndim(value) == 0 else value


# Two products from the slots for the evaluation path, where `dot`'s dispatch
# costs more than its arithmetic. Each has `dot`'s bits: the sum starts from
# +0.0, so a zero result is +0.0, which the trailing + 0.0 reproduces.

def light_cone(v: np.ndarray):
    """dot(WAVE_K, v).real = v^2 - v^3 of a real four-vector, or of each row of
    a stack."""
    return v[..., 2] - v[..., 3] + 0.0


def longitudinal_dot(p: np.ndarray, v: np.ndarray):
    """dot(p, v).real = p^3 v^3 - p^2 v^2 of a real four-vector p whose
    transverse slots are zero (a longitudinal momentum) with a real v, or with
    each row of a stack."""
    _, _, p2, p3 = p.tolist()
    return p3 * v[..., 3] - p2 * v[..., 2] + 0.0


# --- gamma matrices -------------------------------------------------------
#
# Built from the standard Dirac representation gt^0..gt^3 (metric +,-,-,-)
# by gamma^0 = i gt^1, gamma^1 = i gt^2, gamma^2 = i gt^0, gamma^3 = i gt^3,
# which mechanically satisfies {gamma^m, gamma^n} = 2 g^mn with our metric.

_I2 = np.eye(2, dtype=complex)
_SIG = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

_GT0 = np.block([[_I2, np.zeros((2, 2))], [np.zeros((2, 2)), -_I2]])
_GT = [np.block([[np.zeros((2, 2)), s], [-s, np.zeros((2, 2))]]) for s in _SIG]


#: The (4, 4, 4) array gamma[mu] realizing the fixed metric.
GAMMA = np.stack([1j * _GT[0], 1j * _GT[1], 1j * _GT0, 1j * _GT[2]])

IDENTITY4 = np.eye(4, dtype=complex)


def slash(v: np.ndarray) -> np.ndarray:
    """Contraction sum_m gamma^m g_mm v^m for a contravariant four-vector v."""
    return np.einsum("mij,m->ij", GAMMA, METRIC * np.asarray(v, dtype=complex))


SLASH_EPS = slash(EPS)
SLASH_EPS_CONJ = slash(EPS_CONJ)
SLASH_K = slash(WAVE_K)


#: Rank-2 idempotents P_+ = slash(eps) slash(eps*) / 2 and
#: P_- = slash(eps*) slash(eps) / 2; P_- complements P_+ to the identity.
P_PLUS = SLASH_EPS @ SLASH_EPS_CONJ / 2.0
P_MINUS = SLASH_EPS_CONJ @ SLASH_EPS / 2.0
