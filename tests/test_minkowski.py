import numpy as np
import pytest

from wavefield.minkowski import (EPS, EPS_CONJ, GAMMA, IDENTITY4, METRIC, P_MINUS, P_PLUS,
                                 SLASH_EPS, SLASH_EPS_CONJ, SLASH_K, WAVE_K, dot, slash)

EPS64 = np.finfo(float).eps


def test_null_contractions_are_exact_zero():
    # these combinations cancel termwise, no rounding survives
    assert dot(EPS, EPS) == 0.0
    assert dot(EPS_CONJ, EPS_CONJ) == 0.0
    assert dot(WAVE_K, WAVE_K) == 0.0
    assert dot(WAVE_K, EPS) == 0.0
    assert dot(WAVE_K, EPS_CONJ) == 0.0


def test_normalization_within_rounding():
    # (1/sqrt 2)^2 + (1/sqrt 2)^2 is one ulp away from 1 in binary floats
    assert abs(dot(EPS, EPS_CONJ) - 1.0) <= 4 * EPS64


def test_dot_is_bilinear_not_sesquilinear():
    u = np.array([1.0, 2.0j, 0.5, -1.0], dtype=complex)
    assert dot(1j * u, u) == pytest.approx(1j * dot(u, u))


def test_stacks_give_the_row_by_row_values_exactly():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    assert np.array_equal(dot(WAVE_K, xs), [dot(WAVE_K, x) for x in xs])


def test_clifford_relation_all_pairs():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            want = 2.0 * (METRIC[mu] if mu == nu else 0.0) * IDENTITY4
            assert np.max(np.abs(anti - want)) < 1e-12


def test_slash_squares_to_invariant():
    rng = np.random.default_rng(4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    sq = slash(v) @ slash(v)
    assert np.allclose(sq, dot(v, v) * IDENTITY4, atol=1e-12)
    assert np.max(np.abs(SLASH_EPS @ SLASH_EPS)) < 1e-14
    assert np.max(np.abs(SLASH_K @ SLASH_K)) < 1e-14


def test_projector_algebra():
    assert np.max(np.abs(P_PLUS + P_MINUS - IDENTITY4)) <= 4 * EPS64
    assert np.max(np.abs(P_PLUS @ P_PLUS - P_PLUS)) < 1e-12
    assert np.max(np.abs(P_MINUS @ P_MINUS - P_MINUS)) < 1e-12
    assert np.max(np.abs(P_PLUS @ P_MINUS)) < 1e-12
    assert np.max(np.abs(P_MINUS @ P_PLUS)) < 1e-12
    # each projector annihilates one null slash per side and absorbs the other
    assert np.max(np.abs(SLASH_EPS @ P_PLUS)) < 1e-14
    assert np.max(np.abs(P_PLUS @ SLASH_EPS_CONJ)) < 1e-14
    assert np.max(np.abs(P_MINUS @ SLASH_EPS)) < 1e-14
    assert np.max(np.abs(SLASH_EPS_CONJ @ P_MINUS)) < 1e-14
    assert np.max(np.abs(P_PLUS @ SLASH_EPS - SLASH_EPS)) < 1e-14
