import numpy as np
import pytest

from wavefield.errors import QuadratureFailure
from wavefield.quadrature import WG, WK, XK, _G_IDX, _nodes, _rule, adaptive_quad


def test_polynomial_is_exact():
    # G7 integrates degree-13 exactly; K15 degree-22
    res = adaptive_quad(lambda x: 3 * x**2 + 1j * x, 0.0, 2.0)
    assert res.value == pytest.approx(8.0 + 2.0j, abs=1e-13)
    assert res.nodes == 15


def test_oscillatory_scalar():
    w = 37.0
    res = adaptive_quad(lambda x: np.exp(1j * w * x), 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12)
    exact = (np.exp(1j * w) - 1.0) / (1j * w)
    assert abs(res.value - exact) < 1e-12
    assert abs(res.value - exact) < 100 * max(res.error_estimate, 1e-16)


def test_matrix_valued_integrand():
    def f(t):
        # one 2x2 matrix per node, stacked on axis 0
        return np.stack([np.stack([np.cos(t), np.sin(t)], axis=-1),
                         np.stack([-np.sin(t), np.cos(t)], axis=-1)], axis=1).astype(complex)

    res = adaptive_quad(f, 0.0, np.pi / 2, abs_tol=1e-13, rel_tol=1e-13)
    want = np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert np.max(np.abs(res.value - want)) < 1e-12
    assert res.value.shape == (2, 2)


def test_reversed_interval_flips_sign():
    fwd = adaptive_quad(np.cos, 0.0, 1.3)
    rev = adaptive_quad(np.cos, 1.3, 0.0)
    assert rev.value == pytest.approx(-fwd.value, abs=1e-14)


def test_degenerate_interval():
    # one zero-width panel: f still receives the 15 nodes it is promised
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return x**2

    res = adaptive_quad(f, 0.7, 0.7)
    assert res.value == 0.0
    assert res.error_estimate == 0.0 and not np.signbit(res.error_estimate)
    assert res.nodes == 15
    assert shapes == [(15,)]


def test_breakpoints_seed_subdivision():
    # a jump the panels would otherwise have to chase by bisection
    f = lambda x: np.where(x < 0.37, 1.0, 0.25)
    seeded = adaptive_quad(f, 0.0, 1.0, breakpoints=[0.37], abs_tol=1e-12, rel_tol=1e-12)
    plain = adaptive_quad(f, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-12)
    exact = 0.37 * 1.0 + 0.63 * 0.25
    assert abs(seeded.value - exact) < 1e-13
    assert abs(plain.value - exact) < 1e-10
    assert seeded.nodes == 30      # both sides are constants: one panel each
    assert plain.nodes > 100


def test_repeated_breakpoints_count_once():
    # callers may pass one breakpoint per endpoint, with repeats; a repeat must
    # not seed a zero-width panel of 15 nodes
    runs = [adaptive_quad(np.cos, 0.0, 1.0, breakpoints=[0.5] * k) for k in (1, 2, 3)]
    assert [run.nodes for run in runs] == [30, 30, 30]
    assert [run.panels for run in runs[1:]] == [runs[0].panels] * 2
    assert runs[0].value == pytest.approx(np.sin(1.0), abs=1e-15)


def test_node_cap_raises():
    with pytest.raises(QuadratureFailure):
        adaptive_quad(lambda x: np.sin(1.0 / x) / x, 1e-9, 1.0,
                      abs_tol=1e-14, rel_tol=1e-14, node_cap=600)


def test_node_cap_holds_when_the_breakpoint_panels_alone_exceed_it():
    # seven seeded panels need 105 nodes; a cap of 50 admits three of them
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(1j * 9.0 * x)

    knots = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    with pytest.raises(QuadratureFailure) as failure:
        adaptive_quad(f, 0.0, 7.0, breakpoints=knots, node_cap=50)
    assert sum(calls) == failure.value.nodes == 45
    assert failure.value.error_estimate > 1e-10      # the three panels' own estimates
    # a cap that fits the seeded panels exactly lets a smooth integrand through
    assert adaptive_quad(np.cos, 0.0, 7.0, breakpoints=knots, node_cap=105).nodes == 105


def test_node_cap_in_a_later_round_evaluates_the_bisections_that_fit():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(1.0 / x) / x

    with pytest.raises(QuadratureFailure) as failure:
        adaptive_quad(f, 1e-9, 1.0, abs_tol=1e-14, rel_tol=1e-14, node_cap=600)
    assert sum(calls) == failure.value.nodes
    assert 600 - 30 < failure.value.nodes <= 600     # one more bisection would not fit


def test_nonfinite_integrand_raises():
    # the midpoint of [0, 1] is a K15 node, so the pole is actually sampled
    with np.errstate(divide="ignore"), pytest.raises(QuadratureFailure):
        adaptive_quad(lambda x: np.float64(1.0) / (x - 0.5), 0.0, 1.0)


def test_overflowing_error_estimate_raises():
    # K15 - G7 of a step of height 1e300 squares past the float range: its norm
    # is inf, which must fail the quadrature, not read as converged (inf <= inf)
    def step(x):
        return np.where(x < 0.3, 1e300, 0.0).astype(complex)

    halves, nodes = _nodes([(0.0, 1.0)])
    with np.errstate(over="ignore"):
        values, errors = _rule(halves, step(nodes))
    assert np.isfinite(values).all() and errors == [np.inf]
    with pytest.raises(QuadratureFailure) as failure:
        adaptive_quad(step, 0.0, 1.0)
    assert failure.value.error_estimate == np.inf and failure.value.nodes == 15


def test_bit_determinism():
    f = lambda x: np.exp(1j * 11.0 * x) / (1.0 + x * x)
    a = adaptive_quad(f, 0.0, 3.0, abs_tol=1e-12, rel_tol=1e-12)
    b = adaptive_quad(f, 0.0, 3.0, abs_tol=1e-12, rel_tol=1e-12)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.nodes == b.nodes


def test_integrand_is_called_once_per_round():
    # the first call takes every seeded panel, each later one the halves of
    # every panel bisected in that round: 15 nodes per panel, joined
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(1j * 9.0 * x) / (1.0 + x * x)

    res = adaptive_quad(f, 0.0, 4.0, abs_tol=1e-12, rel_tol=1e-12, breakpoints=[1.0, 2.5])
    assert all(size % 15 == 0 for size in calls)
    assert sum(calls) == res.nodes
    assert calls[0] == 3 * 15
    assert 1 < len(calls) < len(res.panels)


def _running_sums(panels):
    """0j, then the running sum of the panel values, left to right."""
    sums = [0j]
    for _, _, value in panels:
        sums.append(sums[-1] + value)
    return sums


def test_panels_tile_the_interval_left_to_right():
    # the value is the running sum of the panels, formed left to right and,
    # like the panels, never sign-flipped: the reversed interval's value is
    # minus the last of them
    for f in (lambda x: np.exp(1j * 9.0 * x), _SHAPED_INTEGRANDS["4x4"]):
        res = adaptive_quad(f, 2.0, -1.0, breakpoints=[0.5])
        lefts = [p[0] for p in res.panels]
        rights = [p[1] for p in res.panels]
        assert lefts[0] == -1.0 and rights[-1] == 2.0 and 0.5 in lefts
        assert lefts[1:] == rights[:-1]
        assert np.array_equal(res.value, -_running_sums(res.panels)[-1])
        assert np.shape(res.value) == np.shape(f(np.zeros(1))[0])


def _separate_sums(f, a, b):
    """K15 and G7 summed separately, then differenced (reference for `_rule`),
    and the norm of the K15 sum of |f|, the scale of the sums' rounding."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    stack = np.asarray(f(mid + half * XK), dtype=complex)
    tail = (1,) * (stack.ndim - 1)
    kron = half * np.sum(WK.reshape((15,) + tail) * stack, axis=0)
    gauss = half * np.sum(WG.reshape((7,) + tail) * stack[_G_IDX], axis=0)
    magnitude = half * np.sum(WK.reshape((15,) + tail) * np.abs(stack), axis=0)
    return kron, float(np.linalg.norm(np.ravel(kron - gauss))), np.linalg.norm(magnitude)


_SHAPED_INTEGRANDS = {
    "scalar": lambda x: np.exp(1j * 7.0 * x) / (1.0 + x * x),
    "n-by-2": lambda x: np.stack([np.exp(1j * np.outer(x, [1.0, 3.0, 5.0])),
                                  np.cos(np.outer(x, [2.0, 4.0, 6.0])) + 0j], axis=-1),
    "4x4": lambda x: np.exp(1j * np.multiply.outer(x, np.arange(16.0).reshape(4, 4) / 3.0)),
}


@pytest.mark.parametrize("shape", sorted(_SHAPED_INTEGRANDS))
def test_panel_matches_separate_kronrod_and_gauss_sums(shape):
    # relative to the size of the terms summed: oscillating panels cancel
    f = _SHAPED_INTEGRANDS[shape]
    for a, b in ((0.0, 0.4), (-1.0, 1.0), (2.5, 4.0), (2.5, 9.0)):
        halves, nodes = _nodes([(a, b)])
        (kron,), (err,) = _rule(halves, np.ascontiguousarray(f(nodes), dtype=complex))
        ref_kron, ref_err, magnitude = _separate_sums(f, a, b)
        assert np.shape(kron) == np.shape(ref_kron)
        assert np.linalg.norm(np.ravel(kron - ref_kron)) <= 1e-15 * magnitude
        assert abs(err - ref_err) <= 1e-15 * magnitude


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_one_non_finite_node_fails_the_quadrature(bad):
    for node in range(15):
        def f(x, node=node):
            values = np.exp(1j * x)[:, None] * np.ones(2)
            values[node, 1] = bad
            return values

        with pytest.raises(QuadratureFailure, match="or error estimate is not finite"):
            adaptive_quad(f, 0.0, 1.0)


@pytest.mark.parametrize("shape", sorted(_SHAPED_INTEGRANDS))
def test_batched_panels_have_the_bits_of_panels_evaluated_alone(shape):
    # a round's panels share one integrand call but no arithmetic
    f = _SHAPED_INTEGRANDS[shape]
    res = adaptive_quad(f, -1.0, 4.0, abs_tol=1e-13, rel_tol=1e-13, breakpoints=[0.5, 2.0])
    assert len(res.panels) > 3
    for lo, hi, value in res.panels:
        halves, nodes = _nodes([(lo, hi)])
        (alone,), _ = _rule(halves, np.ascontiguousarray(f(nodes), dtype=complex))
        assert np.array_equal(value, alone)


#: A multi-round integrand's result, recorded before the quadrature's per-call
#: overhead was cut: the repr of its value and error estimate, its nodes, and
#: each panel (left, right, value) and running sum.
_PINNED_QUAD = {
    'value': '(-0.006219243725670513+0.11564257894473673j)',
    'error_estimate': '6.796160043939857e-13',
    'nodes': 315,
    'panels': [
        ('0.0', '0.25', '(0.08700788886290163+0.1763793357258017j)'),
        ('0.25', '0.5', '(-0.1720538566018899-0.03487345789076712j)'),
        ('0.5', '0.75', '(0.11005434837705703-0.09346226164919025j)'),
        ('0.75', '1.0', '(0.003382412116715327+0.11385321977065462j)'),
        ('1.0', '1.375', '(-0.039329733808761355-0.08388236149066398j)'),
        ('1.375', '1.75', '(0.012565001775287975+0.0635649312437925j)'),
        ('1.75', '2.125', '(0.002360171626296921-0.04675987253087226j)'),
        ('2.125', '2.5', '(-0.0101868885353558+0.03349219299619684j)'),
        ('2.5', '2.875', '(0.013844029212608001-0.023168525447660314j)'),
        ('2.875', '3.25', '(-0.015029605520156763+0.015179106035512648j)'),
        ('3.25', '3.625', '(0.014737791564649366-0.009031795261696j)'),
        ('3.625', '4.0', '(-0.013570802795022947+0.0043520674436283765j)'),
    ],
    'cumulative': [
        '0j',
        '(0.08700788886290163+0.1763793357258017j)',
        '(-0.08504596773898827+0.14150587783503457j)',
        '(0.02500838063806876+0.04804361618584432j)',
        '(0.028390792754784087+0.16189683595649895j)',
        '(-0.010938941053977268+0.07801447446583497j)',
        '(0.0016260607213107077+0.14157940570962746j)',
        '(0.003986232347607629+0.0948195331787552j)',
        '(-0.006200656187748171+0.12831172617495204j)',
        '(0.0076433730248598305+0.10514320072729172j)',
        '(-0.007386232495296932+0.12032230676280437j)',
        '(0.007351559069352433+0.11129051150110836j)',
        '(-0.006219243725670513+0.11564257894473673j)',
    ],
}


def test_adaptive_quad_keeps_its_pinned_bits():
    res = adaptive_quad(lambda x: np.exp(1j * 9.0 * x) / (1.0 + x * x), 0.0, 4.0,
                        abs_tol=1e-12, rel_tol=1e-12, breakpoints=[1.0, 2.5])
    assert (repr(complex(res.value)), repr(res.error_estimate), res.nodes) \
        == (_PINNED_QUAD["value"], _PINNED_QUAD["error_estimate"], _PINNED_QUAD["nodes"])
    assert [(repr(lo), repr(hi), repr(complex(value))) for lo, hi, value in res.panels] \
        == _PINNED_QUAD["panels"]
    assert [repr(complex(c)) for c in _running_sums(res.panels)] == _PINNED_QUAD["cumulative"]
