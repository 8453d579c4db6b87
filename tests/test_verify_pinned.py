"""Pinned `verify` table.

Every row of `verification.run_all()`, as the `verify` command writes it:
criterion, name, tolerance, verdict, the repr of the deviation (exact to the
last bit) and detail. The values were recorded with numpy 2.4.6 on x86-64
Linux. Each seeded check draws from its own `random.Random(seed)` and hands
its draws to production and to its oracles in a fixed order, so a change that
alters a draw, the order of an arithmetic step or a row's text moves a pin.

A row's deviation can hold while a draw moves, so every argument that
`run_all()` hands to production and to the oracles is pinned too, as one
SHA-256 over their fields in call order.
"""

import dataclasses
import hashlib
import types

import numpy as np

from wavefield import verification
from wavefield.fields import PlaneWaveProfile

#: (criterion, name, tolerance, passed, repr(max_deviation), detail), in table order.
PINNED = [
    (0, "convention-ledger-consistency", 0.0, True, "0.0",
     "published ledger values match compiled constants"),
    (1, "clifford-anticommutators", 1e-12, True, "0.0",
     "{gamma^mu, gamma^nu} vs 2 g^mu nu times the identity, all 16 pairs"),
    (1, "projector-completeness", 1e-15, True, "2.220446049250313e-16",
     "P+ + P- vs the identity"),
    (1, "projector-idempotence-orthogonality", 1e-12, True, "2.220446049250313e-16",
     "P+ P+ vs P+, P- P- vs P-, P+ P- and P- P+ vs zero"),
    (2, "null-contractions-exact", 0.0, True, "0.0",
     "eps.eps, k.k, k.eps, k.eps* are identically zero in floats"),
    (2, "normalization-within-rounding", 8.881784197001252e-16, True, "2.220446049250313e-16",
     "eps.eps* carries the 1/sqrt(2) squaring ulp"),
    (2, "field-tensor-eigenvectors", 1e-12, True, "2.220446049250313e-16",
     "10 random B"),
    (5, "time-sliced-kernel-agreement", 0.001, True, "0.00011944617224610095",
     "Richardson over N=8..64, observed order >= 0.95"),
    (5, "small-field-free-kernel-limit", 1e-06, True, "1.208180818878878e-09",
     "3 (e0, g, x_a, x_b) cases at B = 1e-4, zero profile, vs the free kernel"),
    (7, "phase-integral-closed-forms", 1e-08, True, "1.1150912609939193e-16",
     "50 random draws, 4 profile kinds: circular at B = 0, tabulated line, circular at "
     "B != 0, linear"),
    (7, "dressed-braces-closed-form", 1e-12, True, "5.594315114139762e-17",
     "10 circular contexts (B, volkov_sign of both signs) vs the printed M+-"),
    (7, "phase-integral-zero-profile-exact", 0.0, True, "0.0",
     "K at a tabulated profile of zero samples (g = 1, B = 0.5), through the phase "
     "pass's quadrature, is exactly zero"),
    (7, "classical-action-exponent", 1e-10, True, "2.220446049250313e-16",
     "6 contexts (circular, pulse, linear; B of both signs): circular and linear vs the "
     "closed-form classical path, pulse vs nested oracles"),
    (7, "phase-locality", 1.0, True, "0.0",
     "circular with B > 0 and pulse with B < 0, bumps below and above [phi_a, phi_b]; "
     "|dG| over max(abs_tol, rel_tol |G|)"),
    (8, "zero-profile-route-equivalence", 1e-10, True, "1.2891458358439895e-15",
     "10 context(s), profile set to zero, entrywise vs Schwinger's closed form"),
    (9, "contour-angle-invariance", 0.0001, True, "1.098622065068938e-11",
     "theta = pi/6 vs the default pi/2, 5 contexts (3 with plane-wave profiles)"),
    (10, "free-field-reduction", 1e-05, True, "1.187079847776024e-13",
     "3 context(s) at B = 0, zero profile, vs the scalar free propagator times 1"),
    (11, "derivative-consistency-free", 0.0001, True, "1.2958765634831501e-07",
     "finite-difference operator application vs analytic gradient"),
    (11, "derivative-consistency-constant-field", 0.001, True, "1.2372783718632755e-07",
     "finite-difference operator application vs analytic gradient"),
    (12, "cli-output-bit-determinism", 0.0, True, "0.0",
     "gf and identities runs byte-compared across two invocations"),
    (12, "check-suite-determinism", 0.0, True, "0.0",
     "criterion 2 and the criterion-7 phase integrals: two runs as serialized reports "
     "(in verify, the table's own and one re-run)"),
]


def test_verify_table_matches_pinned_rows():
    rows = [(r.criterion, r.name, r.tolerance, r.passed, repr(r.max_deviation), r.detail)
            for r in verification.run_all()]
    assert [row[1] for row in rows] == [pin[1] for pin in PINNED]
    for row, pin in zip(rows, PINNED):
        assert row == pin, pin[1]


#: The production and oracle functions that `verification` calls, by the names
#: it binds them to.
RECORDED = ("_phase_passes", "_prepare", "_green_functions", "_dirac_applies",
            "total_potential_lowered", "folded_kernel",
            "carrier_kernel", "cross_phase_closed", "cross_phase_nested", "dressed_braces",
            "sliced_kernel", "free_kernel", "free_propagator", "zero_profile_green",
            "zero_profile_gradient")

#: SHA-256 of every recorded call of one `run_all()`, in call order.
PINNED_DRAWS = "b4a0893992b730044dc0ec46d4a2931c2ba0deea0902aaa6244445305fdfcc2c"


def _feed(digest, value):
    """Feed `value` to `digest` field by field: arrays and numbers by dtype,
    shape and bytes, profiles by kind and every field (knots included),
    dataclasses by their fields, a bound method by its name and its object.
    Anything else raises TypeError, so no value enters by its address."""
    def tag(*words):
        digest.update(repr(words).encode())

    if isinstance(value, (bool, int, float, complex, np.generic, np.ndarray)):
        array = np.asarray(value)
        if array.dtype == object:
            raise TypeError(f"object array {array!r}")
        tag("array", array.dtype.str, array.shape)
        digest.update(np.ascontiguousarray(array).tobytes())
    elif isinstance(value, str):
        tag("str", value)
    elif isinstance(value, (list, tuple)):
        tag(type(value).__name__, len(value))
        for item in value:
            _feed(digest, item)
    elif isinstance(value, dict):
        tag("dict", len(value))
        for key, item in value.items():
            _feed(digest, key)
            _feed(digest, item)
    elif isinstance(value, PlaneWaveProfile):
        fields = {"knots": value.knots, **vars(value)}
        tag("profile", value.kind, sorted(fields))
        for name in sorted(fields):
            _feed(digest, fields[name])
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        tag(type(value).__name__)
        for field in dataclasses.fields(value):
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, types.MethodType):
        tag("method", value.__name__)
        _feed(digest, value.__self__)
    else:
        raise TypeError(f"no field-by-field form for {type(value).__name__}")


def test_every_draw_verify_hands_over_matches_its_pin(monkeypatch):
    digest, calls = hashlib.sha256(), []

    def recorded(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            _feed(digest, (name, args, kwargs))
            return real(*args, **kwargs)
        return call

    for name in RECORDED:
        monkeypatch.setattr(verification, name, recorded(name, getattr(verification, name)))
    verification.run_all()
    assert set(calls) == set(RECORDED)
    assert digest.hexdigest() == PINNED_DRAWS
