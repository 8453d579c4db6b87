"""Acceptance gate: one test per numbered verification criterion.

Each test runs the corresponding check from `wavefield.verification` at its
stated tolerance and prints one PASS/FAIL line per check (visible with
`pytest -s` or in the captured output of a failure). Criterion numbers have
gaps. A mutation table patches one physics defect per entry into `green` and
requires exactly the listed rows of the checks that hold them to fail;
`pytest -s` prints the rows each mutation fails. The criterion-12 test also
exercises the `verify` command end to end, twice, and byte-compares its
outputs. Criterion 12 has a mutation test too: a seeded check whose second
report differs must fail `check-suite-determinism`, both inside `run_all` (which
hands criterion 12 the table's own reports) and called alone. `run_all` is
also run with every check behind a nameless wrapper, as a tracer installs
them, and its work is counted: criterion 12 re-runs each seeded check once.
"""

import json
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from wavefield import conventions, green, kernels, minkowski, verification
from wavefield.cli import main


def _report(results):
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"ACCEPTANCE {r.criterion:02d} {r.name}: {status} "
              f"dev={r.max_deviation:.3e} tol={r.tolerance:.3e}")
        if not r.passed:
            failures.append(f"{r.name}: dev={r.max_deviation!r} > tol={r.tolerance!r}")
    assert not failures, "; ".join(failures)


def test_criterion_00_convention_ledger_consistency():
    _report(verification.check_ledger_consistency())


def test_criterion_00_fails_when_the_declared_metric_is_not_the_compiled_one(monkeypatch):
    # the ledger publishes conventions.METRIC_DIAG; minkowski.METRIC is what the
    # numerical modules use. An edit to one alone fails the row
    flipped = (1.0, 1.0, 1.0, -1.0)
    assert flipped != tuple(float(v) for v in minkowski.METRIC)
    monkeypatch.setattr(conventions, "METRIC_DIAG", flipped)
    monkeypatch.setattr(verification, "METRIC_DIAG", flipped)
    [row] = verification.check_ledger_consistency()
    assert row.name == "convention-ledger-consistency"
    assert row.max_deviation == 1.0 and not row.passed


def test_criterion_01_clifford_and_projector_algebra():
    _report(verification.check_clifford_algebra())


def test_criterion_02_basis_identities():
    _report(verification.check_basis_identities())


def test_criterion_05_time_sliced_kernel_oracle():
    _report(verification.check_sliced_oracle_agreement())


def test_criterion_07_phase_integral_oracles():
    _report(verification.check_phase_integral_oracles())


def test_criterion_07_classical_action_exponent():
    _report(verification.check_classical_action_exponent())


def test_criterion_07_phase_locality():
    _report(verification.check_phase_locality())


def test_criterion_08_zero_wave_vector_equivalence():
    _report(verification.check_zero_wave_vector_equivalence())


def test_criterion_09_contour_invariance():
    _report(verification.check_contour_invariance())


def test_criterion_10_free_field_reduction():
    _report(verification.check_free_field_reduction())


def test_criterion_11_derivative_consistency():
    _report(verification.check_derivative_consistency())


# -- mutation table ---------------------------------------------------------

def _scale_pass(field, factor):
    """Mutation: one `PhasePass` field of `green.phase_pass`'s result times
    `factor`, so the oracles' own phase passes (through `verification.phase_pass`)
    stay intact."""
    def mutate(monkeypatch):
        phase_pass = green.phase_pass

        def scaled(*args, **kwargs):
            run = phase_pass(*args, **kwargs)
            return replace(run, **{field: factor * getattr(run, field)})

        monkeypatch.setattr(green, "phase_pass", scaled)
    return mutate


def _flip_volkov_sign(monkeypatch):
    phase_pass = green.phase_pass

    def flipped(*args, sign, **kwargs):
        return phase_pass(*args, sign=-sign, **kwargs)

    monkeypatch.setattr(green, "phase_pass", flipped)


#: A phase below every endpoint phase of the checks, which all lie in [-2, 2].
_PINNED_PHASE = -10.0


def _k_from_pinned_phase(monkeypatch):
    # K integrated from a fixed phase instead of phi_a, as a pinned origin did
    phase_pass = green.phase_pass

    def pinned(cfg, pL, phi_a, phi_b, **kwargs):
        run = phase_pass(cfg, pL, phi_a, phi_b, **kwargs)
        return replace(run, kernel_b=phase_pass(cfg, pL, _PINNED_PHASE, phi_b, **kwargs).kernel_b)

    monkeypatch.setattr(green, "phase_pass", pinned)


def _scale_folded_kernel(factor):
    def mutate(monkeypatch):
        kernel = green.folded_kernel

        def scaled(e0, rho2, b):
            k, q = kernel(e0, rho2, b)
            return factor * k, q

        monkeypatch.setattr(green, "folded_kernel", scaled)
    return mutate


def _swap_projectors(monkeypatch):
    monkeypatch.setattr(green, "P_PLUS", minkowski.P_MINUS)
    monkeypatch.setattr(green, "P_MINUS", minkowski.P_PLUS)


def _swap_eps_in_braces(monkeypatch):
    monkeypatch.setattr(green, "SLASH_EPS", minkowski.SLASH_EPS_CONJ)
    monkeypatch.setattr(green, "SLASH_EPS_CONJ", minkowski.SLASH_EPS)


def _drop_ray_jacobian(monkeypatch):
    # the ray integrand times (1 - u): ds/du = L / (1 - u)^2 loses one power
    quad = green.adaptive_quad

    def dropped(f, *args, **kwargs):
        return quad(lambda u: f(u) * (1.0 - u)[:, None, None], *args, **kwargs)

    monkeypatch.setattr(green, "adaptive_quad", dropped)


def _drop_gauge_term(monkeypatch):
    # `dirac_apply`'s binding only; criterion 11's analytic side keeps its own
    potential = green.total_potential_lowered
    monkeypatch.setattr(green, "total_potential_lowered", lambda ctx, x: 0.0 * potential(ctx, x))


#: Each mutation of production with the verify rows it must fail, and no others
#: among the checks that hold them. The oracle sides re-solve the action by
#: nested quadrature, build M+- from the closed-form K (for both volkov_sign
#: values, so flipping the sign inside G alone shows) and take G's gradient
#: from Schwinger's closed form, so a 1 % kernel error shows instead of cancelling.
#: A 1e-6 scaling of each layer (ray kernel, K, drift, action) is caught by one row.
_MUTATIONS = {
    "action-scaled": (_scale_pass("action", 1.01), {"classical-action-exponent"}),
    "k-from-pinned-phase": (_k_from_pinned_phase,
                            {"dressed-braces-closed-form", "phase-locality"}),
    "folded-kernel-scaled": (_scale_folded_kernel(1.01),
                             {"derivative-consistency-free",
                              "derivative-consistency-constant-field"}),
    "volkov-sign-flipped-in-g": (_flip_volkov_sign, {"dressed-braces-closed-form"}),
    "projectors-swapped": (_swap_projectors,
                           {"dressed-braces-closed-form", "zero-profile-route-equivalence",
                            "derivative-consistency-constant-field"}),
    "dirac-gauge-term-dropped": (_drop_gauge_term, {"derivative-consistency-constant-field"}),
    "drift-sign-flipped": (_scale_pass("drift", -1.0), {"classical-action-exponent"}),
    "ray-kernel-scaled-1e-6": (_scale_folded_kernel(1.0 + 1e-6),
                               {"zero-profile-route-equivalence"}),
    "k-scaled-1e-6": (_scale_pass("kernel_b", 1.0 + 1e-6), {"dressed-braces-closed-form"}),
    "drift-scaled-1e-6": (_scale_pass("drift", 1.0 + 1e-6), {"classical-action-exponent"}),
    "action-scaled-1e-6": (_scale_pass("action", 1.0 + 1e-6), {"classical-action-exponent"}),
    "eps-swapped-in-braces": (_swap_eps_in_braces, {"dressed-braces-closed-form"}),
    "ray-jacobian-dropped": (_drop_ray_jacobian,
                             {"zero-profile-route-equivalence", "contour-angle-invariance",
                              "free-field-reduction", "derivative-consistency-free",
                              "derivative-consistency-constant-field"}),
}

#: The check that holds each row a mutation names.
_ROW_CHECKS = {
    "classical-action-exponent": verification.check_classical_action_exponent,
    "dressed-braces-closed-form": verification.check_phase_integral_oracles,
    "phase-locality": verification.check_phase_locality,
    "zero-profile-route-equivalence": verification.check_zero_wave_vector_equivalence,
    "contour-angle-invariance": verification.check_contour_invariance,
    "free-field-reduction": verification.check_free_field_reduction,
    "derivative-consistency-free": verification.check_derivative_consistency,
    "derivative-consistency-constant-field": verification.check_derivative_consistency,
}


@pytest.mark.parametrize("mutation", _MUTATIONS)
def test_mutation_fails_exactly_its_rows(monkeypatch, mutation):
    mutate, rows = _MUTATIONS[mutation]
    checks = dict.fromkeys(_ROW_CHECKS[row] for row in sorted(rows))
    mutate(monkeypatch)
    failed = {r.name for check in checks for r in check() if not r.passed}
    print(f"MUTATION {mutation}: fails {', '.join(sorted(failed)) or 'no row'}")
    assert failed == rows


def test_criterion_12_bitwise_deterministic_outputs():
    _report(verification.check_determinism())

    config = {
        "field": {"g": 0.9, "B": 0.5,
                  "profile": {"kind": "circular", "amplitude": 0.4, "frequency": 1.1}},
        "eval": {"m": 0.8, "x_a": [0.1, -0.2, 0.3, 0.0], "x_b": [0.6, 0.4, -0.1, 0.5],
                 "pL": [0.0, 0.0, 0.2, 2.0]},
    }
    blobs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "run.json"
            out_path = Path(tmp) / "report.csv"
            cfg_path.write_text(json.dumps(config))
            status = main(["verify", "--config", str(cfg_path), "--out", str(out_path)])
            assert status == 0, f"verify exited with {status}"
            blobs.append(out_path.read_bytes()
                         + Path(str(out_path) + ".json").read_bytes())
    identical = blobs[0] == blobs[1]
    print(f"ACCEPTANCE 12 verify-cli-byte-identical: {'PASS' if identical else 'FAIL'} "
          f"dev={0.0 if identical else 1.0:.3e} tol=0.000e+00")
    assert identical


def _wrap_checks(monkeypatch, wrap):
    """Replace every `_CHECKS` entry and its module global with wrap(check),
    as a tracer does."""
    wrapped = {fn: wrap(fn) for fn in verification._CHECKS}
    for fn, wrapper in wrapped.items():
        monkeypatch.setattr(verification, fn.__name__, wrapper)
    monkeypatch.setattr(verification, "_CHECKS", tuple(wrapped.values()))
    return wrapped


def _nameless(fn, calls):
    """A `*args, **kwargs` wrapper with the same name for every check, counting calls."""
    def wrapper(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("route", ["run_all", "check_determinism"])
def test_criterion_12_fails_when_a_seeded_check_changes_between_runs(monkeypatch, route):
    # with the table's reports handed in, the row must still compare two runs
    calls = []

    def wrap(fn):
        if fn is not verification.check_phase_integral_oracles:
            return fn

        def drifting():
            calls.append(fn)
            report = fn()
            if len(calls) == 2:
                report = [replace(r, max_deviation=2.0 * r.max_deviation + 1e-16) for r in report]
            return report

        return drifting

    _wrap_checks(monkeypatch, wrap)
    results = verification.run_all() if route == "run_all" else verification.check_determinism()
    rows = [r for r in results if r.name == "check-suite-determinism"]
    assert len(calls) == 2
    assert len(rows) == 1 and rows[0].max_deviation == 1.0 and not rows[0].passed


def test_run_all_behind_nameless_wrappers_gives_the_same_table(monkeypatch):
    plain = [(r.name, r.passed) for r in verification.run_all()]
    calls = Counter()
    _wrap_checks(monkeypatch, lambda fn: _nameless(fn, calls))
    assert [(r.name, r.passed) for r in verification.run_all()] == plain
    assert all(passed for _, passed in plain)
    # a row removed or renamed edits this pin
    assert [name for name, _ in plain] == [
        "convention-ledger-consistency",
        "clifford-anticommutators", "projector-completeness", "projector-idempotence-orthogonality",
        "null-contractions-exact", "normalization-within-rounding", "field-tensor-eigenvectors",
        "time-sliced-kernel-agreement", "small-field-free-kernel-limit",
        "phase-integral-closed-forms", "dressed-braces-closed-form",
        "phase-integral-zero-profile-exact", "classical-action-exponent", "phase-locality",
        "zero-profile-route-equivalence", "contour-angle-invariance", "free-field-reduction",
        "derivative-consistency-free", "derivative-consistency-constant-field",
        "cli-output-bit-determinism", "check-suite-determinism",
    ]


def test_run_all_runs_each_seeded_check_twice_and_the_rest_once(monkeypatch):
    calls, quadratures = Counter(), Counter()
    checks = _wrap_checks(monkeypatch, lambda fn: _nameless(fn, calls))
    for module in (kernels, green):
        monkeypatch.setattr(module, "adaptive_quad",
                            _nameless(module.adaptive_quad, quadratures))
    verification.run_all()
    seeded = {"check_basis_identities", "check_phase_integral_oracles"}
    # criterion 12 runs the `identities` command twice, and it calls these three
    identities = {"check_ledger_consistency", "check_clifford_algebra", "check_basis_identities"}
    assert calls == {fn.__name__: 1 + (fn.__name__ in seeded) + 2 * (fn.__name__ in identities)
                     for fn in checks}
    # phase-locality adds 4 green_function calls, a phase pass and a ray each
    assert quadratures["adaptive_quad"] <= 175 + 8
