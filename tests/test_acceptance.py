"""Acceptance gate: one test per numbered verification criterion.

Each test runs the corresponding check from `wavefield.verification` at its
stated tolerance and prints one PASS/FAIL line per check (visible with
`pytest -s` or in the captured output of a failure). Criterion numbers have
gaps. A mutation table patches one physics defect per entry into `green` and
requires exactly the listed rows of the whole `verify` table to fail;
`pytest -s` prints the rows each mutation fails, and README's copy of the
table must list the same entries in the same order. The criterion-12 test also
exercises the `verify` command end to end, twice, and byte-compares its
outputs. Criterion 12 has mutation tests too: a seeded check whose second
report differs, in any one field, must fail `check-suite-determinism` (two NaN
deviations are the same outcome), and a second `gf` run that
writes other bytes, exits non-zero or writes nothing must fail
`cli-output-bit-determinism`, both inside `run_all` (which hands criterion 12
the table's own reports) and called alone. `run_all` is
also run with every check behind a nameless wrapper, as a tracer installs
them, and its work is counted: criterion 12 re-runs each seeded check once,
and each run of a check calls each oracle it stacks its draws for once (the
lattice once per N). The limit checks run production at every context before
any oracle, so an out-of-domain context raises the production error.
"""

import inspect
import json
import random
import re
import tempfile
import textwrap
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from wavefield import cli, conventions, green, kernels, minkowski, verification
from wavefield.errors import QuadratureFailure
from wavefield.cli import main
from wavefield.fields import CircularProfile, FieldConfig
from wavefield.green import EvalContext


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
    """Mutation: one `PhasePass` field of each pass of `green._phase_passes`
    times `factor`, so the oracles' own phase passes (through
    `verification._phase_passes`) stay intact."""
    def mutate(monkeypatch):
        passes = green._phase_passes

        def scaled(requests):
            return [replace(run, **{field: factor * getattr(run, field)}) for run in passes(requests)]

        monkeypatch.setattr(green, "_phase_passes", scaled)
    return mutate


def _flip_volkov_sign(monkeypatch):
    passes = green._phase_passes

    def flipped(requests):
        return passes([(cfg, pL, phi_a, phi_b, -sign, *tolerances)
                       for cfg, pL, phi_a, phi_b, sign, *tolerances in requests])

    monkeypatch.setattr(green, "_phase_passes", flipped)


#: A phase below every endpoint phase of the checks, which all lie in [-2, 2].
_PINNED_PHASE = -10.0


def _k_from_pinned_phase(monkeypatch):
    # K integrated from a fixed phase instead of phi_a, as a pinned origin did
    passes = green._phase_passes

    def pinned(requests):
        runs = passes(requests)
        origins = passes([(cfg, pL, _PINNED_PHASE, *rest) for cfg, pL, _, *rest in requests])
        return [replace(run, kernel_b=origin.kernel_b) for run, origin in zip(runs, origins)]

    monkeypatch.setattr(green, "_phase_passes", pinned)


def _scale_folded_kernel(factor, slot=0, modules=(green,)):
    # one of the factors (n, c, q) that the ray takes once per node: by
    # default the prefactor n = h / (2 pi), at slot 1 the coefficient c of rho^2;
    # bound in `green` alone by default, or in each of `modules`
    def mutate(monkeypatch):
        kernel = green.folded_kernel

        def scaled(e0, b):
            factors = list(kernel(e0, b))
            factors[slot] = factor * factors[slot]
            return tuple(factors)

        for module in modules:
            monkeypatch.setattr(module, "folded_kernel", scaled)
    return mutate


def _swap_projectors(monkeypatch):
    monkeypatch.setattr(green, "P_PLUS", minkowski.P_MINUS)
    monkeypatch.setattr(green, "P_MINUS", minkowski.P_PLUS)


def _swap_eps_in_braces(monkeypatch):
    # D+- = kslash epsslash^(*) P+- with eps and eps* swapped
    monkeypatch.setattr(green, "D_PLUS", minkowski.SLASH_K @ minkowski.SLASH_EPS @ minkowski.P_PLUS)
    monkeypatch.setattr(green, "D_MINUS",
                        minkowski.SLASH_K @ minkowski.SLASH_EPS_CONJ @ minkowski.P_MINUS)


def _drop_gauge_term(monkeypatch):
    # `dirac_apply`'s binding only; criterion 11's analytic side keeps its own
    potential = green.total_potential_lowered
    monkeypatch.setattr(green, "total_potential_lowered", lambda ctx, x: 0.0 * potential(ctx, x))


def _edit_source(module, name, old, new):
    """Mutation: `module.<name>` compiled again with the one `old` in its source
    replaced by `new`, and bound in `green` only, so the oracles' own phase
    passes (through `verification._phase_passes`) stay intact."""
    def mutate(monkeypatch):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(old) == 1
        scope = {}
        exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), scope)
        monkeypatch.setattr(green, name, scope[name])
    return mutate


#: Each mutation of production with the verify rows it must fail, and no others
#: in the whole `run_all` table. The oracle sides re-solve the action by
#: nested quadrature, build M+- from the closed-form K (for both volkov_sign
#: values, so flipping the sign inside G alone shows) and take G's gradient
#: from Schwinger's closed form, so a 1 % kernel error shows instead of cancelling.
#: A 1e-6 scaling of each layer (ray kernel, K, drift, action) is caught by one row.
_MUTATIONS = {
    "action-scaled": (_scale_pass("action", 1.01), {"classical-action-exponent"}),
    "k-from-pinned-phase": (_k_from_pinned_phase,
                            {"dressed-braces-closed-form", "phase-locality"}),
    "folded-kernel-scaled": (_scale_folded_kernel(1.01),
                             {"zero-profile-route-equivalence", "free-field-reduction",
                              "derivative-consistency-free",
                              "derivative-consistency-constant-field"}),
    "folded-kernel-scaled-everywhere": (
        _scale_folded_kernel(1.01, modules=(green, verification)),
        {"time-sliced-kernel-agreement", "small-field-free-kernel-limit",
         "zero-profile-route-equivalence", "free-field-reduction",
         "derivative-consistency-free", "derivative-consistency-constant-field"}),
    "volkov-sign-flipped-in-g": (_flip_volkov_sign, {"dressed-braces-closed-form"}),
    "projectors-swapped": (_swap_projectors,
                           {"dressed-braces-closed-form", "zero-profile-route-equivalence",
                            "derivative-consistency-constant-field"}),
    "dirac-gauge-term-dropped": (_drop_gauge_term, {"derivative-consistency-constant-field"}),
    "drift-sign-flipped": (_scale_pass("drift", -1.0), {"classical-action-exponent"}),
    "ray-kernel-scaled-1e-6": (_scale_folded_kernel(1.0 + 1e-6),
                               {"zero-profile-route-equivalence"}),
    "kernel-coefficient-scaled-1e-6": (_scale_folded_kernel(1.0 + 1e-6, slot=1),
                                       {"zero-profile-route-equivalence"}),
    "k-scaled-1e-6": (_scale_pass("kernel_b", 1.0 + 1e-6), {"dressed-braces-closed-form"}),
    "drift-scaled-1e-6": (_scale_pass("drift", 1.0 + 1e-6), {"classical-action-exponent"}),
    "action-scaled-1e-6": (_scale_pass("action", 1.0 + 1e-6), {"classical-action-exponent"}),
    "eps-swapped-in-braces": (_swap_eps_in_braces, {"dressed-braces-closed-form"}),
    "ray-jacobian-dropped": (
        # ds/du = L / (1 - u)^2 loses one power
        _edit_source(green, "_block", "/ rest ** 2", "/ rest"),
                             {"zero-profile-route-equivalence", "contour-angle-invariance",
                              "free-field-reduction", "derivative-consistency-free",
                              "derivative-consistency-constant-field"}),
    "q-swapped-between-projector-signs": (
        _edit_source(green, "_block", "(f * q, f) if b > 0.0 else (f, f * q)",
                     "(f, f * q) if b > 0.0 else (f * q, f)"),
        {"zero-profile-route-equivalence", "derivative-consistency-constant-field"}),
    "k-boundary-term-dropped": (
        _edit_source(kernels, "_phase_passes",
                     "(at_phi - boundary[0] - 1j * sign * (at_b[1] - at_a[1]))",
                     "(-1j * sign * (at_b[1] - at_a[1]))"),
        {"dressed-braces-closed-form"}),
    "constant-boundary-and-gauge-term-dropped": (
        _edit_source(green, "_prepare", "+ 0.5j * g * B * (far[:, 0] * near[:, 1]"
                                        " - far[:, 1] * near[:, 0])", "+ 0.0"),
        {"zero-profile-route-equivalence", "derivative-consistency-constant-field"}),
}

@pytest.mark.parametrize("mutation", _MUTATIONS)
def test_mutation_fails_exactly_its_rows(monkeypatch, mutation):
    mutate, rows = _MUTATIONS[mutation]
    mutate(monkeypatch)
    failed = {r.name for r in verification.run_all() if not r.passed}
    print(f"MUTATION {mutation}: fails {', '.join(sorted(failed)) or 'no row'}")
    assert failed == rows


def test_readme_mutation_table_is_a_copy_of_the_mutations():
    # one row per entry, in order: its key, then the rows it fails
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("| entry | mutation | rows that fail |")
    table = []
    for row in text[start:text.index("\n\n", start)].splitlines()[2:]:
        entry, _, failing = row.strip("|").split("|")
        table.append((entry.strip().strip("`"), set(re.findall(r"`([^`]+)`", failing))))
    assert table == [(name, rows) for name, (_, rows) in _MUTATIONS.items()]


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


def _nan_row(**changes):
    """A row whose deviation is a NaN of its own, with `changes` applied."""
    return verification.CheckResult(**{"criterion": 7, "name": "row",
                                       "max_deviation": float("nan"), "tolerance": 1e-8,
                                       "passed": False, "detail": "detail", **changes})


#: Per `CheckResult` field, a value that `_nan_row()` does not hold there (a
#: number where it has NaN).
_OTHER_VALUES = {"criterion": 8, "name": "other-row", "max_deviation": 0.0, "tolerance": 1e-7,
                 "passed": True, "detail": "other detail"}


@pytest.mark.parametrize("field", [None, *_OTHER_VALUES])
def test_criterion_12_compares_every_field_of_a_report(monkeypatch, field):
    # the re-run's report differs from the first in `field` alone; two NaN
    # deviations, distinct objects, are the same outcome: only a changed field
    # fails the row
    assert list(_OTHER_VALUES) == [f.name for f in fields(verification.CheckResult)]

    def rerun():
        return [_nan_row() if field is None else _nan_row(**{field: _OTHER_VALUES[field]})]

    monkeypatch.setattr(verification, "check_phase_integral_oracles", rerun)
    rows = {r.name: r for r in verification.check_determinism({rerun: [_nan_row()]})}
    assert rows["cli-output-bit-determinism"].passed
    assert rows["check-suite-determinism"].passed == (field is None)


def _on_second_call(fn, second):
    """fn, except that its second call returns second(fn, *args) instead."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return second(fn, *args) if len(calls) == 2 else fn(*args)

    return wrapper


def _raise(fn, rc):
    raise QuadratureFailure("budget exhausted")


#: Ways the second `gf` run of criterion 12 goes wrong: the `cli` attribute
#: wrapped, what its second call does instead, and what the row's detail says.
#: The runs share one directory and one config file, so a run must not pass on
#: the files of the run before it, as "writes-nothing" would.
_CLI_FAULTS = {
    "different-bytes": ("render_csv", lambda fn, header, rows: fn(header, rows) + b"\n", ""),
    "exits-non-zero": ("_COMMANDS", _raise, "gf exited with 4"),
    "writes-nothing": ("main", lambda fn, argv: 0, "gf wrote no output"),
}


@pytest.mark.parametrize("route", ["run_all", "check_determinism"])
@pytest.mark.parametrize("fault", _CLI_FAULTS)
def test_criterion_12_fails_when_a_cli_run_differs_or_fails(monkeypatch, route, fault):
    name, second, detail = _CLI_FAULTS[fault]
    if name == "_COMMANDS":          # the gf handler, which `main` looks up per run
        handler, grids = cli._COMMANDS["gf"]
        monkeypatch.setitem(cli._COMMANDS, "gf", (_on_second_call(handler, second), grids))
    else:
        monkeypatch.setattr(cli, name, _on_second_call(getattr(cli, name), second))
    results = verification.run_all() if route == "run_all" else verification.check_determinism()
    rows = {r.name: r for r in results if r.criterion == 12}
    bits = rows["cli-output-bit-determinism"]
    assert bits.max_deviation == 1.0 and not bits.passed
    assert detail in bits.detail
    assert rows["check-suite-determinism"].passed


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


#: The oracles a check would otherwise call once per random draw.
_STACKED_ORACLES = ("zero_profile_green", "zero_profile_gradient", "carrier_kernel",
                    "dressed_braces", "sliced_kernel", "cross_phase_closed")


def test_run_all_calls_each_oracle_once_per_check(monkeypatch):
    # each check hands an oracle all of its draws as one stack: one call per
    # run of the check (criterion 12's re-run is a run of its own), and the
    # lattice one call per N
    running, runs = [], []

    def wrap(fn):
        def tracked(*args, **kwargs):
            running.append(Counter())
            try:
                return fn(*args, **kwargs)
            finally:
                runs.append((fn.__name__, running.pop()))

        return tracked

    _wrap_checks(monkeypatch, wrap)
    for name in _STACKED_ORACLES:
        def spy(*args, _name=name, _oracle=getattr(verification, name), **kwargs):
            running[-1][_name, args[0] if _name == "sliced_kernel" else None] += 1
            return _oracle(*args, **kwargs)

        monkeypatch.setattr(verification, name, spy)
    assert all(r.passed for r in verification.run_all())
    for check, counts in runs:
        assert set(counts.values()) <= {1}, (check, counts)
    calls = [key for _, counts in runs for key in counts]
    assert {name for name, _ in calls} == set(_STACKED_ORACLES)
    assert sorted(n for name, n in calls if name == "sliced_kernel") == [8, 16, 32, 64]


def test_run_all_calls_the_nested_action_oracle_for_the_pulse_contexts_only(monkeypatch):
    # criterion 7's circular and linear contexts take the closed-form
    # classical path; the nested double integral stays the reference for its
    # two pulse contexts
    kinds = []

    def spy(components, *args, _oracle=verification.cross_phase_nested, **kwargs):
        kinds.append(components.__self__.kind)
        return _oracle(components, *args, **kwargs)

    monkeypatch.setattr(verification, "cross_phase_nested", spy)
    verification.run_all()
    assert kinds == ["pulse", "pulse"]


@pytest.mark.parametrize("limit, oracle", [("zero_profile_limit", "zero_profile_green"),
                                           ("free_field_limit", "free_propagator")])
def test_a_limit_evaluates_production_at_every_context_before_any_oracle(monkeypatch, limit,
                                                                         oracle):
    # the second context lies below threshold (gap <= 0): the production
    # error (exit 4 from `limits`) comes before the first oracle call
    calls = []
    real = getattr(verification, oracle)
    monkeypatch.setattr(verification, oracle, lambda *args: calls.append(args) or real(*args))
    admissible = EvalContext(m=0.8, x_a=[0.1, -0.2, 0.3, 0.0], x_b=[0.6, 0.4, -0.1, 0.5],
                             pL=[0.0, 0.0, 0.2, 2.0],
                             cfg=FieldConfig(g=0.9, B=0.5, profile=CircularProfile(0.4, 1.1)))
    with pytest.raises(QuadratureFailure):
        getattr(verification, limit)([admissible, replace(admissible, m=2.5)])
    assert calls == []
    getattr(verification, limit)([admissible])
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(20))
def test_the_draw_helpers_draw_as_random_uniform_does(seed):
    # `_uniforms` and `_random_point` fold `random.Random.uniform`'s arithmetic
    # into their own: their draws must be rng.uniform's, in order, bit for bit
    rng, ref = random.Random(seed), random.Random(seed)
    assert verification._uniforms(rng, -2.0, 2.0, 10).tolist() == [ref.uniform(-2.0, 2.0)
                                                                  for _ in range(10)]
    point = verification._random_point(rng)
    m, p2 = ref.uniform(0.5, 1.0), ref.uniform(-0.4, 0.4)
    p3 = ref.uniform(1.5, 2.5) * (1.0 if ref.random() < 0.5 else -1.0)
    x_a = np.array([ref.uniform(-0.8, 0.8) for _ in range(4)])
    x_b = np.array([ref.uniform(-0.8, 0.8) for _ in range(4)])
    while float(np.hypot(x_b[0] - x_a[0], x_b[1] - x_a[1])) < 0.3:
        x_b = np.array([ref.uniform(-0.8, 0.8) for _ in range(4)])
    assert [point[key].tobytes() for key in ("x_a", "x_b", "pL")] == [
        x_a.tobytes(), x_b.tobytes(), np.array([0.0, 0.0, p2, p3]).tobytes()]
    assert point["m"] == m and rng.random() == ref.random()
