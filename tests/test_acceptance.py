"""Acceptance gate: one test per numbered verification criterion.

Each test runs the corresponding check from `wavefield.verification` at its
stated tolerance and prints one PASS/FAIL line per check (visible with
`pytest -s` or in the captured output of a failure). Criteria 7 and 11 also
have mutation tests: with the phase pass's action or the production kernel
scaled by 1.01, or with K(phi_a) conjugated in the braces, their rows must
fail. The final test also
exercises the `verify` command end to end, twice, and byte-compares its
outputs.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

from wavefield import green, verification
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


def test_criterion_01_clifford_and_projector_algebra():
    _report(verification.check_clifford_algebra())


def test_criterion_02_basis_identities():
    _report(verification.check_basis_identities())


def test_criterion_03_plane_wave_tensor_contraction():
    _report(verification.check_planewave_contraction())


def test_criterion_04_classical_path_equations():
    _report(verification.check_classical_path_equations())


def test_criterion_05_time_sliced_kernel_oracle():
    _report(verification.check_sliced_oracle_agreement())


def test_criterion_06_spin_determinant():
    _report(verification.check_spin_determinant())


def test_criterion_07_phase_integral_oracles():
    _report(verification.check_phase_integral_oracles())


def test_criterion_07_classical_action_exponent():
    _report(verification.check_classical_action_exponent())


def test_criterion_07_fails_on_a_scaled_action(monkeypatch):
    # the oracle side re-solves the action by nested quadrature, so a 1 % error
    # in the phase pass's action shows in the exponent
    phase_pass = green.phase_pass

    def scaled(*args, **kwargs):
        run = phase_pass(*args, **kwargs)
        return replace(run, action=1.01 * run.action)

    monkeypatch.setattr(green, "phase_pass", scaled)
    assert not any(r.passed for r in verification.check_classical_action_exponent())


def test_criterion_07_fails_on_a_conjugated_kernel(monkeypatch):
    # the oracle side builds M+- from the closed-form K, so a brace that takes
    # K(phi_a) where it needs K*(phi_a) shows in the dressed-braces row
    phase_pass = green.phase_pass

    def conjugated(*args, **kwargs):
        run = phase_pass(*args, **kwargs)
        return replace(run, kernel_a=run.kernel_a.conjugate())

    monkeypatch.setattr(green, "phase_pass", conjugated)
    rows = [r for r in verification.check_phase_integral_oracles()
            if r.name == "dressed-braces-closed-form"]
    assert len(rows) == 1 and not rows[0].passed


def test_criterion_08_zero_wave_vector_equivalence():
    _report(verification.check_zero_wave_vector_equivalence())


def test_criterion_09_contour_invariance():
    _report(verification.check_contour_invariance())


def test_criterion_10_free_field_reduction():
    _report(verification.check_free_field_reduction())


def test_criterion_11_derivative_consistency():
    _report(verification.check_derivative_consistency())


def test_criterion_11_fails_on_a_scaled_production_kernel(monkeypatch):
    # the analytic side comes from the oracles, so a 1 % error in the ray's
    # kernel shows on both rows instead of cancelling
    kernel = green.folded_kernel

    def scaled(e0, rho2, b):
        k, q = kernel(e0, rho2, b)
        return 1.01 * k, q

    monkeypatch.setattr(green, "folded_kernel", scaled)
    assert not any(r.passed for r in verification.check_derivative_consistency())


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
