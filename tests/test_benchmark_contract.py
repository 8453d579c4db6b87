"""The benchmark's correctness contract in the tier-1 suite: the first request
of each workload's default-seed pool goes through `perfbench/gate.py` as
`perfbench/run.py` sends and checks it (the frozen reference of
`reference.json`; `verify` by its exit status and sidecar), so an output the
benchmark would count as incorrect fails here first. Only `perfbench/` is
read; nothing there is written."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gate
import workloads

from wavefield import cli, green, kernels


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_request_of_each_workload_passes_the_gate(tmp_path, workload):
    command, config = workloads.make_pool(workload, workloads.DEFAULT_SEED)[0]
    config_path = tmp_path / "config.json"
    config_path.write_text(workloads.config_text(config))
    out = gate.run_cli(cli.main, command, config_path, tmp_path / "out.csv")
    ref = None if command == "verify" else gate.reference_rows(
        cli.main, command, config, workloads.DEFAULT_SEED, gate.load_frozen(workload),
        config_path, tmp_path / "reference.csv")
    assert gate.check(command, config, out, ref) == []


def test_a_gf_calls_each_traced_quadrature_binding_once(tmp_path, monkeypatch):
    # the tracer wraps `adaptive_quad` where `green` binds it (its quadrature.ray_*
    # metrics) and where `kernels` binds it (quadrature.sub_*): one gf point with a
    # wave integrates one ray and one phase pass, each through its module's binding
    calls = {}
    for module in (green, kernels):
        def counted(*args, name=module.__name__, quad=module.adaptive_quad, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return quad(*args, **kwargs)

        monkeypatch.setattr(module, "adaptive_quad", counted)
    config_path = tmp_path / "config.json"
    config_path.write_text(workloads.config_text(
        {"field": workloads.README_FIELD, "eval": workloads.README_EVAL}))
    assert cli.main(["gf", "--config", str(config_path), "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == {"wavefield.green": 1, "wavefield.kernels": 1}
