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

from wavefield import cli


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
